// Deterministic campaign partitioning: `--shard i/N` splits an expanded
// job (or grid-point) list across N independent gt_campaign processes or
// hosts. Shards are disjoint, cover every job, and depend only on
// (index, count) — never on timing — so the union of per-shard journals
// merges into an aggregate bit-identical to an unsharded run.
#pragma once

#include <cstddef>
#include <string>

namespace gttsch::campaign {

/// One shard out of `count`: this process runs jobs with
/// `job.index % count == index`. The round-robin partition keeps every
/// shard's share of each grid point balanced (contiguous blocks would give
/// early shards whole points and leave late shards idle on small grids).
/// Adaptive campaigns partition grid points the same way, since a point's
/// seed count is dynamic and the point must live entirely in one shard.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  /// Whether this shard runs the job (or, adaptive, the grid point) with
  /// this index.
  bool owns(std::size_t job_or_point_index) const {
    return job_or_point_index % count == index;
  }
};

/// Parses "i/N" (e.g. "0/4"). Requires N >= 1 and i < N.
bool parse_shard(const std::string& text, ShardSpec* out, std::string* error);

}  // namespace gttsch::campaign
