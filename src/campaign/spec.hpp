// Declarative experiment-campaign specs: a parameter grid over
// ScenarioConfig fields plus a seed list, expanded into the cartesian
// product of grid points and then into one Job per (point, seed).
//
// Every swept value is carried as a string (so one grammar covers numeric,
// boolean and scheduler axes); `apply_field` owns parsing and range
// validation, which makes bad specs fail loudly before any simulation runs.
//
// One table in spec.cpp lists every ScenarioConfig member with its name
// and kind. It drives `apply_field` / `known_fields`, the campaign
// fingerprint and the exact config rendering the --isolate envelope uses.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "scenario/experiment.hpp"

namespace gttsch::campaign {

namespace jsonio {
class Cursor;
}

/// One swept parameter: a ScenarioConfig field name and the values it takes.
struct Axis {
  std::string field;
  std::vector<std::string> values;
};

/// A campaign: base scenario, swept axes (cartesian product), seed list.
struct CampaignSpec {
  ScenarioConfig base;
  std::vector<Axis> axes;
  std::vector<std::uint64_t> seeds;
};

/// A fully resolved grid point (seed not yet applied).
struct GridPoint {
  std::size_t index = 0;
  std::string label;  ///< "traffic_ppm=120 scheduler=gt-tsch"
  std::vector<std::pair<std::string, std::string>> coords;  ///< axis order
  ScenarioConfig config;
};

/// One unit of work for the runner: grid point x seed.
struct Job {
  std::size_t index = 0;  ///< dense 0..N-1, == point_index * #seeds + seed_index
  std::size_t point_index = 0;
  std::size_t seed_index = 0;
  ScenarioConfig config;  ///< seed applied
};

/// Field names accepted by `apply_field` (and therefore by grid axes).
const std::vector<std::string>& known_fields();

/// Applies `field=value` to `config`. On failure returns false and, when
/// `error` is non-null, stores a message naming the field and the problem
/// (unknown field, unparseable value, or out-of-range value).
bool apply_field(ScenarioConfig& config, const std::string& field,
                 const std::string& value, std::string* error);

/// Applies a base-config override string ("alpha=2;warmup_s=60", the
/// --set grammar) to `config`: each key takes exactly one value and
/// appears at most once. On failure returns false with `error` set.
bool apply_overrides(ScenarioConfig& config, const std::string& overrides,
                     std::string* error);

/// Appends `config` to `out` as one flat JSON object with every member,
/// exactly: doubles at %.17g, seeds as full u64, seconds fields in whole
/// µs, enums as ordinals, keyed by the `apply_field` names (plus `drain`
/// and `seed`).
void render_config_exact(const ScenarioConfig& config, std::string* out);

/// Inverse of render_config_exact. Checks types (enum ordinal in range,
/// integers fit their member) but not the --set bounds, so hand-built
/// configs round-trip as they are. Unknown keys are skipped; missing keys
/// leave `config` untouched.
bool parse_config_exact(jsonio::Cursor& cur, ScenarioConfig* config);

/// Checks axes (known fields, non-empty values, no duplicate field, every
/// value applies cleanly) and the seed list (non-empty, no duplicates).
bool validate(const CampaignSpec& spec, std::string* error);

/// Trace files as validate_points_trace parsed them, keyed by path.
using TraceFiles = std::map<std::string, Trace>;

/// Pre-run trace validation over fully resolved points — the check
/// run_points_campaign and `gt_campaign validate` make before any job
/// (formation_time builds its grid by hand and bypasses expand_grid).
/// Generator params are range-checked per point; each trace *file* is read
/// and parsed once per unique path, its node ids checked against every
/// referencing point's topology. Failures name the offending point, and a
/// missing or malformed file its path or line. When `files` is non-null
/// it receives the parsed files, for campaign_fingerprint to reuse.
bool validate_points_trace(const std::vector<GridPoint>& points, std::string* error,
                           TraceFiles* files = nullptr);

/// Cartesian product of the axes over the base config; the first axis
/// varies slowest. A spec with no axes yields the single base point.
/// Returns an empty vector with `error` set when validation fails.
std::vector<GridPoint> expand_grid(const CampaignSpec& spec, std::string* error);

/// Grid points x seeds, in deterministic (point-major) order.
std::vector<Job> make_jobs(const std::vector<GridPoint>& points,
                           const std::vector<std::uint64_t>& seeds);

/// The job for `point` x seeds[seed_index]; its index is
/// point.index * seeds.size() + seed_index, as Job::index says.
Job make_job(const GridPoint& point, const std::vector<std::uint64_t>& seeds,
             std::size_t seed_index);

/// Parses a grid description of the form
/// "traffic_ppm=30,75,120;scheduler=gt-tsch,orchestra" into axes.
bool parse_grid(const std::string& text, std::vector<Axis>* axes,
                std::string* error);

/// Parses a comma-separated seed list ("1,2,3").
bool parse_seeds(const std::string& text, std::vector<std::uint64_t>* seeds,
                 std::string* error);

/// Parses a plain-digits non-negative integer: no sign, no whitespace, no
/// wraparound, rejected when above `max`. The one grammar behind seed
/// lists, shard specs, and count-valued campaign flags — shared so the
/// three cannot drift.
bool parse_bounded_u64(const std::string& text, std::uint64_t max,
                       std::uint64_t* out);

/// Parses a whole-string decimal number in [lo, hi]. NaN, infinities and
/// trailing garbage are rejected, so a seconds-valued flag can never
/// reach an undefined double-to-integer cast.
bool parse_bounded_double(const std::string& text, double lo, double hi,
                          double* out);

/// Deterministically extends `seeds` to `count` entries (no-op when it is
/// already long enough): adaptive campaigns may need more seeds than the
/// base list, and every shard / resumed process must derive the *same*
/// sequence from the same spec. Appended seeds are splitmix64(i) values,
/// skipping collisions with earlier entries.
std::vector<std::uint64_t> extend_seeds(std::vector<std::uint64_t> seeds,
                                        std::size_t count);

/// Order-sensitive FNV-1a fingerprint of a fully resolved campaign
/// identity: every grid point's label, coords, and config (seed excluded,
/// doubles at %.17g) plus the base seed list. Every shard and every
/// resumed process of the same campaign computes the same value from the
/// same (points, seeds), whatever subset of jobs it runs — so journal
/// records stamped with it can be rejected when they come from a campaign
/// that differs *outside* the swept axes (e.g. a different --set base
/// config), which labels and coords alone cannot see. Never returns 0;
/// 0 is reserved for "record predates fingerprinting". A trace file found
/// in `files` is not read again.
std::uint64_t campaign_fingerprint(const std::vector<GridPoint>& points,
                                   const std::vector<std::uint64_t>& seeds,
                                   const TraceFiles* files = nullptr);

}  // namespace gttsch::campaign
