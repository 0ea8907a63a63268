#include "campaign/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

#include "sixp/sf_registry.hpp"

namespace gttsch::campaign {
namespace {

bool parse_double(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

bool parse_bool(const std::string& text, bool* out) {
  if (text == "1" || text == "true" || text == "on" || text == "yes") {
    *out = true;
    return true;
  }
  if (text == "0" || text == "false" || text == "off" || text == "no") {
    *out = false;
    return true;
  }
  return false;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// One settable ScenarioConfig field: parse + range-check + assign.
struct FieldDef {
  const char* name;
  bool (*apply)(ScenarioConfig&, const std::string&, std::string*);
};

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

template <typename T>
bool set_number(ScenarioConfig& c, const std::string& value, std::string* error,
                const char* name, T ScenarioConfig::*member, double lo, double hi) {
  double v = 0;
  if (!parse_double(value, &v)) {
    return fail(error, std::string(name) + ": unparseable value '" + value + "'");
  }
  // Written so NaN fails too (NaN would otherwise pass a < lo || > hi
  // check and invoke UB when cast to an integral field).
  if (!(v >= lo && v <= hi)) {
    return fail(error, std::string(name) + ": value " + value + " out of range [" +
                           format_number(lo) + ", " + format_number(hi) + "]");
  }
  c.*member = static_cast<T>(v);
  return true;
}

bool apply_scheduler(ScenarioConfig& c, const std::string& value, std::string* error) {
  const SfRegistry::Entry* entry = SfRegistry::instance().find(value);
  if (entry == nullptr) {
    return fail(error, "scheduler: unknown value '" + value + "' (expected " +
                           SfRegistry::instance().names_joined(", ") + ")");
  }
  // Canonicalize aliases ("gt" -> "gt-tsch") so fingerprints, journals and
  // CSV labels never depend on which spelling the user typed.
  c.scheduler = entry->key;
  return true;
}

bool apply_topology(ScenarioConfig& c, const std::string& value, std::string* error) {
  for (const TopologyKind kind :
       {TopologyKind::kMultiDodag, TopologyKind::kGrid, TopologyKind::kLine,
        TopologyKind::kRandomDisk}) {
    if (value == topology_name(kind)) {
      c.topology = kind;
      return true;
    }
  }
  return fail(error, "topology: unknown value '" + value +
                         "' (expected multi-dodag, grid, line or random-disk)");
}

bool apply_warmup(ScenarioConfig& c, const std::string& value, std::string* error) {
  double v = 0;
  if (!parse_double(value, &v) || v < 0) {
    return fail(error, "warmup_s: expected a non-negative number of seconds");
  }
  c.warmup = static_cast<TimeUs>(v * 1e6);
  return true;
}

bool apply_measure(ScenarioConfig& c, const std::string& value, std::string* error) {
  double v = 0;
  if (!parse_double(value, &v) || v <= 0) {
    return fail(error, "measure_s: expected a positive number of seconds");
  }
  c.measure = static_cast<TimeUs>(v * 1e6);
  return true;
}

bool apply_trace_kind(ScenarioConfig& c, const std::string& value, std::string* error) {
  if (parse_trace_kind(value, &c.trace_kind)) return true;
  return fail(error, "trace_kind: unknown value '" + value +
                         "' (expected none, file, random-walk, random-waypoint or "
                         "crashloop)");
}

bool apply_trace_path(ScenarioConfig& c, const std::string& value, std::string* error) {
  // Eager syntax check: a bad trace file fails the spec here, naming the
  // offending line, before any simulation runs. Node ids depend on the
  // topology axes and are checked per grid point in expand_grid.
  Trace probe;
  std::string trace_error;
  if (!load_trace(value, &probe, &trace_error)) {
    return fail(error, "trace: " + trace_error);
  }
  c.trace = value;
  return true;
}

bool apply_tx_margin(ScenarioConfig& c, const std::string& value, std::string* error) {
  if (parse_bool(value, &c.enforce_tx_margin)) return true;
  return fail(error, "enforce_tx_margin: expected a boolean, got '" + value + "'");
}

bool apply_interleave(ScenarioConfig& c, const std::string& value, std::string* error) {
  if (parse_bool(value, &c.enforce_interleave)) return true;
  return fail(error, "enforce_interleave: expected a boolean, got '" + value + "'");
}

const FieldDef kFields[] = {
    {"scheduler", apply_scheduler},
    {"topology", apply_topology},
    {"topology_nodes",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "topology_nodes", &ScenarioConfig::topology_nodes, 1,
                         4096);
     }},
    {"disk_radius",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "disk_radius", &ScenarioConfig::disk_radius, 1, 1e5);
     }},
    {"topology_seed",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       // Parsed through the count grammar, not strtod: a seed must
       // round-trip exactly (doubles lose integers beyond 2^53).
       std::uint64_t seed = 0;
       if (!parse_bounded_u64(v, std::numeric_limits<std::uint64_t>::max(), &seed)) {
         return fail(e, "topology_seed: expected a non-negative integer, got '" + v +
                            "'");
       }
       c.topology_seed = seed;
       return true;
     }},
    {"dodag_count",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "dodag_count", &ScenarioConfig::dodag_count, 1, 64);
     }},
    {"nodes_per_dodag",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "nodes_per_dodag", &ScenarioConfig::nodes_per_dodag,
                         2, 256);
     }},
    {"hop_distance",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "hop_distance", &ScenarioConfig::hop_distance, 1,
                         1000);
     }},
    {"radio_range",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "radio_range", &ScenarioConfig::radio_range, 1, 1000);
     }},
    {"interference_factor",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "interference_factor",
                         &ScenarioConfig::interference_factor, 1, 10);
     }},
    {"link_prr",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "link_prr", &ScenarioConfig::link_prr, 0, 1);
     }},
    {"traffic_ppm",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "traffic_ppm", &ScenarioConfig::traffic_ppm, 0, 1e6);
     }},
    {"gt_slotframe_length",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "gt_slotframe_length",
                         &ScenarioConfig::gt_slotframe_length, 4, 65535);
     }},
    {"orchestra_unicast_length",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "orchestra_unicast_length",
                         &ScenarioConfig::orchestra_unicast_length, 1, 65535);
     }},
    {"alice_unicast_length",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "alice_unicast_length",
                         &ScenarioConfig::alice_unicast_length, 1, 65535);
     }},
    {"emsf_slotframe_length",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "emsf_slotframe_length",
                         &ScenarioConfig::emsf_slotframe_length, 2, 65535);
     }},
    {"queue_capacity",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "queue_capacity", &ScenarioConfig::queue_capacity, 1,
                         4096);
     }},
    {"alpha",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "alpha", &ScenarioConfig::alpha, 0, 1e6);
     }},
    {"beta",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "beta", &ScenarioConfig::beta, 0, 1e6);
     }},
    {"gamma",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "gamma", &ScenarioConfig::gamma, 0, 1e6);
     }},
    {"orchestra_channel_hash",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       if (parse_bool(v, &c.orchestra_channel_hash)) return true;
       return fail(e, "orchestra_channel_hash: expected a boolean, got '" + v + "'");
     }},
    {"enforce_tx_margin", apply_tx_margin},
    {"enforce_interleave", apply_interleave},
    {"warmup_s", apply_warmup},
    {"measure_s", apply_measure},
    {"trace_kind", apply_trace_kind},
    {"trace", apply_trace_path},
    {"trace_seed",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       // Exact-u64 grammar, like topology_seed: a seed must round-trip
       // exactly (doubles lose integers beyond 2^53).
       std::uint64_t seed = 0;
       if (!parse_bounded_u64(v, std::numeric_limits<std::uint64_t>::max(), &seed)) {
         return fail(e, "trace_seed: expected a non-negative integer, got '" + v + "'");
       }
       c.trace_seed = seed;
       return true;
     }},
    {"trace_movers",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "trace_movers", &ScenarioConfig::trace_movers, 0,
                         4096);
     }},
    {"trace_speed_mps",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "trace_speed_mps", &ScenarioConfig::trace_speed_mps,
                         0, 1000);
     }},
    {"trace_interval_s",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "trace_interval_s", &ScenarioConfig::trace_interval_s,
                         1e-3, 1e5);
     }},
    {"trace_fail_count",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "trace_fail_count", &ScenarioConfig::trace_fail_count,
                         0, 4096);
     }},
    {"trace_fail_at_s",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "trace_fail_at_s", &ScenarioConfig::trace_fail_at_s,
                         0, 1e9);
     }},
    {"trace_down_s",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "trace_down_s", &ScenarioConfig::trace_down_s, 1e-3,
                         1e9);
     }},
    {"trace_cycle_s",
     [](ScenarioConfig& c, const std::string& v, std::string* e) {
       return set_number(c, v, e, "trace_cycle_s", &ScenarioConfig::trace_cycle_s,
                         1e-3, 1e9);
     }},
};

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

}  // namespace

const std::vector<std::string>& known_fields() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const FieldDef& f : kFields) v.push_back(f.name);
    return v;
  }();
  return names;
}

bool apply_field(ScenarioConfig& config, const std::string& field,
                 const std::string& value, std::string* error) {
  for (const FieldDef& f : kFields) {
    if (field == f.name) return f.apply(config, value, error);
  }
  return fail(error, "unknown field '" + field + "'");
}

bool validate(const CampaignSpec& spec, std::string* error) {
  std::set<std::string> seen;
  for (const Axis& axis : spec.axes) {
    if (axis.values.empty()) {
      return fail(error, "axis '" + axis.field + "' has no values");
    }
    if (!seen.insert(axis.field).second) {
      return fail(error, "axis '" + axis.field + "' appears twice");
    }
    ScenarioConfig probe = spec.base;
    for (const std::string& value : axis.values) {
      if (!apply_field(probe, axis.field, value, error)) return false;
    }
  }
  if (spec.seeds.empty()) return fail(error, "seed list is empty");
  std::set<std::uint64_t> unique(spec.seeds.begin(), spec.seeds.end());
  if (unique.size() != spec.seeds.size()) {
    return fail(error, "seed list contains duplicates");
  }
  return true;
}

std::vector<GridPoint> expand_grid(const CampaignSpec& spec, std::string* error) {
  if (!validate(spec, error)) return {};

  std::vector<GridPoint> points;
  GridPoint base;
  base.config = spec.base;
  points.push_back(base);
  for (const Axis& axis : spec.axes) {
    std::vector<GridPoint> next;
    next.reserve(points.size() * axis.values.size());
    for (const GridPoint& p : points) {
      for (const std::string& value : axis.values) {
        GridPoint q = p;
        // Validated above; re-applying cannot fail.
        apply_field(q.config, axis.field, value, nullptr);
        // The scheduler axis canonicalizes aliases ("gt" -> "gt-tsch"):
        // labels, coords and therefore the campaign fingerprint use the
        // canonical key, so journals and CSV rows cannot fork on which
        // spelling the user typed.
        const std::string& shown =
            axis.field == "scheduler" ? q.config.scheduler : value;
        q.coords.emplace_back(axis.field, shown);
        if (!q.label.empty()) q.label += ' ';
        q.label += axis.field + '=' + shown;
        next.push_back(std::move(q));
      }
    }
    points = std::move(next);
  }
  for (std::size_t i = 0; i < points.size(); ++i) points[i].index = i;
  // Trace setup is cross-field (kind x path x topology x generator knobs)
  // and only checkable on fully resolved points — validate_points_trace
  // runs in run_points_campaign, the chokepoint every execution path
  // (run_campaign and the hand-built bench grids alike) funnels through.
  return points;
}

bool validate_points_trace(const std::vector<GridPoint>& points, std::string* error) {
  // One disk read + parse per unique trace file, however many points
  // reference it (a file axis crossed with other axes repeats each path).
  struct CachedFile {
    bool ok = false;
    Trace trace;
    std::string error;
  };
  std::map<std::string, CachedFile> files;
  for (const GridPoint& point : points) {
    const ScenarioConfig& c = point.config;
    std::string trace_error;
    bool ok;
    if (c.trace_kind == TraceKind::kFile && !c.trace.empty()) {
      auto [it, inserted] = files.try_emplace(c.trace);
      if (inserted) it->second.ok = load_trace(c.trace, &it->second.trace, &it->second.error);
      if (it->second.ok) {
        // Node ids are per point: the same file can be valid for one
        // topology axis value and not another.
        ok = validate_trace_nodes(it->second.trace, c.make_topology(), &trace_error);
      } else {
        ok = false;
        trace_error = it->second.error;
      }
    } else {
      // kNone, the generators, and the empty-path kFile error: all cheap.
      ok = c.validate_trace(&trace_error);
    }
    if (!ok) {
      return fail(error, (point.label.empty() ? std::string("base config")
                                              : "point '" + point.label + "'") +
                             ": " + trace_error);
    }
  }
  return true;
}

std::vector<Job> make_jobs(const CampaignSpec& spec, std::string* error) {
  const std::vector<GridPoint> points = expand_grid(spec, error);
  if (points.empty()) return {};
  return make_jobs(points, spec.seeds);
}

std::vector<Job> make_jobs(const std::vector<GridPoint>& points,
                           const std::vector<std::uint64_t>& seeds) {
  std::vector<Job> jobs;
  jobs.reserve(points.size() * seeds.size());
  for (const GridPoint& point : points) {
    for (std::size_t s = 0; s < seeds.size(); ++s) {
      Job job;
      job.index = jobs.size();
      job.point_index = point.index;
      job.seed_index = s;
      job.config = point.config;
      job.config.seed = seeds[s];
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

bool parse_grid(const std::string& text, std::vector<Axis>* axes,
                std::string* error) {
  axes->clear();
  if (text.empty()) return true;
  for (const std::string& part : split(text, ';')) {
    if (part.empty()) continue;
    const std::size_t eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      return fail(error, "grid axis '" + part + "' is not of the form field=v1,v2");
    }
    Axis axis;
    axis.field = part.substr(0, eq);
    for (const std::string& value : split(part.substr(eq + 1), ',')) {
      if (value.empty()) {
        return fail(error, "grid axis '" + axis.field + "' has an empty value");
      }
      axis.values.push_back(value);
    }
    if (axis.values.empty()) {
      return fail(error, "grid axis '" + axis.field + "' has no values");
    }
    axes->push_back(std::move(axis));
  }
  return true;
}

bool parse_bounded_u64(const std::string& text, std::uint64_t max,
                       std::uint64_t* out) {
  // strtoull accepts leading whitespace and '-' (wrapping around); require
  // plain digits. Overflow clamps to ULLONG_MAX and sets ERANGE, which
  // must be rejected even when max == UINT64_MAX.
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size() || v > max) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_seeds(const std::string& text, std::vector<std::uint64_t>* seeds,
                 std::string* error) {
  seeds->clear();
  for (const std::string& part : split(text, ',')) {
    if (part.empty()) continue;
    std::uint64_t seed = 0;  // seeds use the full 64-bit range (splitmix64)
    if (!parse_bounded_u64(part, UINT64_MAX, &seed)) {
      return fail(error, "seed '" + part + "' is not an unsigned integer");
    }
    if (std::find(seeds->begin(), seeds->end(), seed) != seeds->end()) {
      return fail(error, "seed " + part + " appears twice");
    }
    seeds->push_back(seed);
  }
  if (seeds->empty()) return fail(error, "seed list '" + text + "' is empty");
  return true;
}

std::vector<std::uint64_t> extend_seeds(std::vector<std::uint64_t> seeds,
                                        std::size_t count) {
  std::set<std::uint64_t> used(seeds.begin(), seeds.end());
  std::uint64_t i = 0;
  while (seeds.size() < count) {
    // splitmix64: well-distributed, stateless in the index, so the n-th
    // appended seed is the same on every host.
    std::uint64_t z = (i++) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
    if (used.insert(z).second) seeds.push_back(z);
  }
  return seeds;
}

namespace {

/// Incremental 64-bit FNV-1a.
class Fingerprint {
 public:
  void mix(const std::string& s) {
    for (const char c : s) mix_byte(static_cast<unsigned char>(c));
    mix_byte(0xff);  // separator: {"ab","c"} must differ from {"a","bc"}
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) mix_byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void mix(double v) {
    // %.17g round-trips the exact IEEE-754 value (same convention as the
    // journal), so the fingerprint is stable across hosts and rebuilds.
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    mix(std::string(buf));
  }
  std::uint64_t value() const { return hash_ == 0 ? 1 : hash_; }

 private:
  void mix_byte(unsigned char b) {
    hash_ = (hash_ ^ b) * 1099511628211ull;
  }
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Canonical trace-file content per path, memoized across the grid points
/// of one fingerprint call (a file axis crossed with other axes repeats
/// each path): one disk read + parse per unique file.
using TraceContentCache = std::map<std::string, std::string>;

const std::string& canonical_trace_content(const std::string& path,
                                           TraceContentCache& cache) {
  auto [it, inserted] = cache.try_emplace(path);
  if (inserted) {
    Trace t;
    std::string ignored;
    it->second =
        load_trace(path, &t, &ignored) ? format_trace(t) : std::string("<unreadable>");
  }
  return it->second;
}

/// Every ScenarioConfig field except `seed` (per-job, journaled
/// separately), in declaration order. The static_assert below fires when
/// a field is added or resized: extend this list before adjusting it.
void mix_config(Fingerprint& fp, const ScenarioConfig& c, TraceContentCache& cache) {
  // The scheduler is hashed as its canonical name string, not an enum
  // ordinal: registry order can change (new schedulers slot in) without
  // invalidating every existing campaign journal.
  fp.mix(c.scheduler);
  fp.mix(static_cast<std::uint64_t>(c.topology));
  fp.mix(static_cast<std::uint64_t>(c.dodag_count));
  fp.mix(static_cast<std::uint64_t>(c.nodes_per_dodag));
  fp.mix(c.hop_distance);
  fp.mix(static_cast<std::uint64_t>(c.topology_nodes));
  fp.mix(c.disk_radius);
  fp.mix(c.topology_seed);
  fp.mix(c.radio_range);
  fp.mix(c.interference_factor);
  fp.mix(c.link_prr);
  fp.mix(c.traffic_ppm);
  fp.mix(static_cast<std::uint64_t>(c.gt_slotframe_length));
  fp.mix(static_cast<std::uint64_t>(c.orchestra_unicast_length));
  fp.mix(static_cast<std::uint64_t>(c.orchestra_channel_hash));
  fp.mix(static_cast<std::uint64_t>(c.alice_unicast_length));
  fp.mix(static_cast<std::uint64_t>(c.emsf_slotframe_length));
  fp.mix(static_cast<std::uint64_t>(c.queue_capacity));
  fp.mix(c.alpha);
  fp.mix(c.beta);
  fp.mix(c.gamma);
  fp.mix(static_cast<std::uint64_t>(c.enforce_tx_margin));
  fp.mix(static_cast<std::uint64_t>(c.enforce_interleave));
  fp.mix(static_cast<std::uint64_t>(c.warmup));
  fp.mix(static_cast<std::uint64_t>(c.measure));
  fp.mix(static_cast<std::uint64_t>(c.drain));
  fp.mix(static_cast<std::uint64_t>(c.trace_kind));
  fp.mix(c.trace_seed);
  fp.mix(static_cast<std::uint64_t>(c.trace_movers));
  fp.mix(static_cast<std::uint64_t>(c.trace_fail_count));
  fp.mix(c.trace_speed_mps);
  fp.mix(c.trace_interval_s);
  fp.mix(c.trace_fail_at_s);
  fp.mix(c.trace_down_s);
  fp.mix(c.trace_cycle_s);
  fp.mix(c.trace);
  if (c.trace_kind == TraceKind::kFile && !c.trace.empty()) {
    // Fingerprint the trace *content* too, not just the path: editing the
    // file between runs must invalidate resume/merge exactly like any
    // other config change. format_trace canonicalizes, so a cosmetic
    // rewrite (comments, whitespace) does not break resumability. An
    // unreadable file gets a sentinel; validation fails the campaign
    // before any job runs anyway.
    fp.mix(canonical_trace_content(c.trace, cache));
  }
}
// The std::string `trace` member makes sizeof stdlib-dependent (32 bytes
// under libstdc++, 24 under libc++), so the tripwire is gated on libstdc++
// — the library every CI leg builds against.
#if (defined(__x86_64__) || defined(__aarch64__)) && defined(_GLIBCXX_RELEASE)
static_assert(sizeof(ScenarioConfig) == 296,
              "ScenarioConfig changed: add the new field to mix_config, then "
              "update this size");
#endif

}  // namespace

std::uint64_t campaign_fingerprint(const std::vector<GridPoint>& points,
                                   const std::vector<std::uint64_t>& seeds) {
  Fingerprint fp;
  TraceContentCache trace_cache;
  for (const GridPoint& point : points) {
    fp.mix(point.label);
    for (const auto& [key, value] : point.coords) {
      fp.mix(key);
      fp.mix(value);
    }
    mix_config(fp, point.config, trace_cache);
  }
  for (const std::uint64_t seed : seeds) fp.mix(seed);
  return fp.value();
}

}  // namespace gttsch::campaign
