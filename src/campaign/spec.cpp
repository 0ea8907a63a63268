#include "campaign/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <type_traits>
#include <utility>
#include <variant>

#include "campaign/jsonio.hpp"
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

std::string format_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// ------------------------------------------------------- field table ------
// Every ScenarioConfig member is one row of kFields. The row's kind (the
// variant alternative, which also holds the member pointer) selects the
// per-kind code below for --set / --grid, the campaign fingerprint and the
// --isolate envelope, so those three cannot drift apart.

namespace kind {
/// SfRegistry key; --set canonicalizes aliases ("gt" -> "gt-tsch"). The
/// fingerprint hashes the name, not a registry ordinal, so new schedulers
/// can slot in without invalidating existing journals.
struct Scheduler {
  std::string ScenarioConfig::*member;
};
struct Topology {
  TopologyKind ScenarioConfig::*member;
};
/// trace_kind: none, file, or one of the generators.
struct TraceMode {
  TraceKind ScenarioConfig::*member;
};
/// Trace file: its content is fingerprinted. validate_points_trace reads
/// and checks it once per campaign, so --set only stores the path.
struct TracePath {
  std::string ScenarioConfig::*member;
};
/// Range-checked against the row's bounds on --set.
template <typename T>
struct Number {
  T ScenarioConfig::*member;
};
/// Exact 64-bit digits: doubles lose integers beyond 2^53.
struct Seed {
  std::uint64_t ScenarioConfig::*member;
};
/// Set in seconds, stored (and sent to --isolate children) in whole µs.
struct Seconds {
  TimeUs ScenarioConfig::*member;
};
struct Bool {
  bool ScenarioConfig::*member;
};
}  // namespace kind

using Int = kind::Number<int>;
using U16 = kind::Number<std::uint16_t>;
using Size = kind::Number<std::size_t>;
using Real = kind::Number<double>;
using Kind = std::variant<kind::Scheduler, kind::Topology, kind::TraceMode,
                          kind::TracePath, Int, U16, Size, Real, kind::Seed,
                          kind::Seconds, kind::Bool>;
using C = ScenarioConfig;

/// One ScenarioConfig member: its --set name, kind and --set bounds.
struct Field {
  const char* name;
  Kind kind;
  double lo = 0;  ///< --set bounds (Number and Seconds kinds)
  double hi = 0;
  bool settable = true;       ///< accepted by --set / --grid
  bool fingerprinted = true;  ///< mixed into campaign_fingerprint
};

// Declaration order: the fingerprint mixes the rows in this order.
constexpr Field kFields[] = {
    {"scheduler", kind::Scheduler{&C::scheduler}},
    {"topology", kind::Topology{&C::topology}},
    {"dodag_count", Int{&C::dodag_count}, 1, 64},
    {"nodes_per_dodag", Int{&C::nodes_per_dodag}, 2, 256},
    {"hop_distance", Real{&C::hop_distance}, 1, 1000},
    {"topology_nodes", Int{&C::topology_nodes}, 1, 4096},
    {"disk_radius", Real{&C::disk_radius}, 1, 1e5},
    {"topology_seed", kind::Seed{&C::topology_seed}},
    {"radio_range", Real{&C::radio_range}, 1, 1000},
    {"interference_factor", Real{&C::interference_factor}, 1, 10},
    {"link_prr", Real{&C::link_prr}, 0, 1},
    {"traffic_ppm", Real{&C::traffic_ppm}, 0, 1e6},
    {"gt_slotframe_length", U16{&C::gt_slotframe_length}, 4, 65535},
    {"orchestra_unicast_length", U16{&C::orchestra_unicast_length}, 1, 65535},
    {"orchestra_channel_hash", kind::Bool{&C::orchestra_channel_hash}},
    {"alice_unicast_length", U16{&C::alice_unicast_length}, 1, 65535},
    {"emsf_slotframe_length", U16{&C::emsf_slotframe_length}, 2, 65535},
    {"queue_capacity", Size{&C::queue_capacity}, 1, 4096},
    {"alpha", Real{&C::alpha}, 0, 1e6},
    {"beta", Real{&C::beta}, 0, 1e6},
    {"gamma", Real{&C::gamma}, 0, 1e6},
    {"enforce_tx_margin", kind::Bool{&C::enforce_tx_margin}},
    {"enforce_interleave", kind::Bool{&C::enforce_interleave}},
    {"warmup_s", kind::Seconds{&C::warmup}, 0, 1e9},
    // 1 µs, the stored resolution: a shorter window would truncate to 0.
    {"measure_s", kind::Seconds{&C::measure}, 1e-6, 1e9},
    {.name = "drain", .kind = kind::Seconds{&C::drain}, .settable = false},
    {"trace_kind", kind::TraceMode{&C::trace_kind}},
    {"trace_seed", kind::Seed{&C::trace_seed}},
    {"trace_movers", Int{&C::trace_movers}, 0, 4096},
    {"trace_fail_count", Int{&C::trace_fail_count}, 0, 4096},
    {"trace_speed_mps", Real{&C::trace_speed_mps}, 0, 1000},
    {"trace_interval_s", Real{&C::trace_interval_s}, 1e-3, 1e5},
    {"trace_fail_at_s", Real{&C::trace_fail_at_s}, 0, 1e9},
    {"trace_down_s", Real{&C::trace_down_s}, 1e-3, 1e9},
    {"trace_cycle_s", Real{&C::trace_cycle_s}, 1e-3, 1e9},
    {"trace", kind::TracePath{&C::trace}},
    // Per job, from the seed list; journaled separately.
    {.name = "seed",
     .kind = kind::Seed{&C::seed},
     .settable = false,
     .fingerprinted = false},
};
// The only check that catches a member added to ScenarioConfig but not to
// kFields, which would reach --isolate children at its default. The
// std::string members make sizeof stdlib-dependent (32 bytes each under
// libstdc++, 24 under libc++), so it is gated on libstdc++, the library
// every CI leg builds against.
#if (defined(__x86_64__) || defined(__aarch64__)) && defined(_GLIBCXX_RELEASE)
static_assert(sizeof(ScenarioConfig) == 296,
              "ScenarioConfig changed: add the member to kFields, then update "
              "this size");
#endif

const Field* find_settable(const std::string& name) {
  for (const Field& f : kFields) {
    if (f.settable && name == f.name) return &f;
  }
  return nullptr;
}

// --set / --grid: parse, range-check and assign one user-facing value.

/// Parses a number within the row's bounds. Written so NaN fails too: it
/// would pass a `< lo || > hi` check and make the cast to an integral
/// field undefined.
bool parse_bounded(const Field& f, const std::string& value, double* out,
                   std::string* error) {
  if (!parse_double(value, out)) {
    return fail(error, std::string(f.name) + ": unparseable value '" + value + "'");
  }
  if (!(*out >= f.lo && *out <= f.hi)) {
    return fail(error, std::string(f.name) + ": value " + value + " out of range [" +
                           format_number(f.lo) + ", " + format_number(f.hi) + "]");
  }
  return true;
}

bool set(const Field& f, kind::Scheduler k, ScenarioConfig& c, const std::string& value,
         std::string* error) {
  const SfRegistry::Entry* entry = SfRegistry::instance().find(value);
  if (entry == nullptr) {
    return fail(error, std::string(f.name) + ": unknown value '" + value +
                           "' (expected " + SfRegistry::instance().names_joined(", ") +
                           ")");
  }
  c.*k.member = entry->key;
  return true;
}

bool set(const Field& f, kind::Topology k, ScenarioConfig& c, const std::string& value,
         std::string* error) {
  for (const TopologyKind topology :
       {TopologyKind::kMultiDodag, TopologyKind::kGrid, TopologyKind::kLine,
        TopologyKind::kRandomDisk}) {
    if (value == topology_name(topology)) {
      c.*k.member = topology;
      return true;
    }
  }
  return fail(error, std::string(f.name) + ": unknown value '" + value +
                         "' (expected multi-dodag, grid, line or random-disk)");
}

bool set(const Field& f, kind::TraceMode k, ScenarioConfig& c, const std::string& value,
         std::string* error) {
  if (parse_trace_kind(value, &(c.*k.member))) return true;
  return fail(error, std::string(f.name) + ": unknown value '" + value +
                         "' (expected none, file, random-walk, random-waypoint or "
                         "crashloop)");
}

bool set(const Field&, kind::TracePath k, ScenarioConfig& c, const std::string& value,
         std::string*) {
  c.*k.member = value;
  return true;
}

template <typename T>
bool set(const Field& f, kind::Number<T> k, ScenarioConfig& c, const std::string& value,
         std::string* error) {
  double v = 0;
  if (!parse_bounded(f, value, &v, error)) return false;
  c.*k.member = static_cast<T>(v);
  return true;
}

bool set(const Field& f, kind::Seed k, ScenarioConfig& c, const std::string& value,
         std::string* error) {
  if (parse_bounded_u64(value, std::numeric_limits<std::uint64_t>::max(),
                        &(c.*k.member))) {
    return true;
  }
  return fail(error, std::string(f.name) + ": expected a non-negative integer, got '" +
                         value + "'");
}

bool set(const Field& f, kind::Seconds k, ScenarioConfig& c, const std::string& value,
         std::string* error) {
  double seconds = 0;
  if (!parse_bounded(f, value, &seconds, error)) return false;
  c.*k.member = static_cast<TimeUs>(seconds * 1e6);
  return true;
}

bool set(const Field& f, kind::Bool k, ScenarioConfig& c, const std::string& value,
         std::string* error) {
  if (parse_bool(value, &(c.*k.member))) return true;
  return fail(error, std::string(f.name) + ": expected a boolean, got '" + value + "'");
}

// Envelope: every member exactly, by its stored type, with type checks but
// without the --set bounds (hand-built configs must reach children as is).

constexpr std::uint64_t max_ordinal(TopologyKind) {
  return static_cast<std::uint64_t>(TopologyKind::kRandomDisk);
}
constexpr std::uint64_t max_ordinal(TraceKind) {
  return static_cast<std::uint64_t>(TraceKind::kCrashloop);
}

template <typename T>
void render_value(const T& v, std::string* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out += '"' + jsonio::escape(v) + '"';
  } else if constexpr (std::is_same_v<T, double>) {
    *out += jsonio::fmt_double(v);
  } else if constexpr (std::is_same_v<T, bool>) {
    *out += v ? "true" : "false";
  } else if constexpr (std::is_enum_v<T>) {
    *out += std::to_string(static_cast<std::uint64_t>(v));
  } else {
    *out += std::to_string(v);
  }
}

template <typename T>
bool parse_value(jsonio::Cursor& cur, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    return cur.parse_string(out);
  } else if constexpr (std::is_same_v<T, double>) {
    return cur.parse_double(out);
  } else if constexpr (std::is_same_v<T, bool>) {
    return cur.parse_bool(out);
  } else if constexpr (std::is_enum_v<T>) {
    std::uint64_t v = 0;
    if (!cur.parse_u64(&v) || v > max_ordinal(T{})) return false;
    *out = static_cast<T>(v);
    return true;
  } else if constexpr (std::is_signed_v<T>) {
    std::int64_t v = 0;
    if (!cur.parse_i64(&v) || !std::in_range<T>(v)) return false;
    *out = static_cast<T>(v);
    return true;
  } else {
    std::uint64_t v = 0;
    if (!cur.parse_u64(&v) || !std::in_range<T>(v)) return false;
    *out = static_cast<T>(v);
    return true;
  }
}

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
    for (const Field& f : kFields) {
      if (f.settable) v.push_back(f.name);
    }
    return v;
  }();
  return names;
}

bool apply_field(ScenarioConfig& config, const std::string& field,
                 const std::string& value, std::string* error) {
  const Field* f = find_settable(field);
  if (f == nullptr) return fail(error, "unknown field '" + field + "'");
  return std::visit([&](const auto& k) { return set(*f, k, config, value, error); },
                    f->kind);
}

bool apply_overrides(ScenarioConfig& config, const std::string& overrides,
                     std::string* error) {
  // The axis grammar with single values; a repeated key would silently
  // shadow an earlier override, so it is rejected.
  std::vector<Axis> axes;
  if (!parse_grid(overrides, &axes, error)) return false;
  std::set<std::string> seen;
  for (const Axis& o : axes) {
    if (o.values.size() != 1) {
      return fail(error, o.field + ": exactly one value expected");
    }
    if (!seen.insert(o.field).second) {
      return fail(error, o.field + ": key appears twice");
    }
    if (!apply_field(config, o.field, o.values.front(), error)) return false;
  }
  return true;
}

void render_config_exact(const ScenarioConfig& config, std::string* out) {
  *out += '{';
  for (const Field& f : kFields) {
    if (&f != kFields) *out += ", ";
    *out += '"';
    *out += f.name;
    *out += "\": ";
    std::visit([&](const auto& k) { render_value(config.*k.member, out); }, f.kind);
  }
  *out += '}';
}

bool parse_config_exact(jsonio::Cursor& cur, ScenarioConfig* config) {
  return jsonio::parse_object(cur, [&](const std::string& name) {
    for (const Field& f : kFields) {
      if (name != f.name) continue;
      return std::visit(
          [&](const auto& k) { return parse_value(cur, &(config->*k.member)); }, f.kind);
    }
    return cur.skip_value();  // unknown keys: forward compat
  });
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
            std::holds_alternative<kind::Scheduler>(find_settable(axis.field)->kind)
                ? q.config.scheduler
                : value;
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

bool validate_points_trace(const std::vector<GridPoint>& points, std::string* error,
                           TraceFiles* files) {
  // One disk read + parse per unique trace file, however many points
  // reference it (a file axis crossed with other axes repeats each path).
  // The first failure ends the check, so only parsed files are kept.
  TraceFiles local;
  TraceFiles& parsed = files != nullptr ? *files : local;
  for (const GridPoint& point : points) {
    const ScenarioConfig& c = point.config;
    std::string trace_error;
    bool ok;
    if (c.trace_kind == TraceKind::kFile && !c.trace.empty()) {
      auto it = parsed.find(c.trace);
      Trace trace;
      if (it == parsed.end() && load_trace(c.trace, &trace, &trace_error)) {
        it = parsed.emplace(c.trace, std::move(trace)).first;
      }
      // Node ids are per point: the same file can be valid for one
      // topology axis value and not another.
      ok = it != parsed.end() &&
           validate_trace_nodes(it->second, c.make_topology(), &trace_error);
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
      jobs.push_back(make_job(point, seeds, s));
    }
  }
  return jobs;
}

Job make_job(const GridPoint& point, const std::vector<std::uint64_t>& seeds,
             std::size_t seed_index) {
  Job job;
  job.index = point.index * seeds.size() + seed_index;
  job.point_index = point.index;
  job.seed_index = seed_index;
  job.config = point.config;
  job.config.seed = seeds[seed_index];
  return job;
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

bool parse_bounded_double(const std::string& text, double lo, double hi,
                          double* out) {
  double v = 0;
  if (!parse_double(text, &v) || !(v >= lo && v <= hi)) return false;
  *out = v;
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
/// each path). A file validation already parsed is not read again; any
/// other is read and parsed once.
struct TraceContentCache {
  const TraceFiles* parsed = nullptr;
  std::map<std::string, std::string> content;
};

const std::string& canonical_trace_content(const std::string& path,
                                           TraceContentCache& cache) {
  auto [it, inserted] = cache.content.try_emplace(path);
  if (!inserted) return it->second;
  if (cache.parsed != nullptr) {
    if (const auto found = cache.parsed->find(path); found != cache.parsed->end()) {
      return it->second = format_trace(found->second);
    }
  }
  Trace t;
  std::string ignored;
  it->second = load_trace(path, &t, &ignored) ? format_trace(t) : "<unreadable>";
  return it->second;
}

// Fingerprint: integral, bool and enum members as u64, doubles as %.17g,
// strings as themselves; a file trace also mixes its canonical content.
void mix_field(Fingerprint& fp, const Field& f, const ScenarioConfig& c,
               TraceContentCache& cache) {
  std::visit(
      [&](const auto& k) {
        const auto& v = c.*k.member;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string> || std::is_same_v<T, double>) {
          fp.mix(v);
        } else {
          fp.mix(static_cast<std::uint64_t>(v));
        }
        if constexpr (std::is_same_v<std::decay_t<decltype(k)>, kind::TracePath>) {
          // Editing the file between runs must invalidate resume/merge like
          // any other config change. format_trace canonicalizes, so a
          // cosmetic rewrite (comments, whitespace) keeps resumability. An
          // unreadable file gets a sentinel; validation fails the campaign
          // before any job runs anyway.
          if (c.trace_kind == TraceKind::kFile && !v.empty()) {
            fp.mix(canonical_trace_content(v, cache));
          }
        }
      },
      f.kind);
}

}  // namespace

std::uint64_t campaign_fingerprint(const std::vector<GridPoint>& points,
                                   const std::vector<std::uint64_t>& seeds,
                                   const TraceFiles* files) {
  Fingerprint fp;
  TraceContentCache trace_cache{files, {}};
  for (const GridPoint& point : points) {
    fp.mix(point.label);
    for (const auto& [key, value] : point.coords) {
      fp.mix(key);
      fp.mix(value);
    }
    for (const Field& f : kFields) {
      if (f.fingerprinted) mix_field(fp, f, point.config, trace_cache);
    }
  }
  for (const std::uint64_t seed : seeds) fp.mix(seed);
  return fp.value();
}

}  // namespace gttsch::campaign
