#include "scenario/trace.hpp"

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string_view>
#include <system_error>
#include <utility>

#include "phy/dynamic_link.hpp"
#include "scenario/network.hpp"
#include "stats/telemetry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace gttsch {
namespace {

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

std::string at_line(int line, const std::string& message) {
  if (line <= 0) return message;
  return "line " + std::to_string(line) + ": " + message;
}

/// For a decimal that from_chars rounded to +-DBL_MIN: whether it is tiny
/// all the same, i.e. below DBL_MIN once rounded to 53 bits with an
/// unbounded exponent (IEEE tininess after rounding, as glibc judges
/// underflow). Doubling the decimal moves that rounding into the normal
/// range, where from_chars does it: 2x rounds below 2 * DBL_MIN exactly
/// when x is tiny. Only this one value per sign needs it, and its leading
/// digit is 2, so no carry leaves the top digit.
bool tiny_after_rounding(std::string_view text) {
  std::string twice(text);
  const std::size_t mantissa_end = std::min(twice.find_first_of("eE"), twice.size());
  int carry = 0;
  for (std::size_t i = mantissa_end; i-- > 0;) {
    char& c = twice[i];
    if (c < '0' || c > '9') continue;
    const int d = 2 * (c - '0') + carry;
    c = static_cast<char>('0' + d % 10);
    carry = d / 10;
  }
  double v = 0;
  std::from_chars(twice.data(), twice.data() + twice.size(), v);
  return std::abs(v) < 2 * DBL_MIN;
}

/// The grammar's number (trace.hpp): plain decimal/scientific notation with
/// an optional sign, fully consumed, finite, and zero or normal. from_chars
/// reads no hex in its general format, and its only other spellings are
/// inf and nan, which the finiteness check refuses; overflow is its range
/// error. It takes no leading '+', so one is stripped here (and a second
/// sign after it refused), and it returns subnormals rather than a range
/// error, so they are refused here.
bool parse_finite_double(std::string_view text, double* out) {
  const char* first = text.data();
  const char* const last = first + text.size();
  if (first != last && *first == '+') {
    ++first;
    if (first != last && (*first == '+' || *first == '-')) return false;
  }
  double v = 0;
  const auto [end, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || end != last || !std::isfinite(v)) return false;
  const double magnitude = std::abs(v);
  if (magnitude != 0 && (magnitude < DBL_MIN ||
                         (magnitude == DBL_MIN &&
                          tiny_after_rounding(std::string_view(first, last - first))))) {
    return false;
  }
  *out = v;
  return true;
}

bool parse_node_id(std::string_view text, NodeId* out) {
  if (text.empty() || text.size() > 5) return false;
  unsigned v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<unsigned>(c - '0');
  }
  if (v > kMaxTraceNodeId) return false;
  *out = static_cast<NodeId>(v);
  return true;
}

/// A line's first whitespace-separated fields, as views into the line. The
/// longest event has five; a sixth is kept only so arity checks see it.
struct Tokens {
  static constexpr std::size_t kMax = 6;
  std::string_view field[kMax];
  std::size_t count = 0;

  std::string_view operator[](std::size_t i) const { return field[i]; }
};

Tokens split_whitespace(std::string_view line) {
  // '\r' counts as whitespace so CRLF trace files parse identically to LF.
  const auto is_space = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  Tokens tokens;
  std::size_t i = 0;
  while (i < line.size() && tokens.count < Tokens::kMax) {
    while (i < line.size() && is_space(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > start) tokens.field[tokens.count++] = line.substr(start, i - start);
  }
  return tokens;
}

/// Microsecond-exact time formatting ("35.000000"); the parsing direction
/// (parse_finite_double + llround(v * 1e6)) reproduces the exact TimeUs for
/// any value within kMaxTraceSeconds, so format/parse round trips are lossless.
std::string format_time(TimeUs at) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%06lld",
                static_cast<long long>(at / 1000000),
                static_cast<long long>(at % 1000000));
  return buf;
}

std::string format_coord(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Canonical unordered key for a link's pause/resume bookkeeping.
std::pair<NodeId, NodeId> link_key(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

struct Bounds {
  double min_x = 0, max_x = 0, min_y = 0, max_y = 0;
};

/// Deployment bounding box plus a margin, so movers may roam a little
/// beyond the initial placements without escaping to infinity.
Bounds walk_bounds(const TopologySpec& topology) {
  Bounds b;
  bool first = true;
  for (const NodeSpec& n : topology.nodes) {
    if (first) {
      b.min_x = b.max_x = n.pos.x;
      b.min_y = b.max_y = n.pos.y;
      first = false;
      continue;
    }
    b.min_x = std::min(b.min_x, n.pos.x);
    b.max_x = std::max(b.max_x, n.pos.x);
    b.min_y = std::min(b.min_y, n.pos.y);
    b.max_y = std::max(b.max_y, n.pos.y);
  }
  const double margin =
      std::max(10.0, 0.15 * std::max(b.max_x - b.min_x, b.max_y - b.min_y));
  b.min_x -= margin;
  b.max_x += margin;
  b.min_y -= margin;
  b.max_y += margin;
  return b;
}

double clamp(double v, double lo, double hi) { return std::min(std::max(v, lo), hi); }

/// Uniform direction via rejection sampling in the unit disk: avoids libm
/// trig (whose rounding varies across libms) so generated streams are
/// bit-portable. Returns a vector of length `step`.
void random_step(Rng& rng, double step, double* dx, double* dy) {
  double x = 0, y = 0, n2 = 0;
  do {
    x = rng.uniform_double(-1.0, 1.0);
    y = rng.uniform_double(-1.0, 1.0);
    n2 = x * x + y * y;
  } while (n2 > 1.0 || n2 < 1e-12);
  const double scale = step / std::sqrt(n2);
  *dx = x * scale;
  *dy = y * scale;
}

bool is_link_event(TraceEventKind kind) {
  return kind == TraceEventKind::kPrr || kind == TraceEventKind::kPause ||
         kind == TraceEventKind::kResume;
}

}  // namespace

bool Trace::has_failures() const {
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::kFail) return true;
  }
  return false;
}

bool Trace::needs_dynamic_model() const {
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::kMove) return true;
  }
  return false;
}

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kNone:
      return "none";
    case TraceKind::kFile:
      return "file";
    case TraceKind::kRandomWalk:
      return "random-walk";
    case TraceKind::kRandomWaypoint:
      return "random-waypoint";
    case TraceKind::kCrashloop:
      return "crashloop";
  }
  return "?";
}

bool parse_trace_kind(const std::string& text, TraceKind* out) {
  for (const TraceKind kind :
       {TraceKind::kNone, TraceKind::kFile, TraceKind::kRandomWalk,
        TraceKind::kRandomWaypoint, TraceKind::kCrashloop}) {
    if (text == trace_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool parse_trace(const std::string& text, Trace* out, std::string* error) {
  out->events.clear();
  out->events.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1);
  int line_no = 0;
  TimeUs last_at = 0;
  // Liveness per node (present = currently dead) and blackout state per
  // unordered link, so the grammar can reject events on dead nodes,
  // revivals of the living, and unbalanced pause/resume pairs.
  struct FailureSite {
    int line = 0;
    TimeUs at = 0;
  };
  std::map<NodeId, FailureSite> dead;
  std::map<std::pair<NodeId, NodeId>, int> paused_on_line;
  const std::string_view all = text;
  for (std::size_t next = 0; next < all.size();) {
    const std::size_t eol = std::min(all.find('\n', next), all.size());
    std::string_view line = all.substr(next, eol - next);
    next = eol + 1;
    ++line_no;
    line = line.substr(0, line.find('#'));
    const Tokens tokens = split_whitespace(line);
    if (tokens.count == 0) continue;
    const auto err = [&](const std::string& message) {
      return fail(error, at_line(line_no, message));
    };
    const auto quoted = [&](std::size_t i) {
      std::string q(1, '\'');
      q.append(tokens[i]);
      return q += '\'';
    };
    if (tokens.count < 2) {
      return err(
          "expected '<t> move|fail|revive|prr|pause|resume ...' (see the trace "
          "grammar)");
    }
    double t_s = 0;
    if (!parse_finite_double(tokens[0], &t_s) || t_s < 0 || t_s > kMaxTraceSeconds) {
      return err("bad timestamp " + quoted(0) + " (expected seconds in [0, 1e9])");
    }
    TraceEvent event;
    event.at = static_cast<TimeUs>(std::llround(t_s * 1e6));
    event.line = line_no;
    if (!out->events.empty() && event.at < last_at) {
      return err("timestamp " + std::string(tokens[0]) +
                 " goes backwards (previous event at " + format_time(last_at) + " s)");
    }
    const std::string_view keyword = tokens[1];
    if (keyword == "move") {
      if (tokens.count != 5) {
        return err("move takes exactly '<t> move <node> <x> <y>'");
      }
      event.kind = TraceEventKind::kMove;
      if (!parse_node_id(tokens[2], &event.node)) {
        return err("bad node id " + quoted(2));
      }
      double coords[2] = {0, 0};
      for (std::size_t c = 0; c < 2; ++c) {
        if (!parse_finite_double(tokens[3 + c], &coords[c]) ||
            std::abs(coords[c]) > kMaxTraceCoordinate) {
          return err("coordinate " + quoted(3 + c) +
                     " is not a number in [-1e6, 1e6]");
        }
      }
      event.pos = Position{coords[0], coords[1]};
    } else if (keyword == "fail" || keyword == "revive") {
      if (tokens.count != 3) {
        const std::string kw(keyword);
        return err(kw + " takes exactly '<t> " + kw + " <node>'");
      }
      event.kind =
          keyword == "fail" ? TraceEventKind::kFail : TraceEventKind::kRevive;
      if (!parse_node_id(tokens[2], &event.node)) {
        return err("bad node id " + quoted(2));
      }
    } else if (keyword == "prr" || keyword == "pause" || keyword == "resume") {
      const std::size_t arity = keyword == "prr" ? 5 : 4;
      if (tokens.count != arity) {
        const std::string kw(keyword);
        return err(kw + " takes exactly '<t> " + kw + " <a> <b>" +
                   (keyword == "prr" ? " <value>'" : "'"));
      }
      event.kind = keyword == "prr"     ? TraceEventKind::kPrr
                   : keyword == "pause" ? TraceEventKind::kPause
                                        : TraceEventKind::kResume;
      if (!parse_node_id(tokens[2], &event.node)) {
        return err("bad node id " + quoted(2));
      }
      if (!parse_node_id(tokens[3], &event.peer)) {
        return err("bad node id " + quoted(3));
      }
      if (event.node == event.peer) {
        return err("link endpoints must differ (got " + std::string(tokens[2]) + " " +
                   std::string(tokens[3]) + ")");
      }
      if (keyword == "prr") {
        if (!parse_finite_double(tokens[4], &event.value) || event.value < 0.0 ||
            event.value > 1.0) {
          return err("prr value " + quoted(4) + " is not a number in [0, 1]");
        }
      }
    } else {
      return err("unknown event " + quoted(1) +
                 " (expected move, fail, revive, prr, pause or resume)");
    }

    // Lifecycle checks: no events touch a dead node (revive excepted),
    // revive requires a strictly earlier fail, pause/resume must balance.
    const auto reject_dead = [&](NodeId id) {
      const auto it = dead.find(id);
      if (it == dead.end()) return true;
      return err("node " + std::to_string(id) + " already failed on line " +
                 std::to_string(it->second.line));
    };
    switch (event.kind) {
      case TraceEventKind::kFail:
        if (!reject_dead(event.node)) return false;
        dead[event.node] = FailureSite{line_no, event.at};
        break;
      case TraceEventKind::kRevive: {
        const auto it = dead.find(event.node);
        if (it == dead.end()) {
          return err("revive of node " + std::to_string(event.node) +
                     " without a prior fail");
        }
        if (event.at <= it->second.at) {
          return err("revive must come strictly after the failure on line " +
                     std::to_string(it->second.line));
        }
        dead.erase(it);
        break;
      }
      default:
        if (!reject_dead(event.node)) return false;
        if (is_link_event(event.kind) && !reject_dead(event.peer)) return false;
        break;
    }
    if (event.kind == TraceEventKind::kPause) {
      const auto key = link_key(event.node, event.peer);
      const auto it = paused_on_line.find(key);
      if (it != paused_on_line.end()) {
        return err("link " + std::to_string(event.node) + "<->" +
                   std::to_string(event.peer) + " already paused on line " +
                   std::to_string(it->second));
      }
      paused_on_line[key] = line_no;
    } else if (event.kind == TraceEventKind::kResume) {
      const auto key = link_key(event.node, event.peer);
      if (paused_on_line.erase(key) == 0) {
        return err("resume of link " + std::to_string(event.node) + "<->" +
                   std::to_string(event.peer) + " without a matching pause");
      }
    }
    last_at = event.at;
    out->events.push_back(event);
  }
  return true;
}

bool load_trace(const std::string& path, Trace* out, std::string* error) {
  // One read into a buffer sized up front. file_size also refuses what is
  // not a regular file (a directory would otherwise read as an empty trace).
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  std::ifstream file(path, std::ios::binary);
  if (size_error || !file) return fail(error, "cannot read trace file '" + path + "'");
  std::string content(static_cast<std::size_t>(size), '\0');
  if (!file.read(content.data(), static_cast<std::streamsize>(size))) {
    return fail(error, "cannot read trace file '" + path + "'");
  }
  if (!parse_trace(content, out, error)) {
    return fail(error, path + ": " + (error != nullptr ? *error : ""));
  }
  return true;
}

std::string format_trace(const Trace& trace) {
  std::string out;
  for (const TraceEvent& e : trace.events) {
    out += format_time(e.at);
    switch (e.kind) {
      case TraceEventKind::kMove:
        out += " move " + std::to_string(e.node) + ' ' + format_coord(e.pos.x) +
               ' ' + format_coord(e.pos.y);
        break;
      case TraceEventKind::kFail:
        out += " fail " + std::to_string(e.node);
        break;
      case TraceEventKind::kRevive:
        out += " revive " + std::to_string(e.node);
        break;
      case TraceEventKind::kPrr:
        out += " prr " + std::to_string(e.node) + ' ' + std::to_string(e.peer) +
               ' ' + format_coord(e.value);
        break;
      case TraceEventKind::kPause:
        out += " pause " + std::to_string(e.node) + ' ' + std::to_string(e.peer);
        break;
      case TraceEventKind::kResume:
        out += " resume " + std::to_string(e.node) + ' ' + std::to_string(e.peer);
        break;
    }
    out += '\n';
  }
  return out;
}

bool save_trace(const std::string& path, const Trace& trace, std::string* error) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return fail(error, "cannot write trace file '" + path + "'");
  file << format_trace(trace);
  file.flush();
  if (!file) return fail(error, "cannot write trace file '" + path + "'");
  return true;
}

bool validate_trace_nodes(const Trace& trace, const TopologySpec& topology,
                          std::string* error) {
  std::vector<NodeId> known;
  known.reserve(topology.nodes.size());
  for (const NodeSpec& n : topology.nodes) known.push_back(n.id);
  std::sort(known.begin(), known.end());
  const auto check = [&](const TraceEvent& e, NodeId id) {
    if (std::binary_search(known.begin(), known.end(), id)) return true;
    return fail(error, at_line(e.line, "unknown node id " + std::to_string(id) +
                                           " (topology has " +
                                           std::to_string(topology.nodes.size()) +
                                           " nodes)"));
  };
  for (const TraceEvent& e : trace.events) {
    if (!check(e, e.node)) return false;
    if (is_link_event(e.kind) && !check(e, e.peer)) return false;
  }
  return true;
}

Trace generate_trace(TraceKind kind, const TopologySpec& topology,
                     const TraceGenParams& params) {
  GTTSCH_CHECK(kind == TraceKind::kRandomWalk || kind == TraceKind::kRandomWaypoint ||
               kind == TraceKind::kCrashloop);
  GTTSCH_CHECK(params.interval_s > 0 && std::isfinite(params.interval_s));
  GTTSCH_CHECK(params.speed_mps >= 0 && std::isfinite(params.speed_mps));
  GTTSCH_CHECK(params.movers >= 0 && params.fail_count >= 0);
  GTTSCH_CHECK(params.fail_count == 0 ||
               (params.fail_at_s >= 0 && std::isfinite(params.fail_at_s)));

  Trace out;
  // Non-root candidates in ascending id order, so the selection below is a
  // pure function of (topology, seed).
  std::vector<NodeSpec> candidates;
  for (const NodeSpec& n : topology.nodes) {
    if (!n.is_root) candidates.push_back(n);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const NodeSpec& a, const NodeSpec& b) { return a.id < b.id; });
  if (candidates.empty()) return out;

  Rng rng(params.seed);
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);

  const std::size_t n_movers =
      std::min<std::size_t>(static_cast<std::size_t>(params.movers), order.size());
  const std::size_t n_fails =
      std::min<std::size_t>(static_cast<std::size_t>(params.fail_count), order.size());
  const TimeUs interval_us =
      std::max<TimeUs>(1, static_cast<TimeUs>(std::llround(params.interval_s * 1e6)));

  if (kind == TraceKind::kCrashloop) {
    // Staggered fail -> revive cycles; no mobility. Each crasher first
    // fails one tick after the previous one, stays down for down_s, and
    // re-crashes every cycle_s until the window closes. A revive that
    // would land at/after `end` is dropped: the node stays dead.
    GTTSCH_CHECK(params.down_s > 0 && std::isfinite(params.down_s));
    GTTSCH_CHECK(params.cycle_s > params.down_s && std::isfinite(params.cycle_s));
    const TimeUs down_us =
        std::max<TimeUs>(1, static_cast<TimeUs>(std::llround(params.down_s * 1e6)));
    const TimeUs cycle_us = std::max<TimeUs>(
        down_us + 1, static_cast<TimeUs>(std::llround(params.cycle_s * 1e6)));
    for (std::size_t i = 0; i < n_fails; ++i) {
      const NodeId id = candidates[order[order.size() - 1 - i]].id;
      TimeUs t_fail = static_cast<TimeUs>(std::llround(params.fail_at_s * 1e6)) +
                      static_cast<TimeUs>(i) * interval_us;
      while (t_fail < params.end) {
        out.events.push_back(TraceEvent{t_fail, TraceEventKind::kFail, id, 0,
                                        Position{}, 0.0, 0});
        const TimeUs t_revive = t_fail + down_us;
        if (t_revive >= params.end) break;
        out.events.push_back(TraceEvent{t_revive, TraceEventKind::kRevive, id, 0,
                                        Position{}, 0.0, 0});
        t_fail += cycle_us;
      }
    }
    std::stable_sort(
        out.events.begin(), out.events.end(),
        [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
    return out;
  }

  // Failing nodes come from the *end* of the shuffled order, so they only
  // overlap the movers (drawn from the front) when fail_count + movers
  // exceeds the population. The i-th failure is staggered one tick apart.
  std::map<NodeId, TimeUs> fail_time;
  for (std::size_t i = 0; i < n_fails; ++i) {
    const NodeId id = candidates[order[order.size() - 1 - i]].id;
    const TimeUs at = static_cast<TimeUs>(std::llround(params.fail_at_s * 1e6)) +
                      static_cast<TimeUs>(i) * interval_us;
    fail_time[id] = at;
  }

  struct MoverState {
    NodeId id;
    Position pos;
    Position target;
    bool has_target = false;
    Rng rng;
  };
  std::vector<MoverState> movers;
  for (std::size_t i = 0; i < n_movers; ++i) {
    const NodeSpec& spec = candidates[order[i]];
    movers.push_back(MoverState{spec.id, spec.pos, Position{}, false, rng.fork(spec.id)});
  }

  const Bounds bounds = walk_bounds(topology);
  const double step = params.speed_mps * params.interval_s;
  for (TimeUs t = params.start + interval_us; t < params.end; t += interval_us) {
    for (MoverState& m : movers) {
      const auto dies = fail_time.find(m.id);
      if (dies != fail_time.end() && t >= dies->second) continue;  // dead men don't walk
      if (kind == TraceKind::kRandomWalk) {
        double dx = 0, dy = 0;
        random_step(m.rng, step, &dx, &dy);
        m.pos.x = clamp(m.pos.x + dx, bounds.min_x, bounds.max_x);
        m.pos.y = clamp(m.pos.y + dy, bounds.min_y, bounds.max_y);
      } else {
        if (!m.has_target) {
          m.target = Position{m.rng.uniform_double(bounds.min_x, bounds.max_x),
                              m.rng.uniform_double(bounds.min_y, bounds.max_y)};
          m.has_target = true;
        }
        const double dx = m.target.x - m.pos.x;
        const double dy = m.target.y - m.pos.y;
        const double dist = std::sqrt(dx * dx + dy * dy);
        if (dist <= step) {
          m.pos = m.target;
          m.has_target = false;  // next tick heads for a fresh waypoint
        } else {
          m.pos.x += dx * (step / dist);
          m.pos.y += dy * (step / dist);
        }
      }
      out.events.push_back(
          TraceEvent{t, TraceEventKind::kMove, m.id, 0, m.pos, 0.0, 0});
    }
  }

  for (const auto& [id, at] : fail_time) {
    if (at < params.end) {
      out.events.push_back(
          TraceEvent{at, TraceEventKind::kFail, id, 0, Position{}, 0.0, 0});
    }
  }
  // Moves were emitted tick-major (already time-sorted); a stable sort
  // threads the failures in while preserving the per-tick mover order.
  std::stable_sort(out.events.begin(), out.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
  return out;
}

TracePlayer::TracePlayer(Network& net, Trace trace, DynamicLinkModel* failures)
    : net_(net), trace_(std::move(trace)), failures_(failures) {}

void TracePlayer::start() {
  GTTSCH_CHECK(!started_);
  started_ = true;
  for (const TraceEvent& e : trace_.events) {
    for (const NodeId id : {e.node, is_link_event(e.kind) ? e.peer : e.node}) {
      if (net_.nodes().count(id) != 0) continue;
      std::fprintf(stderr, "TracePlayer: %s\n",
                   at_line(e.line, "unknown node id " + std::to_string(id)).c_str());
      GTTSCH_CHECK(false && "trace addresses a node the network does not have");
    }
    if (failures_ == nullptr) continue;
    switch (e.kind) {
      case TraceEventKind::kFail:
        failures_->kill_node(e.at, e.node);
        break;
      case TraceEventKind::kRevive:
        failures_->revive_node(e.at, e.node);
        break;
      case TraceEventKind::kPrr:
        failures_->override_prr(e.at, e.node, e.peer, e.value, /*symmetric=*/false);
        break;
      case TraceEventKind::kPause:
        failures_->override_prr(e.at, e.node, e.peer, 0.0, /*symmetric=*/true);
        break;
      case TraceEventKind::kResume:
        failures_->clear_override(e.at, e.node, e.peer);
        break;
      case TraceEventKind::kMove:
        break;
    }
  }
  // All events are scheduled up front (not chained): their queue insertion
  // order is then fixed by the trace alone, so same-instant ties against
  // other default-key events resolve identically whatever the stepping
  // mode — the fast-path bit-equivalence tests lean on this.
  for (const TraceEvent& e : trace_.events) {
    net_.sim().at(e.at, [this, &e] { apply(e); });
  }
}

void TracePlayer::apply(const TraceEvent& event) {
  Node& node = net_.node(event.node);
  Telemetry* telemetry = net_.telemetry();
  switch (event.kind) {
    case TraceEventKind::kMove:
      node.move_to(event.pos);
      if (telemetry != nullptr)
        telemetry->on_trace_move(event.node, event.pos.x, event.pos.y);
      break;
    case TraceEventKind::kFail:
      node.fail();
      if (telemetry != nullptr) telemetry->on_trace_fail(event.node);
      break;
    case TraceEventKind::kRevive:
      node.reboot();
      if (telemetry != nullptr) telemetry->on_trace_revive(event.node);
      break;
    case TraceEventKind::kPrr:
      if (telemetry != nullptr)
        telemetry->on_trace_prr(event.node, event.peer, event.value);
      break;
    case TraceEventKind::kPause:
      if (telemetry != nullptr) telemetry->on_trace_pause(event.node, event.peer);
      break;
    case TraceEventKind::kResume:
      if (telemetry != nullptr) telemetry->on_trace_resume(event.node, event.peer);
      break;
  }
  ++applied_;
}

}  // namespace gttsch
