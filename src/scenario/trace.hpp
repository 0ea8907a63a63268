// First-class fault-injection traces: a time-ordered event stream that
// drives a scenario's dynamics — parsed from a line-oriented text file
// with strict validation, or synthesized by deterministic generators
// (random-walk, random-waypoint, crashloop) — plus a TracePlayer that
// schedules the events into a running Network.
//
// File grammar (one event per line; `#` starts a comment; timestamps are
// seconds of simulated time and must be non-decreasing):
//   <t_s> move <node> <x> <y>     relocate node to (x, y) meters
//   <t_s> fail <node>             node dies (stack halts, radio silent)
//   <t_s> revive <node>           crash-reboot a failed node: fresh
//                                 MAC/RPL/SF state, re-associates from scan
//   <t_s> prr <a> <b> <value>     scripted link quality: the a->b link
//                                 delivers with probability <value> in [0,1]
//   <t_s> pause <a> <b>           blackout the a<->b link (both directions)
//   <t_s> resume <a> <b>          end the blackout: a<->b reverts to the
//                                 base model (clears scripted prr too)
// Numbers (<t_s>, <x>, <y>, <value>) are plain decimal or scientific
// notation ("12", "-7.25", ".5", "5.", "1E+5") with an optional sign; hex,
// inf and nan spellings are not numbers. The value must be finite and
// either zero or normal: a number that overflows, or whose magnitude is
// below 2^-1022 (about 2.2250738585072014e-308) once rounded to 53 bits
// with an unbounded exponent (a subnormal), is rejected. Node ids are 1-5
// decimal digits.
// Every malformed line — bad keyword, wrong arity, non-numeric field,
// backwards timestamp, out-of-range coordinate or prr, reserved node id,
// event on a dead node or link, revive without a prior fail, resume
// without a matching pause — is rejected with its line number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "phy/geometry.hpp"
#include "scenario/topology.hpp"
#include "util/types.hpp"

namespace gttsch {

class Network;
class DynamicLinkModel;

/// How a scenario's trace is produced. kNone = static run; kFile plays a
/// trace file; the generator kinds synthesize a deterministic stream.
enum class TraceKind : std::uint8_t {
  kNone,
  kFile,
  kRandomWalk,
  kRandomWaypoint,
  kCrashloop,
};

const char* trace_kind_name(TraceKind kind);
bool parse_trace_kind(const std::string& text, TraceKind* out);

enum class TraceEventKind : std::uint8_t { kMove, kFail, kRevive, kPrr, kPause, kResume };

struct TraceEvent {
  TimeUs at = 0;
  TraceEventKind kind = TraceEventKind::kMove;
  NodeId node = 0;
  NodeId peer = 0;    ///< kPrr/kPause/kResume: the link's other endpoint
  Position pos;       ///< kMove only
  double value = 0.0; ///< kPrr only: delivery probability in [0, 1]
  int line = 0;       ///< source line for parsed traces (0 = generated)

  /// Equality over the event's *content* (source line excluded), so a
  /// generated trace and its file round trip compare equal.
  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    return a.at == b.at && a.kind == b.kind && a.node == b.node && a.peer == b.peer &&
           a.pos.x == b.pos.x && a.pos.y == b.pos.y && a.value == b.value;
  }
};

struct Trace {
  std::vector<TraceEvent> events;  ///< non-decreasing by `at`

  bool empty() const { return events.empty(); }
  bool has_failures() const;
  /// True when playback needs a DynamicLinkModel wrapper: any event kind
  /// that manipulates node liveness or link quality (everything but move).
  bool needs_dynamic_model() const;
};

/// Largest node id a trace may address (kNoNode / kBroadcastId reserved).
inline constexpr NodeId kMaxTraceNodeId = 0xFFFD;
/// Coordinates beyond this magnitude are rejected as malformed.
inline constexpr double kMaxTraceCoordinate = 1e6;
/// Timestamps beyond this many seconds are rejected as malformed.
inline constexpr double kMaxTraceSeconds = 1e9;

/// Parses the file grammar above. On failure returns false with `error`
/// naming the offending line ("line N: ...").
bool parse_trace(const std::string& text, Trace* out, std::string* error);

/// parse_trace over a file's contents; unreadable paths fail with the path
/// in `error`.
bool load_trace(const std::string& path, Trace* out, std::string* error);

/// Serializes a trace back to the file grammar. Microsecond-exact times
/// and %.17g coordinates: parse_trace(format_trace(t)) reproduces every
/// event bit for bit.
std::string format_trace(const Trace& trace);

bool save_trace(const std::string& path, const Trace& trace, std::string* error);

/// Checks that every event addresses nodes of `topology`; reports the
/// offending line number for parsed traces.
bool validate_trace_nodes(const Trace& trace, const TopologySpec& topology,
                          std::string* error);

/// Knobs for the synthetic generators. Movers and failing nodes are drawn
/// deterministically from the topology's non-root nodes; every position in
/// the emitted stream follows from `seed` alone (IEEE arithmetic only — no
/// libm trig — so streams are portable across hosts).
struct TraceGenParams {
  std::uint64_t seed = 1;
  int movers = 0;
  double speed_mps = 1.5;    ///< step length per tick = speed * interval
  double interval_s = 2.0;   ///< tick period (> 0)
  int fail_count = 0;
  double fail_at_s = 0.0;    ///< first failure (absolute sim seconds)
  double down_s = 30.0;      ///< crashloop: fail -> revive gap (> 0)
  double cycle_s = 120.0;    ///< crashloop: fail -> next fail period (> down_s)
  TimeUs start = 0;          ///< first move tick lands at start + interval
  TimeUs end = 0;            ///< no events at/after this time
};

/// Synthesizes a trace (`kind` selects the preset):
///   random-walk:     each mover steps `speed * interval` in a uniformly
///                    random direction every tick, clamped to the
///                    deployment bounding box (plus margin).
///   random-waypoint: each mover heads to a uniformly drawn waypoint at
///                    `speed`, picking a fresh waypoint on arrival.
///   crashloop:       `fail_count` nodes crash-reboot on staggered cycles:
///                    the i-th crasher first fails at fail_at_s +
///                    i * interval_s, revives down_s later, and fails
///                    again every cycle_s until `end` (a node whose
///                    revive would land at/after `end` stays dead).
/// For the mobility kinds the i-th failing node dies at `fail_at_s +
/// i * interval_s` and a mover that fails stops moving at its failure
/// time. Same params ⇒ the same event stream, independent of host/build.
Trace generate_trace(TraceKind kind, const TopologySpec& topology,
                     const TraceGenParams& params);

/// Schedules a trace's events into a network: moves via Node::move_to,
/// failures via Node::fail, revivals via Node::reboot — plus the matching
/// DynamicLinkModel calls (kill_node / revive_node / override_prr /
/// clear_override) when a dynamic model is supplied, so in-flight frames
/// and link quality change at the same instant the stacks do. All events
/// are scheduled up front by start() (default event key: slot boundaries
/// keyed lower still run first at equal times), which keeps replay
/// bit-identical between fast-path and per-slot stepping. The player must
/// outlive the simulation run.
class TracePlayer {
 public:
  TracePlayer(Network& net, Trace trace, DynamicLinkModel* failures = nullptr);

  /// Validates node ids against the live network (aborts on unknown ids —
  /// call validate_trace_nodes first for a recoverable error), registers
  /// the link-model hooks, and schedules every event. Call once, after
  /// Network::start() (or before; events only need at >= now).
  void start();

  std::size_t applied() const { return applied_; }

 private:
  void apply(const TraceEvent& event);

  Network& net_;
  Trace trace_;
  DynamicLinkModel* failures_;
  std::size_t applied_ = 0;
  bool started_ = false;
};

}  // namespace gttsch
