// One simulated run assembled from the library's public pieces, the same
// way run_scenario assembles it, so set-up, formation and the steady
// window can be timed apart and every layer's counters read in between.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace gttsch {
class Network;
}

namespace perfbench {

/// Each phase (formation; measured window plus drain) is stepped in this
/// many equal slices of simulated time, each timed on its own. Stepping in
/// slices runs exactly the same events as one run_until.
inline constexpr int kPhaseChunks = 20;

/// Wall times of one phase's slices and the host slowdown (host_slowdown)
/// measured next to each.
struct PhaseTiming {
  std::vector<double> walls;
  std::vector<double> slowdowns;
};

struct RunOptions {
  /// Set-ups timed back to back before the run; all but the last are torn
  /// down unrun, and setup_s is their median.
  int setup_reps = 1;
  /// Attach a telemetry recorder: 1 s gauges, no probes. zoo-sweep jobs
  /// always carry one; the traced run's keeps every structured event.
  bool telemetry = false;
  /// Traced run: unbounded event trace, counting link-model decorator.
  bool traced = false;
  bool replays = false;  ///< traced: time the replays on the end state
  /// Probe the host before every slice; otherwise once per phase (short
  /// zoo-sweep jobs, where a probe per slice would cost more than the slice).
  bool probe_each_slice = true;
  std::string telemetry_path;  ///< telemetry: JSONL destination ("" = not written)
};

struct RunReport {
  gttsch::ExperimentResult result;  ///< what run_scenario would return
  Values timings;   ///< setup_s, scenario.*_s, formation/steady wall, events/s
  std::vector<double> setup_samples;     ///< wall s of each set-up
  PhaseTiming formation;
  PhaseTiming steady;
  Values counts;    ///< deterministic per-layer counts
  Values traced;    ///< telemetry and traced-only values (link model, replays)
  Usage usage;      ///< CPU and peak RSS right after the measured run
};

RunReport run_assembled(const gttsch::ScenarioConfig& config, const RunOptions& options);

/// Times public hot functions on a finished run's end state: OneShotTimer
/// re-arm plus fire against the run's pending-event population,
/// Medium::busy_until and Medium::start_transmission at the end positions,
/// TschSchedule::next_active_asn over every node's end schedule.
Values replay_timings(gttsch::Network& net, const gttsch::ScenarioConfig& config);

/// Sums `add` into `into` by name (names missing from `into` are appended).
void accumulate(Values& into, const Values& add);

}  // namespace perfbench
