#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

enum class SweepMode {
  kTimed,      ///< jobs run the assembled run with telemetry attached
  kTraced,     ///< jobs run the traced assembly; job 0 also runs the replays
  kReference,  ///< jobs run run_scenario with telemetry, as gt_campaign does
};

/// One repetition of the zoo-sweep workload. Settings: `grid`, `seeds`,
/// `jobs` (workers), `setup_reps`. Writes the journal, per-job telemetry
/// and reports under `work_dir`; returns the result as one JSON object
/// with per-layer values summed over jobs (averaged for mean values).
std::string run_sweep(const BenchConfig& config, const std::string& work_dir, SweepMode mode);

}  // namespace perfbench
