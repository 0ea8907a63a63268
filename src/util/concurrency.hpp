// Worker-count resolution for the campaign runner, which runs one job per
// worker thread.
#pragma once

namespace gttsch {

/// Largest worker count an environment override may ask for: the cap the
/// campaign's --jobs flag takes.
inline constexpr int kMaxWorkerCount = 1'000'000;

/// Resolve a worker count from (explicit request, hardware report, env
/// override), in that precedence order. Pure so the clamping rules are
/// unit-testable:
///   * requested > 0 wins outright;
///   * otherwise an env value (e.g. GTTSCH_JOBS) of plain digits in
///     [1, kMaxWorkerCount] wins; anything else is ignored;
///   * otherwise the hardware report — which the standard permits to be 0,
///     in which case the answer is 1, never 0 workers.
int resolve_worker_count(int requested, unsigned hardware_threads,
                         const char* env_value);

/// resolve_worker_count with live inputs: getenv(env_name) and
/// std::thread::hardware_concurrency().
int default_worker_count(int requested = 0, const char* env_name = "GTTSCH_JOBS");

}  // namespace gttsch
