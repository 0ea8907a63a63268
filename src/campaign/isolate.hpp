// Process isolation for campaign jobs (--isolate): each job runs in a
// forked+exec'd child re-entering the campaign tool via the hidden
// `gt_campaign run-job` protocol, so a segfault, OOM kill, or livelocked
// simulation takes down one job instead of the whole campaign.
//
// Protocol (all single JSON lines over the child's stdin/stdout):
//   parent -> child : JobEnvelope (point/seed identity + the exact
//                     ScenarioConfig as render_config_exact writes it:
//                     doubles at %.17g, times in µs)
//   child  -> parent: one journal-record line (render_journal_line) whose
//                     metrics are bit-identical to an in-process
//                     run_scenario of the same config.
// The parent classifies the child's fate via waitpid: signal death ->
// kCrashed, wall-clock watchdog expiry -> SIGKILL + kTimeout, nonzero
// exit or protocol breakage -> kFailed.
#pragma once

#include <cstdio>
#include <string>

#include "campaign/runner.hpp"
#include "scenario/experiment.hpp"

namespace gttsch::campaign {

/// Everything a child process needs to execute one job and label its
/// result: the grid identity plus the full resolved config (including the
/// per-job seed).
struct JobEnvelope {
  std::size_t point_index = 0;
  std::size_t seed_index = 0;
  std::string label;  ///< grid-point label (drives the GTTSCH_CHAOS_POINT hook)
  ScenarioConfig config;
};

/// Renders the envelope as a single JSON line (no trailing newline). The
/// config goes through render_config_exact (campaign/spec.hpp), which
/// serializes every ScenarioConfig member exactly.
std::string render_job_envelope(const JobEnvelope& envelope);

/// Inverse of render_job_envelope. Returns false (with `error` set when
/// non-null) on malformed input; never throws.
bool parse_job_envelope(const std::string& line, JobEnvelope* out,
                        std::string* error);

/// Parent side: runs one job in a fresh child process (`exec_path` must
/// re-enter this protocol when invoked as `exec_path run-job`). Blocks
/// until the child exits or `timeout_s` wall seconds elapse (then SIGKILL
/// -> kTimeout; timeout_s <= 0 waits forever). Never throws; every
/// failure mode maps to a non-ok JobOutcome with `detail` explaining it.
/// Thread-safe: campaign workers call this concurrently.
JobOutcome run_job_isolated(const std::string& exec_path, double timeout_s,
                            const JobEnvelope& envelope);

/// Child side: reads one envelope line from `in`, runs the scenario, and
/// writes the result record line to `out`. Returns the process exit code
/// (0 ok, 2 malformed envelope, 1 write failure). Honors the test-only
/// GTTSCH_CHAOS_POINT=<label>:<crash|hang> hook before running. Stream
/// parameters (rather than hardwired stdin/stdout) keep it testable via
/// fmemopen/open_memstream.
int run_job_protocol(std::FILE* in, std::FILE* out);

}  // namespace gttsch::campaign
