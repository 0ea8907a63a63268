// In-run telemetry: a run-attached recorder producing (1) periodic gauge
// samples (joined count, queue depths, allocated Tx cells, mean ETX, duty
// cycle, cumulative drops), (2) probe-frame latency/PDR time series from a
// configurable subset of nodes, and (3) a bounded structured event trace
// (join, parent switch, 6P conclusions, drops, trace moves/failures) —
// all emitted as one time-ordered JSONL stream.
//
// Determinism contract: the recorder only *reads* simulation state. Gauge
// sampling rides ordinary default-key events (they run after same-time
// slot boundaries, like trace playback), consumes no RNG stream and never
// mutates a node — so a telemetry-attached run is bit-identical to a bare
// run in every simulation-visible quantity (MAC counters, RunMetrics,
// final ASN). The one deliberate exception is probe frames, which are
// real traffic: they are off by default and always excluded from the
// RunStats panel metrics via DataPayload::is_probe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "phy/wire.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "stats/histogram.hpp"
#include "util/types.hpp"

namespace gttsch {

class Network;
class RunStats;

/// Time-series recorder: samples named gauges on a fixed period and dumps
/// them as CSV. This is the single sampling engine — Telemetry drives it
/// for its gauge registry, and benches (formation_time) use it directly.
class Timeline {
 public:
  Timeline(Simulator& sim, TimeUs period);

  /// Register a gauge; `fn` is sampled once per period.
  void add_gauge(std::string name, std::function<double()> fn);

  /// Begin sampling (first sample after one period).
  void start();
  void stop();

  struct Sample {
    TimeUs at;
    std::vector<double> values;  ///< parallel to gauge registration order
  };

  const std::vector<std::string>& gauge_names() const { return names_; }
  const std::vector<Sample>& samples() const { return samples_; }

  /// Invoked after every sample (used by Telemetry to render JSONL rows).
  void set_sample_observer(std::function<void(const Sample&)> fn);

  /// Write "time_s,<gauge...>" rows to `path`. Returns false on I/O error.
  bool write_csv(const std::string& path) const;

  /// Last sampled value of a gauge (by name); NaN if never sampled.
  double latest(const std::string& name) const;

 private:
  void sample_once();

  Simulator& sim_;
  TimeUs period_;
  std::vector<std::string> names_;
  std::vector<std::function<double()>> gauges_;
  std::vector<Sample> samples_;
  std::function<void(const Sample&)> observer_;
  PeriodicTimer timer_;
};

struct TelemetryConfig {
  TimeUs sample_period = 1000000;  ///< gauge sampling period (0 = no samples)
  int probe_count = 0;             ///< non-root probe senders (0 = no probes)
  TimeUs probe_period = 10000000;  ///< per-sender probe period
  /// Probe window (absolute sim time). run_scenario fills these with the
  /// measurement window when left at 0.
  TimeUs probe_start = 0;
  TimeUs probe_end = 0;
  std::size_t max_events = 10000;  ///< structured-event trace bound
};

class Telemetry {
 public:
  enum class DropKind : std::uint8_t { kQueue, kMac, kNoRoute };

  explicit Telemetry(const TelemetryConfig& config);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Wire the recorder into a built (not yet started) network: registers
  /// the gauge panel, hooks every node's event taps, and schedules gauge
  /// samples plus probe sends. `stats` may be null (benches).
  void attach(Network& net, RunStats* stats);

  const TelemetryConfig& config() const { return config_; }

  /// Default the probe window (no-op when the config already set one).
  /// Must be called before attach().
  void default_probe_window(TimeUs start, TimeUs end);

  /// Severs the network/simulator references and stops the sampling timer.
  /// ~Network calls this (the recorder usually outlives the run so its
  /// records can be written afterwards); records stay readable.
  void detach();

  // --- event taps (called by Node / TracePlayer / SixpAgent glue) -------
  void on_associated(NodeId node);
  void on_join(NodeId node, NodeId parent);
  void on_parent_switch(NodeId node, NodeId old_parent, NodeId new_parent);
  void on_detach(NodeId node, NodeId old_parent);
  void on_drop(NodeId node, DropKind kind);
  void on_sixp_done(NodeId node, NodeId peer, SixpCommand command, bool timed_out,
                    bool ok);
  void on_trace_move(NodeId node, double x, double y);
  void on_trace_fail(NodeId node);
  void on_trace_revive(NodeId node);
  void on_trace_prr(NodeId node, NodeId peer, double prr);
  void on_trace_pause(NodeId node, NodeId peer);
  void on_trace_resume(NodeId node, NodeId peer);
  void on_probe_sent(NodeId origin, std::uint32_t seq);
  void on_probe_delivered(NodeId origin, std::uint32_t seq, TimeUs generated_at,
                          std::uint8_t hops, TimeUs now);

  /// One rendered JSONL line plus its timestamp; records are appended in
  /// occurrence order, so timestamps are monotone non-decreasing.
  struct Record {
    TimeUs at = 0;
    std::string json;  ///< one JSON object, no trailing newline
  };

  const std::vector<Record>& records() const { return records_; }
  std::size_t events_recorded() const { return events_recorded_; }
  std::size_t events_dropped() const { return events_dropped_; }
  std::uint64_t probes_sent() const { return probes_sent_; }
  std::uint64_t probes_delivered() const { return probes_delivered_; }

  /// Gauge sampling engine (for CSV export); null until attach() with a
  /// non-zero sample period.
  Timeline* timeline() { return timeline_.get(); }

  /// Copy the probe summary into `m` (probes_sent/delivered, PDR, mean
  /// latency) so it flows through campaign journals and reports.
  void fill_probe_metrics(struct RunMetrics* m) const;

  /// Write every record plus a trailing summary line to `path` as JSONL.
  bool write_jsonl(const std::string& path) const;

 private:
  void append(TimeUs at, std::string json);
  /// Bounded variant for structured events (samples/probes are already
  /// bounded by their periods).
  void append_event(std::string json);
  void render_sample(const Timeline::Sample& s);
  std::string summary_json() const;

  TelemetryConfig config_;
  Network* net_ = nullptr;
  Simulator* sim_ = nullptr;
  RunStats* stats_ = nullptr;
  std::unique_ptr<Timeline> timeline_;
  std::vector<Record> records_;
  std::size_t events_recorded_ = 0;
  std::size_t events_dropped_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t probes_delivered_ = 0;
  SummaryStats probe_latency_ms_;
};

}  // namespace gttsch
