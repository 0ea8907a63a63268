// Run-level metric collection: everything the paper's six evaluation
// panels report (PDR, end-to-end delay, packet loss per minute, radio duty
// cycle, queue loss per node, received packets per minute).
//
// Measurement windowing: packets count toward PDR/throughput only when
// generated inside [warmup, measure_end] — join transients and the final
// drain are excluded, like steady-state Cooja measurements.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "phy/radio.hpp"
#include "phy/wire.hpp"
#include "stats/histogram.hpp"
#include "util/types.hpp"

namespace gttsch {

struct NodeCounters {
  std::uint64_t generated = 0;       ///< app packets originated (in window)
  std::uint64_t delivered_origin = 0;  ///< of those, delivered to a root
  std::uint64_t delivered_sink = 0;    ///< packets this (root) node sank
  std::uint64_t forwarded = 0;
  std::uint64_t queue_drops = 0;  ///< enqueue failures (queue loss)
  std::uint64_t mac_drops = 0;    ///< retry budget exhausted
  std::uint64_t no_route_drops = 0;
};

/// The six panel metrics plus diagnostics.
struct RunMetrics {
  double pdr_percent = 0.0;
  double avg_delay_ms = 0.0;
  double p95_delay_ms = 0.0;
  double loss_per_minute = 0.0;        ///< (generated - delivered) / min
  double duty_cycle_percent = 0.0;     ///< mean over nodes
  double queue_loss_per_node = 0.0;    ///< total queue drops / #nodes
  double throughput_per_minute = 0.0;  ///< delivered / min
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t mac_drops = 0;
  std::uint64_t no_route_drops = 0;
  double mean_hops = 0.0;
  double measure_minutes = 0.0;
  std::uint64_t nodes_joined = 0;  ///< nodes with an RPL parent (or root)
  std::uint64_t node_count = 0;

  // --- churn-phase split (set when the run's trace kills nodes) --------
  // The measurement window is partitioned at the first failure (t1) and
  // the last failure plus a settle margin (t2): pre = [warmup, t1),
  // churn = [t1, t2), post = [t2, measure_end]. Both generated and
  // delivered are attributed by *generation* time, so the three phases
  // sum exactly to the whole-run counters above.
  std::uint64_t churn_phases = 0;     ///< 0 = no split, 1 = split active
  std::uint64_t pre_generated = 0;
  std::uint64_t churn_generated = 0;
  std::uint64_t post_generated = 0;
  std::uint64_t pre_delivered = 0;
  std::uint64_t churn_delivered = 0;
  std::uint64_t post_delivered = 0;
  double pre_pdr_percent = 0.0;
  double churn_pdr_percent = 0.0;
  double post_pdr_percent = 0.0;
  double pre_avg_delay_ms = 0.0;
  double churn_avg_delay_ms = 0.0;
  double post_avg_delay_ms = 0.0;

  // --- probe time-series summary (telemetry runs only) -----------------
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_delivered = 0;
  double probe_pdr_percent = 0.0;
  double probe_avg_latency_ms = 0.0;

  // --- recovery metrics (fault-injection runs) -------------------------
  // Per-node recovery is a three-stage pipeline per failure: fail ->
  // reboot -> re-associate (rejoin) -> first packet delivered at a root.
  // A later failure of the same node abandons (censors) any unfinished
  // pipeline. Network-level time-to-recover (TTR) is measured from the
  // last churn event until the 10 s generation-time-bucketed PDR climbs
  // back to >= 95% of the pre-churn baseline and stays there; runs that
  // never recover report the censored distance to measure_end.
  std::uint64_t node_failures = 0;    ///< fail events on registered nodes
  std::uint64_t node_revivals = 0;    ///< completed reboots
  std::uint64_t node_rejoins = 0;     ///< reboots that re-associated in-run
  std::uint64_t orphan_intervals = 0; ///< joined -> orphan transitions
  std::uint64_t recovery_ttr_censored = 0;  ///< 1 = PDR never re-converged
  double recovery_rejoin_s = 0.0;     ///< mean fail -> re-association (s)
  double recovery_first_delivery_s = 0.0;  ///< mean fail -> first delivery (s)
  double recovery_ttr_s = 0.0;        ///< last churn -> PDR recovered (s)
};

/// Settle margin after the last trace churn event before the "post"
/// churn phase begins: routes usually need tens of seconds to re-converge.
inline constexpr TimeUs kChurnSettle = 60000000;

/// Generation-time bucket width for the TTR (time-to-recover) scan.
inline constexpr TimeUs kRecoveryBucket = 10000000;
/// A post-churn bucket counts as recovered once its PDR reaches this
/// fraction of the pre-churn baseline PDR.
inline constexpr double kRecoveryFraction = 0.95;

class RunStats {
 public:
  /// Window: [warmup, measure_end]. The simulation may run a little past
  /// measure_end so in-flight packets can still be delivered and counted.
  RunStats(TimeUs warmup, TimeUs measure_end);

  void register_node(NodeId id, bool is_root, const Radio* radio);

  // --- event hooks (called by the Node layer) ---------------------------
  void on_generated(NodeId origin, TimeUs now);
  void on_delivered(NodeId root, const DataPayload& data, TimeUs now);
  void on_forwarded(NodeId node, TimeUs now);
  void on_queue_drop(NodeId node, TimeUs now);
  void on_mac_drop(NodeId node, TimeUs now);
  void on_no_route(NodeId node, TimeUs now);

  // --- node-lifecycle hooks (fault injection) ---------------------------
  /// The node's stack halted (trace `fail`). Opens a recovery pipeline;
  /// an unfinished pipeline from an earlier failure is abandoned.
  void on_node_failed(NodeId node, TimeUs now);
  /// The node crash-rebooted (trace `revive`).
  void on_node_rebooted(NodeId node, TimeUs now);
  /// The node (re-)associated with the TSCH network. Only associations
  /// following a reboot feed the rejoin-latency metric.
  void on_associated(NodeId node, TimeUs now);

  /// Call exactly at t = warmup to snapshot radio on-times.
  void begin_measurement();

  /// Call exactly at t = measure_end to close the duty-cycle window (the
  /// drain period afterwards is excluded).
  void end_measurement();

  /// Report whether a node is joined: on every parent change during the
  /// run, and once more for every node in the post-run sweep.
  void set_joined(NodeId node, bool joined);

  /// Enable the churn-phase split: pre = [warmup, t1), churn = [t1, t2),
  /// post = [t2, measure_end]. Call before the run starts.
  void set_churn_phases(TimeUs t1, TimeUs t2);

  RunMetrics finalize() const;
  const std::map<NodeId, NodeCounters>& per_node() const { return counters_; }
  TimeUs warmup() const { return warmup_; }
  TimeUs measure_end() const { return measure_end_; }

 private:
  bool in_window(TimeUs t) const { return t >= warmup_ && t <= measure_end_; }
  /// Phase index (0 pre / 1 churn / 2 post) of an in-window timestamp.
  std::size_t phase_of(TimeUs t) const {
    return t < phase_t1_ ? 0 : t < phase_t2_ ? 1 : 2;
  }

  /// Generation-time bucket index of an in-window timestamp.
  std::size_t bucket_of(TimeUs t) const {
    return static_cast<std::size_t>((t - warmup_) / kRecoveryBucket);
  }
  struct Bucket;
  Bucket& bucket_at(TimeUs t) const;

  TimeUs warmup_;
  TimeUs measure_end_;
  bool phases_enabled_ = false;
  TimeUs phase_t1_ = 0;
  TimeUs phase_t2_ = 0;
  /// Last churn event (TTR anchor): derived from t2 - kChurnSettle.
  TimeUs churn_anchor_ = 0;
  std::uint64_t phase_generated_[3] = {0, 0, 0};
  std::uint64_t phase_delivered_[3] = {0, 0, 0};
  SummaryStats phase_delay_ms_[3];
  /// 10 s generation-time PDR buckets (churn runs only), lazily grown.
  struct Bucket {
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
  };
  mutable std::vector<Bucket> buckets_;
  std::uint64_t failures_ = 0;
  std::uint64_t revivals_ = 0;
  std::uint64_t rejoins_ = 0;
  std::uint64_t orphan_intervals_ = 0;
  SummaryStats rejoin_s_;
  SummaryStats first_delivery_s_;
  struct NodeEntry {
    bool is_root = false;
    const Radio* radio = nullptr;
    TimeUs on_time_at_warmup = 0;
    TimeUs on_time_at_end = -1;  ///< -1 until end_measurement() runs
    bool joined = false;
    // Recovery pipeline for the node's most recent failure (-1 = none).
    TimeUs failed_at = -1;
    bool rebooted = false;            ///< reboot seen for this failure
    bool rejoined = false;            ///< re-association recorded
    bool awaiting_delivery = false;   ///< first post-rejoin delivery pending
  };
  std::map<NodeId, NodeEntry> nodes_;
  std::map<NodeId, NodeCounters> counters_;
  SummaryStats delay_ms_;
  Histogram delay_hist_{0.0, 5000.0, 250};
  SummaryStats hops_;
};

}  // namespace gttsch
