#include "stats/run_stats.hpp"

#include "util/check.hpp"

namespace gttsch {

RunStats::RunStats(TimeUs warmup, TimeUs measure_end)
    : warmup_(warmup), measure_end_(measure_end) {
  GTTSCH_CHECK(measure_end > warmup);
}

void RunStats::register_node(NodeId id, bool is_root, const Radio* radio) {
  NodeEntry entry;
  entry.is_root = is_root;
  entry.radio = radio;
  entry.joined = is_root;  // roots are always part of their DODAG
  nodes_[id] = entry;
  counters_[id];  // default-construct
}

void RunStats::set_churn_phases(TimeUs t1, TimeUs t2) {
  GTTSCH_CHECK(t1 <= t2);
  phases_enabled_ = true;
  phase_t1_ = t1;
  phase_t2_ = t2;
  // run_scenario passes t2 = last churn event + kChurnSettle; recover the
  // anchor for the TTR scan (clamped into [t1, measure_end]).
  churn_anchor_ = t2 > kChurnSettle ? t2 - kChurnSettle : t1;
  if (churn_anchor_ < t1) churn_anchor_ = t1;
  if (churn_anchor_ > measure_end_) churn_anchor_ = measure_end_;
}

RunStats::Bucket& RunStats::bucket_at(TimeUs t) const {
  const std::size_t idx = bucket_of(t);
  if (idx >= buckets_.size()) buckets_.resize(idx + 1);
  return buckets_[idx];
}

void RunStats::on_generated(NodeId origin, TimeUs now) {
  if (!in_window(now)) return;
  ++counters_[origin].generated;
  if (phases_enabled_) {
    ++phase_generated_[phase_of(now)];
    ++bucket_at(now).generated;
  }
}

void RunStats::on_delivered(NodeId root, const DataPayload& data, TimeUs now) {
  const NodeId origin = data.origin;
  const TimeUs generated_at = data.generated_at;
  ++counters_[root].delivered_sink;
  if (!in_window(generated_at)) return;
  ++counters_[origin].delivered_origin;
  delay_ms_.add(us_to_ms(now - generated_at));
  delay_hist_.add(us_to_ms(now - generated_at));
  hops_.add(static_cast<double>(data.hops));
  if (phases_enabled_) {
    // Attributed by generation time (like the window itself), so the
    // per-phase counters sum exactly to the whole-run ones.
    const std::size_t phase = phase_of(generated_at);
    ++phase_delivered_[phase];
    phase_delay_ms_[phase].add(us_to_ms(now - generated_at));
    ++bucket_at(generated_at).delivered;
  }
  const auto it = nodes_.find(origin);
  if (it != nodes_.end() && it->second.awaiting_delivery) {
    // First delivered packet generated by the rebooted node: the recovery
    // pipeline for this failure is complete.
    first_delivery_s_.add(us_to_s(now - it->second.failed_at));
    it->second.failed_at = -1;
    it->second.rebooted = false;
    it->second.rejoined = false;
    it->second.awaiting_delivery = false;
  }
}

void RunStats::on_node_failed(NodeId node, TimeUs now) {
  ++failures_;
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  // A fresh failure censors any unfinished recovery of this node.
  it->second.failed_at = now;
  it->second.rebooted = false;
  it->second.rejoined = false;
  it->second.awaiting_delivery = false;
  if (it->second.joined && !it->second.is_root) {
    it->second.joined = false;
    ++orphan_intervals_;
  }
}

void RunStats::on_node_rebooted(NodeId node, TimeUs now) {
  (void)now;
  ++revivals_;
  const auto it = nodes_.find(node);
  if (it != nodes_.end() && it->second.failed_at >= 0) it->second.rebooted = true;
}

void RunStats::on_associated(NodeId node, TimeUs now) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  if (it->second.rebooted && !it->second.rejoined) {
    rejoin_s_.add(us_to_s(now - it->second.failed_at));
    ++rejoins_;
    it->second.rejoined = true;
    it->second.awaiting_delivery = true;
  }
}

void RunStats::on_forwarded(NodeId node, TimeUs now) {
  if (in_window(now)) ++counters_[node].forwarded;
}

void RunStats::on_queue_drop(NodeId node, TimeUs now) {
  if (in_window(now)) ++counters_[node].queue_drops;
}

void RunStats::on_mac_drop(NodeId node, TimeUs now) {
  if (in_window(now)) ++counters_[node].mac_drops;
}

void RunStats::on_no_route(NodeId node, TimeUs now) {
  if (in_window(now)) ++counters_[node].no_route_drops;
}

void RunStats::begin_measurement() {
  for (auto& [id, entry] : nodes_)
    if (entry.radio != nullptr) entry.on_time_at_warmup = entry.radio->on_time();
}

void RunStats::end_measurement() {
  for (auto& [id, entry] : nodes_)
    if (entry.radio != nullptr) entry.on_time_at_end = entry.radio->on_time();
}

void RunStats::set_joined(NodeId node, bool joined) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) return;
  const bool now_joined = joined || it->second.is_root;
  if (it->second.joined && !now_joined) ++orphan_intervals_;
  it->second.joined = now_joined;
}

RunMetrics RunStats::finalize() const {
  RunMetrics m;
  m.node_count = nodes_.size();
  for (const auto& [id, c] : counters_) {
    m.generated += c.generated;
    m.delivered += c.delivered_origin;
    m.queue_drops += c.queue_drops;
    m.mac_drops += c.mac_drops;
    m.no_route_drops += c.no_route_drops;
  }
  const double minutes = us_to_min(measure_end_ - warmup_);
  m.measure_minutes = minutes;
  m.pdr_percent =
      m.generated == 0 ? 0.0
                       : 100.0 * static_cast<double>(m.delivered) /
                             static_cast<double>(m.generated);
  m.avg_delay_ms = delay_ms_.mean();
  m.p95_delay_ms = delay_hist_.quantile(0.95);
  m.loss_per_minute =
      minutes <= 0.0 ? 0.0
                     : static_cast<double>(m.generated - m.delivered) / minutes;
  m.throughput_per_minute =
      minutes <= 0.0 ? 0.0 : static_cast<double>(m.delivered) / minutes;
  m.queue_loss_per_node =
      nodes_.empty() ? 0.0
                     : static_cast<double>(m.queue_drops) /
                           static_cast<double>(nodes_.size());
  m.mean_hops = hops_.mean();

  double duty_sum = 0.0;
  std::size_t duty_n = 0;
  const double window = static_cast<double>(measure_end_ - warmup_);
  for (const auto& [id, entry] : nodes_) {
    if (entry.radio == nullptr || window <= 0.0) continue;
    const TimeUs end_on =
        entry.on_time_at_end >= 0 ? entry.on_time_at_end : entry.radio->on_time();
    const double on = static_cast<double>(end_on - entry.on_time_at_warmup);
    duty_sum += 100.0 * on / window;
    ++duty_n;
  }
  m.duty_cycle_percent = duty_n == 0 ? 0.0 : duty_sum / static_cast<double>(duty_n);

  for (const auto& [id, entry] : nodes_)
    if (entry.joined) ++m.nodes_joined;

  if (phases_enabled_) {
    m.churn_phases = 1;
    m.pre_generated = phase_generated_[0];
    m.churn_generated = phase_generated_[1];
    m.post_generated = phase_generated_[2];
    m.pre_delivered = phase_delivered_[0];
    m.churn_delivered = phase_delivered_[1];
    m.post_delivered = phase_delivered_[2];
    const auto pdr = [](std::uint64_t gen, std::uint64_t del) {
      return gen == 0 ? 0.0
                      : 100.0 * static_cast<double>(del) /
                            static_cast<double>(gen);
    };
    m.pre_pdr_percent = pdr(m.pre_generated, m.pre_delivered);
    m.churn_pdr_percent = pdr(m.churn_generated, m.churn_delivered);
    m.post_pdr_percent = pdr(m.post_generated, m.post_delivered);
    m.pre_avg_delay_ms = phase_delay_ms_[0].mean();
    m.churn_avg_delay_ms = phase_delay_ms_[1].mean();
    m.post_avg_delay_ms = phase_delay_ms_[2].mean();
  }

  m.node_failures = failures_;
  m.node_revivals = revivals_;
  m.node_rejoins = rejoins_;
  m.orphan_intervals = orphan_intervals_;
  m.recovery_rejoin_s = rejoin_s_.mean();
  m.recovery_first_delivery_s = first_delivery_s_.mean();
  if (phases_enabled_ && phase_generated_[0] > 0) {
    // TTR scan: from the last churn event, find where the 10 s
    // generation-time PDR climbs back to >= kRecoveryFraction of the
    // pre-churn baseline *and stays there* until measure_end. Empty
    // buckets are neutral (no traffic proves nothing either way).
    const double baseline = static_cast<double>(phase_delivered_[0]) /
                            static_cast<double>(phase_generated_[0]);
    const double threshold = kRecoveryFraction * baseline;
    const std::size_t first = bucket_of(churn_anchor_);
    const std::size_t last =
        measure_end_ > warmup_ ? bucket_of(measure_end_ - 1) : first;
    TimeUs recovered_at = churn_anchor_;
    bool censored = false;
    for (std::size_t b = first; b < buckets_.size() && b <= last; ++b) {
      const Bucket& bucket = buckets_[b];
      if (bucket.generated == 0) continue;
      const double pdr = static_cast<double>(bucket.delivered) /
                         static_cast<double>(bucket.generated);
      if (pdr + 1e-12 >= threshold) continue;
      // Still degraded: recovery can start at the end of this bucket at
      // the earliest; degradation in the final bucket means censoring.
      const TimeUs bucket_end =
          warmup_ + static_cast<TimeUs>(b + 1) * kRecoveryBucket;
      recovered_at = bucket_end < measure_end_ ? bucket_end : measure_end_;
      censored = recovered_at >= measure_end_;
    }
    m.recovery_ttr_s = us_to_s(recovered_at - churn_anchor_);
    m.recovery_ttr_censored = censored ? 1 : 0;
  }
  return m;
}

}  // namespace gttsch
