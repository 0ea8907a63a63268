#include "stats/telemetry.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "scenario/network.hpp"
#include "stats/run_stats.hpp"
#include "util/check.hpp"

namespace gttsch {

// ---------------------------------------------------------------------------
// Timeline (the sampling engine, folded in from the old stats/timeline).
// ---------------------------------------------------------------------------

Timeline::Timeline(Simulator& sim, TimeUs period)
    : sim_(sim), period_(period), timer_(sim) {
  GTTSCH_CHECK(period > 0);
}

void Timeline::add_gauge(std::string name, std::function<double()> fn) {
  GTTSCH_CHECK(fn != nullptr);
  names_.push_back(std::move(name));
  gauges_.push_back(std::move(fn));
}

void Timeline::start() {
  timer_.start(period_, period_, [this] { sample_once(); });
}

void Timeline::stop() { timer_.stop(); }

void Timeline::set_sample_observer(std::function<void(const Sample&)> fn) {
  observer_ = std::move(fn);
}

void Timeline::sample_once() {
  Sample s;
  s.at = sim_.now();
  s.values.reserve(gauges_.size());
  for (const auto& g : gauges_) s.values.push_back(g());
  samples_.push_back(std::move(s));
  if (observer_) observer_(samples_.back());
}

bool Timeline::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << "time_s";
  for (const auto& name : names_) out << ',' << name;
  out << '\n';
  for (const auto& s : samples_) {
    out << us_to_s(s.at);
    for (double v : s.values) out << ',' << v;
    out << '\n';
  }
  return out.good();
}

double Timeline::latest(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] != name) continue;
    if (samples_.empty()) break;
    return samples_.back().values[i];
  }
  return std::nan("");
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

namespace {

std::string json_head(TimeUs at, const char* type) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "{\"t_s\":%.6f,\"type\":\"%s\"", us_to_s(at),
                type);
  return buf;
}

const char* sixp_command_name(SixpCommand command) {
  switch (command) {
    case SixpCommand::kAdd: return "add";
    case SixpCommand::kDelete: return "delete";
    case SixpCommand::kClear: return "clear";
    case SixpCommand::kAskChannel: return "ask-channel";
  }
  return "unknown";
}

const char* drop_kind_name(Telemetry::DropKind kind) {
  switch (kind) {
    case Telemetry::DropKind::kQueue: return "queue_drop";
    case Telemetry::DropKind::kMac: return "mac_drop";
    case Telemetry::DropKind::kNoRoute: return "no_route_drop";
  }
  return "drop";
}

}  // namespace

Telemetry::Telemetry(const TelemetryConfig& config) : config_(config) {}

Telemetry::~Telemetry() = default;

void Telemetry::default_probe_window(TimeUs start, TimeUs end) {
  GTTSCH_CHECK(net_ == nullptr);  // before attach
  if (config_.probe_start == 0 && config_.probe_end == 0) {
    config_.probe_start = start;
    config_.probe_end = end;
  }
}

void Telemetry::attach(Network& net, RunStats* stats) {
  GTTSCH_CHECK(net_ == nullptr);  // one recorder per run, attached once
  net_ = &net;
  sim_ = &net.sim();
  stats_ = stats;
  net.set_telemetry(this);

  if (config_.sample_period > 0) {
    timeline_ = std::make_unique<Timeline>(*sim_, config_.sample_period);
    timeline_->add_gauge("joined", [this] {
      return static_cast<double>(net_->joined_count());
    });
    timeline_->add_gauge("queue", [this] {
      std::size_t total = 0;
      for (const auto& [id, node] : net_->nodes()) {
        total += node->mac().data_queue_length();
      }
      return static_cast<double>(total);
    });
    timeline_->add_gauge("tx_cells", [this] {
      std::size_t total = 0;
      for (const auto& [id, node] : net_->nodes()) {
        node->mac().schedule().for_each([&total](const Slotframe& sf) {
          for (std::uint16_t slot = 0; slot < sf.length(); ++slot) {
            for (const Cell& cell : sf.cells_at(slot)) {
              if (cell.is_tx() && !cell.is_shared()) ++total;
            }
          }
        });
      }
      return static_cast<double>(total);
    });
    timeline_->add_gauge("mean_etx", [this] {
      double sum = 0.0;
      std::size_t n = 0;
      for (const auto& [id, node] : net_->nodes()) {
        if (node->is_root()) continue;
        const NodeId parent = node->rpl().parent();
        if (parent == kNoNode) continue;
        sum += node->etx().etx(parent);
        ++n;
      }
      return n == 0 ? 0.0 : sum / static_cast<double>(n);
    });
    timeline_->add_gauge("duty_percent", [this] {
      const TimeUs now = sim_->now();
      if (now == 0 || net_->size() == 0) return 0.0;
      double sum = 0.0;
      for (const auto& [id, node] : net_->nodes()) {
        sum += static_cast<double>(node->radio().on_time()) /
               static_cast<double>(now);
      }
      return 100.0 * sum / static_cast<double>(net_->size());
    });
    timeline_->add_gauge("drops", [this] {
      if (stats_ == nullptr) return 0.0;
      std::uint64_t total = 0;
      for (const auto& [id, counters] : stats_->per_node()) {
        total += counters.queue_drops + counters.mac_drops +
                 counters.no_route_drops;
      }
      return static_cast<double>(total);
    });
    timeline_->add_gauge("demand", [this] {
      // Network-wide scheduler demand, through the common SF interface
      // (GT-TSCH: Eq 1's l^tx-min; e-MSF: utilization; autonomous SFs: 0).
      double sum = 0.0;
      for (const auto& [id, node] : net_->nodes()) sum += node->sf().demand_estimate();
      return sum;
    });
    timeline_->set_sample_observer(
        [this](const Timeline::Sample& s) { render_sample(s); });
    timeline_->start();
  }

  if (config_.probe_count > 0 && config_.probe_end > config_.probe_start) {
    std::vector<NodeId> senders;
    for (const auto& [id, node] : net.nodes()) {
      if (node->is_root()) continue;
      senders.push_back(id);
      if (senders.size() == static_cast<std::size_t>(config_.probe_count)) break;
    }
    // All sends are scheduled up front (like trace playback), so their
    // same-time ordering is fixed by the config alone. Senders are
    // staggered across one period to avoid synchronized probe bursts.
    for (std::size_t i = 0; i < senders.size(); ++i) {
      const TimeUs offset =
          config_.probe_period * static_cast<TimeUs>(i + 1) /
          static_cast<TimeUs>(senders.size() + 1);
      Node* node = &net.node(senders[i]);
      for (TimeUs t = config_.probe_start + offset; t < config_.probe_end;
           t += config_.probe_period) {
        sim_->at(t, [node] { node->send_probe(); });
      }
    }
  }
}

void Telemetry::detach() {
  // Stop the sampling timer while the simulator still exists — a pending
  // timer event must not be cancelled against a dead sim later. The
  // Timeline object (and its collected samples) stays readable.
  if (timeline_ != nullptr) timeline_->stop();
  net_ = nullptr;
  sim_ = nullptr;
  stats_ = nullptr;
}

void Telemetry::append(TimeUs at, std::string json) {
  records_.push_back(Record{at, std::move(json)});
}

void Telemetry::append_event(std::string json) {
  if (events_recorded_ >= config_.max_events) {
    ++events_dropped_;
    return;
  }
  ++events_recorded_;
  append(sim_->now(), std::move(json));
}

void Telemetry::render_sample(const Timeline::Sample& s) {
  std::string line = json_head(s.at, "sample");
  char buf[96];
  const auto& names = timeline_->gauge_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::snprintf(buf, sizeof buf, ",\"%s\":%.6g", names[i].c_str(),
                  s.values[i]);
    line += buf;
  }
  std::snprintf(buf, sizeof buf, ",\"probes_sent\":%llu,\"probes_delivered\":%llu",
                static_cast<unsigned long long>(probes_sent_),
                static_cast<unsigned long long>(probes_delivered_));
  line += buf;
  line += '}';
  append(s.at, std::move(line));
}

void Telemetry::on_associated(NodeId node) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"event\":\"associated\",\"node\":%u}",
                static_cast<unsigned>(node));
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_join(NodeId node, NodeId parent) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"event\":\"join\",\"node\":%u,\"parent\":%u}",
                static_cast<unsigned>(node), static_cast<unsigned>(parent));
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_parent_switch(NodeId node, NodeId old_parent,
                                 NodeId new_parent) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                ",\"event\":\"parent_switch\",\"node\":%u,\"old\":%u,\"new\":%u}",
                static_cast<unsigned>(node), static_cast<unsigned>(old_parent),
                static_cast<unsigned>(new_parent));
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_detach(NodeId node, NodeId old_parent) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"event\":\"detach\",\"node\":%u,\"old\":%u}",
                static_cast<unsigned>(node), static_cast<unsigned>(old_parent));
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_drop(NodeId node, DropKind kind) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"event\":\"%s\",\"node\":%u}",
                drop_kind_name(kind), static_cast<unsigned>(node));
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_sixp_done(NodeId node, NodeId peer, SixpCommand command,
                             bool timed_out, bool ok) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ",\"event\":\"sixp_%s\",\"node\":%u,\"peer\":%u,"
                "\"timeout\":%s,\"ok\":%s}",
                sixp_command_name(command), static_cast<unsigned>(node),
                static_cast<unsigned>(peer), timed_out ? "true" : "false",
                ok ? "true" : "false");
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_trace_move(NodeId node, double x, double y) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                ",\"event\":\"trace_move\",\"node\":%u,\"x\":%.3f,\"y\":%.3f}",
                static_cast<unsigned>(node), x, y);
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_trace_fail(NodeId node) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"event\":\"trace_fail\",\"node\":%u}",
                static_cast<unsigned>(node));
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_trace_revive(NodeId node) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"event\":\"trace_revive\",\"node\":%u}",
                static_cast<unsigned>(node));
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_trace_prr(NodeId node, NodeId peer, double prr) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                ",\"event\":\"trace_prr\",\"node\":%u,\"peer\":%u,\"prr\":%.6f}",
                static_cast<unsigned>(node), static_cast<unsigned>(peer), prr);
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_trace_pause(NodeId node, NodeId peer) {
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"event\":\"trace_pause\",\"node\":%u,\"peer\":%u}",
                static_cast<unsigned>(node), static_cast<unsigned>(peer));
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_trace_resume(NodeId node, NodeId peer) {
  char buf[96];
  std::snprintf(buf, sizeof buf,
                ",\"event\":\"trace_resume\",\"node\":%u,\"peer\":%u}",
                static_cast<unsigned>(node), static_cast<unsigned>(peer));
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_probe_sent(NodeId origin, std::uint32_t seq) {
  ++probes_sent_;
  char buf[96];
  std::snprintf(buf, sizeof buf, ",\"event\":\"probe_sent\",\"node\":%u,\"seq\":%u}",
                static_cast<unsigned>(origin), seq);
  append_event(json_head(sim_->now(), "event") + buf);
}

void Telemetry::on_probe_delivered(NodeId origin, std::uint32_t seq,
                                   TimeUs generated_at, std::uint8_t hops,
                                   TimeUs now) {
  ++probes_delivered_;
  const double latency_ms = static_cast<double>(now - generated_at) / 1000.0;
  probe_latency_ms_.add(latency_ms);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                ",\"origin\":%u,\"seq\":%u,\"latency_ms\":%.3f,\"hops\":%u}",
                static_cast<unsigned>(origin), seq, latency_ms,
                static_cast<unsigned>(hops));
  append(now, json_head(now, "probe") + buf);
}

void Telemetry::fill_probe_metrics(RunMetrics* m) const {
  m->probes_sent = probes_sent_;
  m->probes_delivered = probes_delivered_;
  m->probe_pdr_percent =
      probes_sent_ == 0 ? 0.0
                        : 100.0 * static_cast<double>(probes_delivered_) /
                              static_cast<double>(probes_sent_);
  m->probe_avg_latency_ms = probe_latency_ms_.mean();
}

std::string Telemetry::summary_json() const {
  // Stamped with the last record's time, not sim_->now(): write_jsonl is
  // typically called after run_scenario returned and its Simulator died,
  // and the summary must not break the stream's monotone-t_s invariant.
  const TimeUs at = records_.empty() ? 0 : records_.back().at;
  char buf[224];
  std::snprintf(buf, sizeof buf,
                ",\"samples\":%zu,\"events\":%zu,\"events_dropped\":%zu,"
                "\"probes_sent\":%llu,\"probes_delivered\":%llu}",
                timeline_ != nullptr ? timeline_->samples().size() : 0,
                events_recorded_, events_dropped_,
                static_cast<unsigned long long>(probes_sent_),
                static_cast<unsigned long long>(probes_delivered_));
  return json_head(at, "summary") + buf;
}

bool Telemetry::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  for (const Record& r : records_) out << r.json << '\n';
  out << summary_json() << '\n';
  return out.good();
}

}  // namespace gttsch
