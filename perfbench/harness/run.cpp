#include "run.hpp"

#include <cstdio>
#include <memory>
#include <string>

#include "phy/dynamic_link.hpp"
#include "scenario/network.hpp"
#include "scenario/trace.hpp"
#include "stats/telemetry.hpp"

namespace perfbench {

using namespace gttsch;

namespace {

/// Link-model decorator for the traced run: counts and times every
/// prr/interferes query and forwards the cache-invalidation protocol
/// (version, max_interaction_range, changed_nodes_since) unchanged, so the
/// medium behaves exactly as with the bare model.
class CountingLinkModel final : public LinkModel {
 public:
  explicit CountingLinkModel(std::unique_ptr<LinkModel> inner) : inner_(std::move(inner)) {}

  double prr(NodeId tx, const Position& tx_pos, NodeId rx,
             const Position& rx_pos) const override {
    const auto start = Clock::now();
    const double value = inner_->prr(tx, tx_pos, rx, rx_pos);
    seconds_ += seconds_since(start);
    ++calls_;
    return value;
  }

  bool interferes(NodeId tx, const Position& tx_pos, NodeId rx,
                  const Position& rx_pos) const override {
    const auto start = Clock::now();
    const bool value = inner_->interferes(tx, tx_pos, rx, rx_pos);
    seconds_ += seconds_since(start);
    ++calls_;
    return value;
  }

  std::uint64_t version() const override { return inner_->version(); }
  double max_interaction_range() const override { return inner_->max_interaction_range(); }
  bool changed_nodes_since(std::uint64_t since, std::vector<NodeId>& out) const override {
    return inner_->changed_nodes_since(since, out);
  }

  std::uint64_t calls() const { return calls_; }
  double seconds() const { return seconds_; }

 private:
  std::unique_ptr<LinkModel> inner_;
  mutable std::uint64_t calls_ = 0;
  mutable double seconds_ = 0.0;
};

/// A started network plus everything run_scenario keeps beside it.
/// Members are destroyed in reverse order: player, network, stats.
struct Assembly {
  TopologySpec topology;
  std::unique_ptr<RunStats> stats;
  std::unique_ptr<Network> net;
  std::unique_ptr<TracePlayer> player;
  CountingLinkModel* counter = nullptr;
  std::size_t trace_events = 0;
  double topology_s = 0.0;  ///< topology + trace
  double build_s = 0.0;     ///< RunStats, Network, TracePlayer, window events
  double start_s = 0.0;     ///< Network::start, TracePlayer::start
};

/// Mirrors run_scenario's set-up step for step (sequential stepping; the
/// caller clears the island-parallel environment overrides).
std::unique_ptr<Assembly> assemble(const ScenarioConfig& config, Telemetry* telemetry,
                                   bool counting) {
  auto a = std::make_unique<Assembly>();
  auto t0 = Clock::now();
  a->topology = config.make_topology();
  Trace trace;
  std::string error;
  if (!config.make_trace(a->topology, &trace, &error)) die("invalid trace: " + error);
  a->topology_s = seconds_since(t0);

  t0 = Clock::now();
  const TimeUs measure_end = config.warmup + config.measure;
  a->stats = std::make_unique<RunStats>(config.warmup, measure_end);
  if (trace.needs_dynamic_model()) {
    TimeUs first_churn = 0, last_churn = 0;
    bool seen = false;
    for (const TraceEvent& e : trace.events) {
      if (e.kind == TraceEventKind::kMove) continue;
      if (!seen || e.at < first_churn) first_churn = e.at;
      if (!seen || e.at > last_churn) last_churn = e.at;
      seen = true;
    }
    a->stats->set_churn_phases(first_churn, last_churn + kChurnSettle);
  }
  DynamicLinkModel* failures = nullptr;
  Network::LinkModelFactory factory = scenario_link_model_factory(config, trace, &failures);
  if (counting) {
    factory = [inner = std::move(factory), slot = &a->counter](Simulator& sim) {
      auto model = std::make_unique<CountingLinkModel>(inner(sim));
      *slot = model.get();
      return std::unique_ptr<LinkModel>(std::move(model));
    };
  }
  a->net = std::make_unique<Network>(config.seed, factory, a->topology,
                                     config.make_node_config(), a->stats.get());
  a->trace_events = trace.events.size();
  a->player = std::make_unique<TracePlayer>(*a->net, std::move(trace), failures);
  RunStats* stats = a->stats.get();
  a->net->sim().at(config.warmup, [stats] { stats->begin_measurement(); });
  a->net->sim().at(measure_end, [stats] { stats->end_measurement(); });
  if (telemetry != nullptr) {
    telemetry->default_probe_window(config.warmup, measure_end);
    telemetry->attach(*a->net, stats);
  }
  a->build_s = seconds_since(t0);

  t0 = Clock::now();
  a->net->start();
  a->player->start();
  a->net->medium().reset_stats();
  a->start_s = seconds_since(t0);
  return a;
}

double as_count(std::uint64_t v) { return static_cast<double>(v); }

Values protocol_counters(Network& net) {
  MacCounters mac;
  SixpCounters sixp;
  for (const auto& [id, node] : net.nodes()) {
    const MacCounters& m = node->mac().counters();
    mac.unicast_tx_attempts += m.unicast_tx_attempts;
    mac.unicast_success += m.unicast_success;
    mac.unicast_drops += m.unicast_drops;
    mac.retransmissions += m.retransmissions;
    mac.broadcast_sent += m.broadcast_sent;
    mac.eb_sent += m.eb_sent;
    mac.rx_frames += m.rx_frames;
    mac.rx_duplicates += m.rx_duplicates;
    mac.acks_sent += m.acks_sent;
    const SixpCounters& s = node->sixp().counters();
    sixp.requests_sent += s.requests_sent;
    sixp.responses_sent += s.responses_sent;
    sixp.responses_received += s.responses_received;
    sixp.timeouts += s.timeouts;
    sixp.stale_responses += s.stale_responses;
    sixp.busy_rejections += s.busy_rejections;
  }
  return {
      {"mac.unicast_attempts", as_count(mac.unicast_tx_attempts)},
      {"mac.unicast_success", as_count(mac.unicast_success)},
      {"mac.unicast_drops", as_count(mac.unicast_drops)},
      {"mac.retransmissions", as_count(mac.retransmissions)},
      {"mac.broadcast_sent", as_count(mac.broadcast_sent)},
      {"mac.eb_sent", as_count(mac.eb_sent)},
      {"mac.rx_frames", as_count(mac.rx_frames)},
      {"mac.rx_duplicates", as_count(mac.rx_duplicates)},
      {"mac.acks_sent", as_count(mac.acks_sent)},
      {"sixp.requests", as_count(sixp.requests_sent)},
      {"sixp.responses", as_count(sixp.responses_sent)},
      {"sixp.responses_received", as_count(sixp.responses_received)},
      {"sixp.timeouts", as_count(sixp.timeouts)},
      {"sixp.stale_responses", as_count(sixp.stale_responses)},
      {"sixp.busy_rejections", as_count(sixp.busy_rejections)},
  };
}

/// End-of-run counts read through public accessors. Medium counters cover
/// the steady window; MAC and 6P counters are those of the live stacks
/// (a reboot starts its stack's counters afresh).
Values layer_counts(Network& net, const ExperimentResult& r, std::uint64_t events_formation,
                    const MediumStats& at_formation, std::size_t trace_events) {
  const MediumStats end = net.medium().stats();
  double mac_cells = 0, sf_tx = 0, sf_rx = 0, sf_operational = 0, reboots = 0;
  double hops_sum = 0, hops_n = 0;
  for (const auto& [id, node] : net.nodes()) {
    mac_cells += static_cast<double>(node->mac().schedule().total_cells());
    sf_tx += node->sf().dedicated_tx_cells();
    sf_rx += node->sf().dedicated_rx_cells();
    sf_operational += node->sf().operational() ? 1 : 0;
    reboots += node->reboots();
    if (!node->is_root() && node->rpl().joined()) {
      hops_sum += node->rpl().hops();
      hops_n += 1;
    }
  }
  const RunMetrics& m = r.metrics;
  Values counts = {
      {"sim.events_formation", as_count(events_formation)},
      {"sim.events_steady", as_count(net.sim().events_processed() - events_formation)},
      {"sim.pending_end", as_count(net.sim().pending_events())},
      {"phy.tx", as_count(end.transmissions - at_formation.transmissions)},
      {"phy.deliveries", as_count(end.deliveries - at_formation.deliveries)},
      {"phy.collision_losses", as_count(end.collision_losses - at_formation.collision_losses)},
      {"phy.prr_losses", as_count(end.prr_losses - at_formation.prr_losses)},
  };
  for (const auto& entry : protocol_counters(net)) counts.push_back(entry);
  const Values rest = {
      {"mac.cells", mac_cells},
      {"sf.tx_cells", sf_tx},
      {"sf.rx_cells", sf_rx},
      {"sf.operational", sf_operational},
      {"net.joined", as_count(net.joined_count())},
      {"net.mean_hops", hops_n > 0 ? hops_sum / hops_n : 0.0},
      {"app.generated", as_count(m.generated)},
      {"app.delivered", as_count(m.delivered)},
      {"app.pdr_percent", m.pdr_percent},
      {"app.avg_delay_ms", m.avg_delay_ms},
      {"app.queue_drops", as_count(m.queue_drops)},
      {"app.mac_drops", as_count(m.mac_drops)},
      {"app.no_route_drops", as_count(m.no_route_drops)},
      {"app.duty_cycle_percent", m.duty_cycle_percent},
      {"scenario.trace_events", as_count(trace_events)},
      {"scenario.reboots", reboots},
  };
  counts.insert(counts.end(), rest.begin(), rest.end());
  return counts;
}

double count_events(const Telemetry& telemetry, const char* event) {
  const std::string needle = std::string("\"event\":\"") + event + "\"";
  double n = 0;
  for (const Telemetry::Record& record : telemetry.records()) {
    if (record.json.find(needle) != std::string::npos) ++n;
  }
  return n;
}

}  // namespace

void accumulate(Values& into, const Values& add) {
  for (const auto& [key, value] : add) {
    bool found = false;
    for (auto& entry : into) {
      if (entry.first == key) {
        entry.second += value;
        found = true;
        break;
      }
    }
    if (!found) into.emplace_back(key, value);
  }
}

namespace {

/// Steps the simulator from its current time to `until` in kPhaseChunks
/// equal slices, timing each and probing the host next to it.
PhaseTiming step_chunked(Simulator& sim, TimeUs from, TimeUs until, bool probe_each) {
  PhaseTiming phase;
  double slowdown = host_slowdown();
  for (int i = 1; i <= kPhaseChunks; ++i) {
    if (probe_each && i > 1) slowdown = host_slowdown();
    const TimeUs target = from + (until - from) * i / kPhaseChunks;
    const auto t0 = Clock::now();
    sim.run_until(target);
    phase.walls.push_back(seconds_since(t0));
    phase.slowdowns.push_back(slowdown);
  }
  return phase;
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// The phase's wall time at nominal host speed.
double normalised(const PhaseTiming& phase) {
  double total = 0.0;
  for (std::size_t i = 0; i < phase.walls.size(); ++i) {
    total += phase.walls[i] / phase.slowdowns[i];
  }
  return total;
}

}  // namespace

RunReport run_assembled(const ScenarioConfig& config, const RunOptions& options) {
  RunReport report;
  std::unique_ptr<Telemetry> telemetry;
  if (options.telemetry || options.traced) {
    TelemetryConfig tc;
    tc.sample_period = 1000000;
    if (options.traced) tc.max_events = static_cast<std::size_t>(1) << 40;  // keep all
    telemetry = std::make_unique<Telemetry>(tc);
  }

  std::vector<double> setup, topology, build, start;
  std::unique_ptr<Assembly> a;
  for (int i = 0; i < std::max(1, options.setup_reps); ++i) {
    a.reset();
    const auto t0 = Clock::now();
    a = assemble(config, telemetry.get(), options.traced);
    setup.push_back(seconds_since(t0));
    topology.push_back(a->topology_s);
    build.push_back(a->build_s);
    start.push_back(a->start_s);
  }
  Network& net = *a->net;
  report.setup_samples = setup;

  report.formation = step_chunked(net.sim(), 0, config.warmup, options.probe_each_slice);
  const MediumStats at_formation = net.medium().stats();
  const std::uint64_t events_formation = net.sim().events_processed();
  const std::uint64_t model_calls_formation = a->counter ? a->counter->calls() : 0;

  const TimeUs run_end = config.warmup + config.measure + config.drain;
  report.steady = step_chunked(net.sim(), config.warmup, run_end, options.probe_each_slice);
  report.usage = process_usage();

  for (const auto& [id, node] : net.nodes()) {
    a->stats->set_joined(id, node->is_root() || node->rpl().joined());
  }
  report.result.metrics = a->stats->finalize();
  if (telemetry) telemetry->fill_probe_metrics(&report.result.metrics);
  MediumStats window = net.medium().stats();
  window.transmissions -= at_formation.transmissions;
  window.deliveries -= at_formation.deliveries;
  window.collision_losses -= at_formation.collision_losses;
  window.prr_losses -= at_formation.prr_losses;
  report.result.medium = window;
  report.result.fully_formed = net.fully_formed();

  report.counts =
      layer_counts(net, report.result, events_formation, at_formation, a->trace_events);
  const double steady_wall = sum(report.steady.walls);
  std::vector<double> slowdowns = report.formation.slowdowns;
  slowdowns.insert(slowdowns.end(), report.steady.slowdowns.begin(),
                   report.steady.slowdowns.end());
  const double events_steady =
      static_cast<double>(net.sim().events_processed() - events_formation);
  report.timings = {
      {"setup_s", median(setup)},
      {"scenario.topology_s", median(topology)},
      {"scenario.build_s", median(build)},
      {"scenario.start_s", median(start)},
      {"formation_wall_s", sum(report.formation.walls)},
      {"steady_wall_s", steady_wall},
      {"formation_norm_s", normalised(report.formation)},
      {"steady_norm_s", normalised(report.steady)},
      {"trace.host_slowdown", median(slowdowns)},
      {"steady_sim_s", us_to_s(run_end - config.warmup)},
      {"sim.events_per_s", events_steady / steady_wall},
  };

  if (telemetry) {
    report.traced = {
        {"telemetry.records", as_count(telemetry->records().size())},
        {"trace.sampler_events",
         as_count(telemetry->timeline() ? telemetry->timeline()->samples().size() : 0)},
    };
    if (!options.telemetry_path.empty()) {
      const auto t0 = Clock::now();
      if (!telemetry->write_jsonl(options.telemetry_path)) {
        die("cannot write " + options.telemetry_path);
      }
      report.traced.emplace_back("telemetry.write_s", seconds_since(t0));
      report.traced.emplace_back("telemetry.bytes", file_size(options.telemetry_path));
    }
  }
  if (options.traced) {
    const Values traced = {
        {"phy.model_calls", as_count(a->counter->calls() - model_calls_formation)},
        {"phy.model_calls_formation", as_count(model_calls_formation)},
        {"phy.model_s", a->counter->seconds()},
        {"net.parent_switches", count_events(*telemetry, "parent_switch")},
        {"net.detaches", count_events(*telemetry, "detach")},
        {"telemetry.dropped", as_count(telemetry->events_dropped())},
    };
    report.traced.insert(report.traced.end(), traced.begin(), traced.end());
  }
  if (options.replays) {
    for (const auto& entry : replay_timings(net, config)) report.traced.push_back(entry);
  }
  return report;
}

}  // namespace perfbench
