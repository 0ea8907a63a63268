#include "scenario/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "phy/dynamic_link.hpp"
#include "stats/telemetry.hpp"
#include "util/check.hpp"

namespace gttsch {

NodeStackConfig ScenarioConfig::make_node_config() const {
  using namespace literals;
  NodeStackConfig nc;
  nc.scheduler = scheduler;

  // MAC per Table II: 15 ms slots, sequence {17,23,15,25,19,11,13,21},
  // EB period 2 s, 4 retransmissions.
  nc.mac.timing.slot_duration = 15_ms;
  nc.mac.eb_period = 2_s;
  nc.mac.max_retries = 4;
  nc.mac.data_queue_capacity = queue_capacity;

  // RPL: MRHOF-style ETX objective.
  nc.rpl.min_hop_rank_increase = 256;
  nc.rpl.root_rank = 256;

  // GT-TSCH layout: broadcast slots scale with the slotframe (m/8), three
  // shared slots per family (ceil(max_children/2) with |F|=8 -> 5 children).
  nc.sf.gt.layout.length = gt_slotframe_length;
  nc.sf.gt.layout.broadcast_slots =
      std::max<std::uint16_t>(2, static_cast<std::uint16_t>(gt_slotframe_length / 8));
  nc.sf.gt.layout.shared_slots = 3;
  nc.sf.gt.broadcast_offset = 0;
  nc.sf.gt.queue_max = static_cast<double>(queue_capacity);
  nc.sf.gt.load_balancer.weights = game::Weights{alpha, beta, gamma};
  nc.sf.gt.placement_rules.tx_margin = enforce_tx_margin;
  nc.sf.gt.placement_rules.interleave = enforce_interleave;

  nc.sf.orchestra.unicast_slotframe_length = orchestra_unicast_length;
  nc.sf.orchestra.unicast_channel_hash = orchestra_channel_hash;

  nc.sf.alice.unicast_slotframe_length = alice_unicast_length;
  nc.sf.emsf.slotframe_length = emsf_slotframe_length;

  nc.app_rate_ppm = traffic_ppm;
  nc.app_start = std::max<TimeUs>(5_s, warmup / 3);
  nc.app_end = warmup + measure;
  return nc;
}

TopologySpec ScenarioConfig::make_topology() const {
  switch (topology) {
    case TopologyKind::kMultiDodag:
      return build_multi_dodag(dodag_count, nodes_per_dodag, hop_distance);
    case TopologyKind::kGrid: {
      // Squarest grid holding topology_nodes; surplus corner cells (when
      // n is not a product of the chosen sides) are trimmed off the end.
      const int n = std::max(topology_nodes, 1);
      const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(n))));
      const int rows = (n + cols - 1) / cols;
      TopologySpec spec = build_grid(1, Position{0.0, 0.0}, cols, rows, hop_distance);
      spec.nodes.resize(static_cast<std::size_t>(n));
      return spec;
    }
    case TopologyKind::kLine: {
      // build_line counts hops, so a 1-node "line" is just the root.
      if (topology_nodes <= 1) return build_grid(1, Position{0.0, 0.0}, 1, 1, hop_distance);
      return build_line(1, Position{0.0, 0.0}, topology_nodes - 1, hop_distance);
    }
    case TopologyKind::kRandomDisk:
      return build_random_disk(1, Position{0.0, 0.0}, std::max(topology_nodes, 1),
                               disk_radius, hop_distance, topology_seed);
  }
  GTTSCH_CHECK(false);
  return {};
}

namespace {

bool fail_with(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Range checks shared by make_trace (before synthesizing) and
/// validate_trace (which must stay cheap — no synthesis).
bool check_generator_params(const ScenarioConfig& c, std::string* error) {
  if (!(c.trace_interval_s > 0) || !std::isfinite(c.trace_interval_s)) {
    return fail_with(error, "trace_interval_s must be a positive number of seconds");
  }
  if (c.trace_speed_mps < 0 || !std::isfinite(c.trace_speed_mps)) {
    return fail_with(error, "trace_speed_mps must be a non-negative speed");
  }
  if (c.trace_movers < 0) return fail_with(error, "trace_movers must be >= 0");
  if (c.trace_fail_count < 0) return fail_with(error, "trace_fail_count must be >= 0");
  if (c.trace_fail_at_s < 0 || !std::isfinite(c.trace_fail_at_s)) {
    return fail_with(error, "trace_fail_at_s must be a non-negative time in seconds");
  }
  if (c.trace_kind == TraceKind::kCrashloop) {
    if (!(c.trace_down_s > 0) || !std::isfinite(c.trace_down_s)) {
      return fail_with(error, "trace_down_s must be a positive number of seconds");
    }
    if (!(c.trace_cycle_s > c.trace_down_s) || !std::isfinite(c.trace_cycle_s)) {
      return fail_with(error, "trace_cycle_s must exceed trace_down_s");
    }
  }
  return true;
}

}  // namespace

bool ScenarioConfig::make_trace(const TopologySpec& topology, Trace* out,
                                std::string* error) const {
  out->events.clear();
  switch (trace_kind) {
    case TraceKind::kNone:
      return true;  // stray trace_* params are inert without a kind
    case TraceKind::kFile:
      if (trace.empty()) {
        return fail_with(error, "trace_kind=file requires trace=PATH");
      }
      if (!load_trace(trace, out, error)) return false;
      return validate_trace_nodes(*out, topology, error);
    case TraceKind::kRandomWalk:
    case TraceKind::kRandomWaypoint:
    case TraceKind::kCrashloop: {
      if (!check_generator_params(*this, error)) return false;
      TraceGenParams params;
      params.seed = trace_seed;
      params.movers = trace_movers;
      params.speed_mps = trace_speed_mps;
      params.interval_s = trace_interval_s;
      params.fail_count = trace_fail_count;
      params.fail_at_s =
          trace_fail_at_s > 0 ? trace_fail_at_s : us_to_s(warmup + measure / 2);
      params.down_s = trace_down_s;
      params.cycle_s = trace_cycle_s;
      params.start = warmup;
      params.end = warmup + measure;
      *out = generate_trace(trace_kind, topology, params);
      return true;
    }
  }
  GTTSCH_CHECK(false);
  return false;
}

bool ScenarioConfig::validate_trace(std::string* error) const {
  switch (trace_kind) {
    case TraceKind::kNone:
      return true;
    case TraceKind::kFile: {
      if (trace.empty()) {
        return fail_with(error, "trace_kind=file requires trace=PATH");
      }
      Trace t;
      if (!load_trace(trace, &t, error)) return false;
      return validate_trace_nodes(t, make_topology(), error);
    }
    case TraceKind::kRandomWalk:
    case TraceKind::kRandomWaypoint:
    case TraceKind::kCrashloop:
      return check_generator_params(*this, error);
  }
  GTTSCH_CHECK(false);
  return false;
}

Network::LinkModelFactory scenario_link_model_factory(const ScenarioConfig& config,
                                                      const Trace& trace,
                                                      DynamicLinkModel** failures) {
  const double radio_range = config.radio_range;
  const double link_prr = config.link_prr;
  const double interference_factor = config.interference_factor;
  const bool wants_failures = trace.needs_dynamic_model();
  return [radio_range, link_prr, interference_factor, wants_failures,
          failures](Simulator& sim) -> std::unique_ptr<LinkModel> {
    auto base =
        std::make_unique<UnitDiskModel>(radio_range, link_prr, interference_factor);
    if (!wants_failures) return base;
    auto dynamic = std::make_unique<DynamicLinkModel>(sim, std::move(base));
    if (failures != nullptr) *failures = dynamic.get();
    return dynamic;
  };
}

ExperimentResult run_scenario(const ScenarioConfig& config) {
  return run_scenario(config, nullptr);
}

namespace {

/// Shared body of run_scenario and run_scenario_guarded. `guard` == null
/// runs unguarded (always returns true); with a guard, a watchdog trip
/// returns false before any finalization so a partial run can never be
/// mistaken for a result.
bool run_scenario_impl(const ScenarioConfig& config, Telemetry* telemetry,
                       const RunGuard* guard, ExperimentResult* out,
                       std::string* error) {
  GTTSCH_CHECK(config.measure > 0);
  const TimeUs measure_end = config.warmup + config.measure;
  const TopologySpec topology = config.make_topology();

  Trace trace;
  std::string trace_error;
  if (!config.make_trace(topology, &trace, &trace_error)) {
    std::fprintf(stderr, "run_scenario: %s\n", trace_error.c_str());
    GTTSCH_CHECK(false && "invalid trace configuration");
  }

  RunStats stats(config.warmup, measure_end);
  if (trace.needs_dynamic_model()) {
    // Churn-phase split at the first churn event and the last churn event
    // of ANY kind (fail/revive/prr/pause/resume) + settle: a revival or a
    // link episode disturbs routing just like a failure, so the "post"
    // window must not start before the network last changed.
    TimeUs first_churn = 0, last_churn = 0;
    bool seen = false;
    for (const TraceEvent& e : trace.events) {
      if (e.kind == TraceEventKind::kMove) continue;
      if (!seen || e.at < first_churn) first_churn = e.at;
      if (!seen || e.at > last_churn) last_churn = e.at;
      seen = true;
    }
    stats.set_churn_phases(first_churn, last_churn + kChurnSettle);
  }
  DynamicLinkModel* failures = nullptr;
  Network net(config.seed, scenario_link_model_factory(config, trace, &failures),
              topology, config.make_node_config(), &stats);
  TracePlayer player(net, std::move(trace), failures);

  net.sim().at(config.warmup, [&stats] { stats.begin_measurement(); });
  net.sim().at(measure_end, [&stats] { stats.end_measurement(); });

  if (telemetry != nullptr) {
    telemetry->default_probe_window(config.warmup, measure_end);
    telemetry->attach(net, &stats);
  }

  if (guard != nullptr) {
    Watchdog watchdog;
    watchdog.max_wall_s = guard->max_wall_s;
    watchdog.livelock_events = guard->livelock_events;
    net.sim().arm_watchdog(watchdog);
  }

  auto tripped = [&] {
    if (!net.sim().watchdog_tripped()) return false;
    if (error != nullptr) {
      *error = "run aborted by watchdog: " + net.sim().watchdog_reason();
    }
    return true;
  };

  net.start();
  player.start();
  net.medium().reset_stats();  // formation noise excluded below via snapshot
  net.sim().run_until(config.warmup);
  if (tripped()) return false;
  const MediumStats at_warmup = net.medium().stats();
  net.sim().run_until(measure_end + config.drain);
  if (tripped()) return false;

  // Mark join state for the report.
  for (const auto& [id, node] : net.nodes())
    stats.set_joined(id, node->is_root() || node->rpl().joined());

  out->metrics = stats.finalize();
  if (telemetry != nullptr) telemetry->fill_probe_metrics(&out->metrics);
  MediumStats window = net.medium().stats();
  window.transmissions -= at_warmup.transmissions;
  window.deliveries -= at_warmup.deliveries;
  window.collision_losses -= at_warmup.collision_losses;
  window.prr_losses -= at_warmup.prr_losses;
  out->medium = window;
  out->fully_formed = net.fully_formed();
  return true;
}

}  // namespace

ExperimentResult run_scenario(const ScenarioConfig& config, Telemetry* telemetry) {
  ExperimentResult result;
  const bool ok =
      run_scenario_impl(config, telemetry, /*guard=*/nullptr, &result, nullptr);
  GTTSCH_CHECK(ok);  // unguarded runs cannot trip
  return result;
}

bool run_scenario_guarded(const ScenarioConfig& config, const RunGuard& guard,
                          ExperimentResult* out, std::string* error) {
  return run_scenario_impl(config, /*telemetry=*/nullptr, &guard, out, error);
}

AveragedMetrics run_averaged(ScenarioConfig config,
                             const std::vector<std::uint64_t>& seeds) {
  GTTSCH_CHECK(!seeds.empty());
  AveragedMetrics out;
  RunMetrics sum;
  for (const std::uint64_t seed : seeds) {
    config.seed = seed;
    const ExperimentResult r = run_scenario(config);
    sum.pdr_percent += r.metrics.pdr_percent;
    sum.avg_delay_ms += r.metrics.avg_delay_ms;
    sum.p95_delay_ms += r.metrics.p95_delay_ms;
    sum.loss_per_minute += r.metrics.loss_per_minute;
    sum.duty_cycle_percent += r.metrics.duty_cycle_percent;
    sum.queue_loss_per_node += r.metrics.queue_loss_per_node;
    sum.throughput_per_minute += r.metrics.throughput_per_minute;
    sum.generated += r.metrics.generated;
    sum.delivered += r.metrics.delivered;
    sum.queue_drops += r.metrics.queue_drops;
    sum.mac_drops += r.metrics.mac_drops;
    sum.no_route_drops += r.metrics.no_route_drops;
    sum.mean_hops += r.metrics.mean_hops;
    sum.measure_minutes += r.metrics.measure_minutes;
    sum.nodes_joined += r.metrics.nodes_joined;
    sum.node_count = r.metrics.node_count;
    sum.churn_phases |= r.metrics.churn_phases;
    sum.pre_generated += r.metrics.pre_generated;
    sum.churn_generated += r.metrics.churn_generated;
    sum.post_generated += r.metrics.post_generated;
    sum.pre_delivered += r.metrics.pre_delivered;
    sum.churn_delivered += r.metrics.churn_delivered;
    sum.post_delivered += r.metrics.post_delivered;
    sum.pre_pdr_percent += r.metrics.pre_pdr_percent;
    sum.churn_pdr_percent += r.metrics.churn_pdr_percent;
    sum.post_pdr_percent += r.metrics.post_pdr_percent;
    sum.pre_avg_delay_ms += r.metrics.pre_avg_delay_ms;
    sum.churn_avg_delay_ms += r.metrics.churn_avg_delay_ms;
    sum.post_avg_delay_ms += r.metrics.post_avg_delay_ms;
    sum.node_failures += r.metrics.node_failures;
    sum.node_revivals += r.metrics.node_revivals;
    sum.node_rejoins += r.metrics.node_rejoins;
    sum.orphan_intervals += r.metrics.orphan_intervals;
    sum.recovery_ttr_censored += r.metrics.recovery_ttr_censored;
    sum.recovery_rejoin_s += r.metrics.recovery_rejoin_s;
    sum.recovery_first_delivery_s += r.metrics.recovery_first_delivery_s;
    sum.recovery_ttr_s += r.metrics.recovery_ttr_s;
    out.medium_sum.transmissions += r.medium.transmissions;
    out.medium_sum.deliveries += r.medium.deliveries;
    out.medium_sum.collision_losses += r.medium.collision_losses;
    out.medium_sum.prr_losses += r.medium.prr_losses;
    if (r.fully_formed) ++out.fully_formed_runs;
    ++out.runs;
  }
  const double n = static_cast<double>(out.runs);
  out.mean = sum;
  out.mean.pdr_percent /= n;
  out.mean.avg_delay_ms /= n;
  out.mean.p95_delay_ms /= n;
  out.mean.loss_per_minute /= n;
  out.mean.duty_cycle_percent /= n;
  out.mean.queue_loss_per_node /= n;
  out.mean.throughput_per_minute /= n;
  out.mean.mean_hops /= n;
  out.mean.measure_minutes /= n;
  out.mean.pre_pdr_percent /= n;
  out.mean.churn_pdr_percent /= n;
  out.mean.post_pdr_percent /= n;
  out.mean.pre_avg_delay_ms /= n;
  out.mean.churn_avg_delay_ms /= n;
  out.mean.post_avg_delay_ms /= n;
  out.mean.recovery_rejoin_s /= n;
  out.mean.recovery_first_delivery_s /= n;
  out.mean.recovery_ttr_s /= n;
  return out;
}

std::vector<std::uint64_t> default_seeds() {
  int count = 3;
  if (const char* env = std::getenv("GTTSCH_SEEDS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0 && parsed <= 64) count = parsed;
  }
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(1000 + 17ull * static_cast<std::uint64_t>(i));
  return seeds;
}

const char* scheduler_name(const std::string& key) {
  const SfRegistry::Entry* entry = SfRegistry::instance().find(key);
  // The singleton's entries are stable for the process lifetime, so the
  // returned c_str() stays valid like the old literal did.
  return entry != nullptr ? entry->display_name.c_str() : "?";
}

const char* topology_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kMultiDodag:
      return "multi-dodag";
    case TopologyKind::kGrid:
      return "grid";
    case TopologyKind::kLine:
      return "line";
    case TopologyKind::kRandomDisk:
      return "random-disk";
  }
  return "?";
}

}  // namespace gttsch
