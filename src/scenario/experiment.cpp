#include "scenario/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

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
  // Only the file kind reads `trace`; anywhere else the path would be
  // silently ignored, which is almost surely a forgotten trace_kind=file.
  if (trace_kind != TraceKind::kFile && !trace.empty()) {
    return fail_with(error, "trace=PATH requires trace_kind=file");
  }
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

ScenarioRun::ScenarioRun(const ScenarioConfig& config, const ScenarioRunOptions& options)
    : config_(config),
      telemetry_(options.telemetry),
      stats_(config.warmup, config.warmup + config.measure) {
  GTTSCH_CHECK(config.measure > 0);
  const TimeUs measure_end = config.warmup + config.measure;
  const TopologySpec topology = config.make_topology();

  Trace trace;
  std::string trace_error;
  if (!config.make_trace(topology, &trace, &trace_error)) {
    std::fprintf(stderr, "run_scenario: %s\n", trace_error.c_str());
    GTTSCH_CHECK(false && "invalid trace configuration");
  }

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
    stats_.set_churn_phases(first_churn, last_churn + kChurnSettle);
  }
  NodeStackConfig node_config = config.make_node_config();
  if (options.edit_node_config) options.edit_node_config(node_config);
  DynamicLinkModel* failures = nullptr;
  net_ = std::make_unique<Network>(config.seed,
                                   scenario_link_model_factory(config, trace, &failures),
                                   topology, node_config, &stats_);
  player_ = std::make_unique<TracePlayer>(*net_, std::move(trace), failures);

  net_->sim().at(config.warmup, [this] { stats_.begin_measurement(); });
  net_->sim().at(measure_end, [this] { stats_.end_measurement(); });

  if (telemetry_ != nullptr) {
    telemetry_->default_probe_window(config.warmup, measure_end);
    telemetry_->attach(*net_, &stats_);
  }
}

void ScenarioRun::start() {
  net_->start();
  player_->start();
  net_->medium().reset_stats();  // formation noise excluded via the warmup snapshot
}

void ScenarioRun::step_until(TimeUs t) {
  Simulator& sim = net_->sim();
  if (!warmup_snapshot_taken_ && t >= config_.warmup) {
    sim.run_until(config_.warmup);
    at_warmup_ = net_->medium().stats();
    warmup_snapshot_taken_ = true;
  }
  sim.run_until(t);
}

TimeUs ScenarioRun::end() const {
  return config_.warmup + config_.measure + config_.drain;
}

ExperimentResult ScenarioRun::finish() {
  step_until(end());

  for (const auto& [id, node] : net_->nodes())
    stats_.set_joined(id, node->is_root() || node->rpl().joined());

  ExperimentResult out;
  out.metrics = stats_.finalize();
  if (telemetry_ != nullptr) telemetry_->fill_probe_metrics(&out.metrics);
  MediumStats window = net_->medium().stats();
  window.transmissions -= at_warmup_.transmissions;
  window.deliveries -= at_warmup_.deliveries;
  window.collision_losses -= at_warmup_.collision_losses;
  window.prr_losses -= at_warmup_.prr_losses;
  out.medium = window;
  out.fully_formed = net_->fully_formed();
  return out;
}

ExperimentResult run_scenario(const ScenarioConfig& config) {
  return run_scenario(config, nullptr);
}

ExperimentResult run_scenario(const ScenarioConfig& config, Telemetry* telemetry) {
  ScenarioRunOptions options;
  options.telemetry = telemetry;
  ScenarioRun run(config, options);
  run.start();
  return run.finish();
}

std::vector<std::uint64_t> default_seeds() { return {1000, 1017, 1034}; }

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
