// Experiment runner: turns a declarative ScenarioConfig (Table II settings,
// topology, traffic, scheduler) into one run's RunMetrics — the engine
// behind every figure-reproduction bench (the campaign layer averages
// over seeds).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scenario/network.hpp"
#include "scenario/trace.hpp"

namespace gttsch {

/// Topology family a scenario is built on. kMultiDodag is the paper's
/// setup (independent Fig-6-shaped DODAGs); the builder kinds open the
/// large-scale workloads (50/100/200-node grids, chains and random
/// multihop meshes) as first-class, campaign-sweepable scenarios.
enum class TopologyKind : std::uint8_t { kMultiDodag, kGrid, kLine, kRandomDisk };

struct ScenarioConfig {
  /// SfRegistry key ("gt-tsch", "orchestra", "alice", "emsf"); the
  /// campaign parser canonicalizes aliases before runs and fingerprints.
  std::string scheduler = "gt-tsch";

  // Topology. kMultiDodag uses dodag_count x nodes_per_dodag; the builder
  // kinds (grid / line / random-disk) place `topology_nodes` total nodes
  // with `hop_distance` spacing (grid pitch, chain step, or the
  // random-disk connectivity radius).
  TopologyKind topology = TopologyKind::kMultiDodag;
  int dodag_count = 2;
  int nodes_per_dodag = 7;
  double hop_distance = 30.0;
  int topology_nodes = 50;        ///< total nodes for grid/line/random-disk
  double disk_radius = 120.0;     ///< random-disk placement radius
  std::uint64_t topology_seed = 1;  ///< random-disk placement stream

  // Radio / medium.
  double radio_range = 40.0;
  double interference_factor = 1.6;
  double link_prr = 1.0;

  // Traffic (per non-root node).
  double traffic_ppm = 30.0;

  // Schedules. GT-TSCH uses one slotframe of gt_slotframe_length; per the
  // paper's fairness rule (Section VIII) it is 4x Orchestra's unicast
  // slotframe length in the Fig 10 sweep.
  std::uint16_t gt_slotframe_length = 32;
  std::uint16_t orchestra_unicast_length = 8;

  // Orchestra channel strategy (the Section III critique): false = one
  // fixed unicast offset (Contiki-NG default), true = hashed per receiver.
  bool orchestra_channel_hash = false;

  // Baseline-scheduler knobs (sweepable like the two above): ALICE's
  // unicast/rehash slotframe length and e-MSF's single slotframe length.
  std::uint16_t alice_unicast_length = 8;
  std::uint16_t emsf_slotframe_length = 32;

  // Queueing (Q_Max).
  std::size_t queue_capacity = 16;

  // Game weights (alpha, beta, gamma).
  double alpha = 4.0;
  double beta = 1.0;
  double gamma = 1.0;

  // Section V placement-rule toggles (for the ablation bench).
  bool enforce_tx_margin = true;
  bool enforce_interleave = true;

  // Timing.
  TimeUs warmup = 180000000;    ///< formation + settling
  TimeUs measure = 300000000;   ///< measurement window length
  TimeUs drain = 10000000;      ///< run-out so in-flight packets arrive

  // Mobility & failure trace (scenario/trace.hpp). kNone runs static;
  // kFile plays the `trace` file; the generator kinds synthesize a
  // deterministic stream over [warmup, warmup + measure) from trace_seed.
  TraceKind trace_kind = TraceKind::kNone;
  std::uint64_t trace_seed = 1;     ///< generator stream (independent of `seed`)
  int trace_movers = 8;             ///< nodes walking (generator kinds)
  int trace_fail_count = 0;         ///< nodes that die mid-run
  double trace_speed_mps = 1.5;     ///< mover speed (meters/second)
  double trace_interval_s = 2.0;    ///< move tick / failure stagger period
  double trace_fail_at_s = 0.0;     ///< first failure (absolute s); 0 = window midpoint
  double trace_down_s = 30.0;       ///< crashloop: downtime before each revive
  double trace_cycle_s = 120.0;     ///< crashloop: fail-to-fail period per node
  std::string trace;                ///< trace file path (trace_kind == kFile)

  std::uint64_t seed = 1;

  bool operator==(const ScenarioConfig&) const = default;

  /// Derived: Table-II-style MAC settings for this scenario.
  NodeStackConfig make_node_config() const;
  TopologySpec make_topology() const;

  /// Builds this scenario's trace against `topology` (empty for kNone):
  /// loads + validates the file for kFile, synthesizes for the generator
  /// kinds. Returns false with a message (including the offending line for
  /// file traces) on any invalid configuration.
  bool make_trace(const TopologySpec& topology, Trace* out, std::string* error) const;

  /// The campaign layer's pre-run check that a grid point's trace setup is
  /// sound before any simulation starts: generator params range-checked,
  /// file traces loaded and their node ids checked against this config's
  /// own topology, and a `trace` path refused under any kind but kFile.
  /// Cheap — never synthesizes a generator stream.
  bool validate_trace(std::string* error) const;
};

/// Link-model factory for a scenario run: the UnitDisk model from the
/// config's radio fields, wrapped in a DynamicLinkModel only when `trace`
/// carries failure events (kill_node silences in-flight frames; move-only
/// and static runs stay on the plain model). `*failures` (optional)
/// receives the wrapper when the factory runs — hand it to TracePlayer.
/// Captures by value: safe to use after `config`/`trace` go out of scope.
Network::LinkModelFactory scenario_link_model_factory(const ScenarioConfig& config,
                                                      const Trace& trace,
                                                      DynamicLinkModel** failures);

/// One run (single seed): the panel metrics, the measurement window's
/// medium counters and whether the network finished fully formed.
struct ExperimentResult {
  RunMetrics metrics;
  MediumStats medium;
  bool fully_formed = false;
};

class Telemetry;

/// What a run needs beyond its ScenarioConfig. None of it is part of a
/// scenario's identity, so campaign fingerprints never see it.
struct ScenarioRunOptions {
  /// Recorder to attach (gauges, probes, event trace); written out by the
  /// caller. With probes disabled the result is bit-identical to a bare run.
  Telemetry* telemetry = nullptr;
  /// Edits the derived node config before the network is built: per-slot
  /// reference stepping, clock drift, broadcast slots.
  std::function<void(NodeStackConfig&)> edit_node_config;
};

/// The one assembly of a scenario run — topology, trace, RunStats (with
/// the churn-phase split), Network, TracePlayer and the measurement-window
/// events — and the warmup / measurement / drain protocol behind every
/// figure. run_scenario, campaign jobs, examples and the equivalence tests
/// all drive this class. An invalid trace configuration aborts.
class ScenarioRun {
 public:
  explicit ScenarioRun(const ScenarioConfig& config,
                       const ScenarioRunOptions& options = {});
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  /// Boots the network and the trace player and zeroes the medium stats.
  /// Call once, before stepping; events scheduled on network() in between
  /// run as part of the scenario.
  void start();

  /// Runs the simulation through virtual time `t`, in any slicing: the
  /// medium snapshot that opens the measurement window is taken at
  /// config.warmup whatever the slice bounds.
  void step_until(TimeUs t);

  /// End of the run: warmup + measure + drain.
  TimeUs end() const;

  /// Steps to end() if needed, then reports the run. Call once.
  ExperimentResult finish();

  /// The live network, for per-node inspection before or after finish().
  Network& network() { return *net_; }

 private:
  // Destroyed bottom-up: the player and the network go before the stats
  // they report to.
  ScenarioConfig config_;
  Telemetry* telemetry_;
  RunStats stats_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<TracePlayer> player_;
  MediumStats at_warmup_;
  bool warmup_snapshot_taken_ = false;
};

/// ScenarioRun to the end, no telemetry.
ExperimentResult run_scenario(const ScenarioConfig& config);

/// Same run with a telemetry recorder attached; its probe summary is
/// copied into the returned metrics.
ExperimentResult run_scenario(const ScenarioConfig& config, Telemetry* telemetry);

/// Default seed list used by the figure benches (override length with the
/// GTTSCH_SEEDS environment variable).
std::vector<std::uint64_t> default_seeds();

/// Registry display name ("GT-TSCH") for a scheduler key or alias; "?"
/// for unknown keys — derived from SfRegistry, never a parallel table.
const char* scheduler_name(const std::string& key);
const char* topology_name(TopologyKind kind);

}  // namespace gttsch
