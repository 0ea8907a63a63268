// Fast-path equivalence: idle-slot skipping must be *observably pure* —
// bit-identical MAC counters, Medium stats, RunStats, radio duty times and
// RNG consumption versus per-slot reference stepping
// (MacConfig::per_slot_stepping) — while processing strictly fewer
// simulator events.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "mac/tsch_mac.hpp"
#include "scenario/experiment.hpp"
#include "scenario/network.hpp"
#include "scenario/trace.hpp"
#include "sim/simulator.hpp"

namespace gttsch {
namespace {

using namespace literals;

struct NodeSnapshot {
  MacCounters mac;
  TimeUs radio_on = 0;
  TimeUs radio_tx = 0;
  TimeUs radio_rx = 0;
  TimeUs sync_correction = 0;
  Asn asn = 0;
  std::uint64_t app_generated = 0;
  bool joined = false;
};

struct ModeResult {
  RunMetrics metrics;
  MediumStats medium;
  std::map<NodeId, NodeSnapshot> nodes;
  std::uint64_t events_processed = 0;
  bool fully_formed = false;
};

/// One ScenarioRun with direct control of the node config: per-slot
/// reference stepping, clock drift and GT-TSCH broadcast slots. `setup`
/// (optional) runs after start() — e.g. to schedule mid-run moves; it must
/// be deterministic so both stepping modes see identical inputs.
ModeResult run_mode(ScenarioConfig sc, std::uint64_t seed, bool per_slot,
                    double max_drift_ppm = 0.0, std::uint16_t broadcast_slots = 0,
                    const std::function<void(Network&)>& setup = nullptr) {
  sc.seed = seed;
  ScenarioRunOptions options;
  options.edit_node_config = [&](NodeStackConfig& nc) {
    nc.mac.per_slot_stepping = per_slot;
    nc.max_drift_ppm = max_drift_ppm;
    if (broadcast_slots > 0) nc.sf.gt.layout.broadcast_slots = broadcast_slots;
  };
  ScenarioRun run(sc, options);
  run.start();
  if (setup) setup(run.network());
  const ExperimentResult result = run.finish();

  Network& net = run.network();
  ModeResult out;
  for (const auto& [id, node] : net.nodes()) {
    NodeSnapshot snap;
    snap.mac = node->mac().counters();
    snap.radio_on = node->radio().on_time();
    snap.radio_tx = node->radio().tx_time();
    snap.radio_rx = node->radio().rx_time();
    snap.sync_correction = node->mac().total_sync_correction();
    snap.asn = node->mac().asn();
    snap.app_generated = node->app_generated();
    snap.joined = node->is_root() || node->rpl().joined();
    out.nodes.emplace(id, snap);
  }
  out.metrics = result.metrics;
  out.medium = net.medium().stats();
  out.events_processed = net.sim().events_processed();
  out.fully_formed = result.fully_formed;
  return out;
}

void expect_identical(const ModeResult& fast, const ModeResult& ref) {
  // MAC counters, radio on-times and ASN per node: exact.
  ASSERT_EQ(fast.nodes.size(), ref.nodes.size());
  for (const auto& [id, f] : fast.nodes) {
    SCOPED_TRACE(::testing::Message() << "node " << id);
    const NodeSnapshot& r = ref.nodes.at(id);
    EXPECT_EQ(f.mac.unicast_tx_attempts, r.mac.unicast_tx_attempts);
    EXPECT_EQ(f.mac.unicast_success, r.mac.unicast_success);
    EXPECT_EQ(f.mac.unicast_drops, r.mac.unicast_drops);
    EXPECT_EQ(f.mac.retransmissions, r.mac.retransmissions);
    EXPECT_EQ(f.mac.broadcast_sent, r.mac.broadcast_sent);
    EXPECT_EQ(f.mac.eb_sent, r.mac.eb_sent);
    EXPECT_EQ(f.mac.rx_frames, r.mac.rx_frames);
    EXPECT_EQ(f.mac.rx_duplicates, r.mac.rx_duplicates);
    EXPECT_EQ(f.mac.acks_sent, r.mac.acks_sent);
    EXPECT_EQ(f.radio_on, r.radio_on);
    EXPECT_EQ(f.radio_tx, r.radio_tx);
    EXPECT_EQ(f.radio_rx, r.radio_rx);
    EXPECT_EQ(f.sync_correction, r.sync_correction);
    EXPECT_EQ(f.asn, r.asn);
    EXPECT_EQ(f.app_generated, r.app_generated);
    EXPECT_EQ(f.joined, r.joined);
  }

  // Medium stats: exact (same RNG draw sequence).
  EXPECT_EQ(fast.medium.transmissions, ref.medium.transmissions);
  EXPECT_EQ(fast.medium.deliveries, ref.medium.deliveries);
  EXPECT_EQ(fast.medium.collision_losses, ref.medium.collision_losses);
  EXPECT_EQ(fast.medium.prr_losses, ref.medium.prr_losses);

  // RunStats: bit-identical doubles, not just approximately equal.
  EXPECT_EQ(fast.metrics.pdr_percent, ref.metrics.pdr_percent);
  EXPECT_EQ(fast.metrics.avg_delay_ms, ref.metrics.avg_delay_ms);
  EXPECT_EQ(fast.metrics.p95_delay_ms, ref.metrics.p95_delay_ms);
  EXPECT_EQ(fast.metrics.loss_per_minute, ref.metrics.loss_per_minute);
  EXPECT_EQ(fast.metrics.duty_cycle_percent, ref.metrics.duty_cycle_percent);
  EXPECT_EQ(fast.metrics.queue_loss_per_node, ref.metrics.queue_loss_per_node);
  EXPECT_EQ(fast.metrics.throughput_per_minute, ref.metrics.throughput_per_minute);
  EXPECT_EQ(fast.metrics.generated, ref.metrics.generated);
  EXPECT_EQ(fast.metrics.delivered, ref.metrics.delivered);
  EXPECT_EQ(fast.metrics.queue_drops, ref.metrics.queue_drops);
  EXPECT_EQ(fast.metrics.mac_drops, ref.metrics.mac_drops);
  EXPECT_EQ(fast.metrics.no_route_drops, ref.metrics.no_route_drops);
  EXPECT_EQ(fast.metrics.mean_hops, ref.metrics.mean_hops);
  EXPECT_EQ(fast.metrics.nodes_joined, ref.metrics.nodes_joined);
  EXPECT_EQ(fast.fully_formed, ref.fully_formed);

  // Recovery accounting rides the same event stream, so it must agree too.
  EXPECT_EQ(fast.metrics.node_failures, ref.metrics.node_failures);
  EXPECT_EQ(fast.metrics.node_revivals, ref.metrics.node_revivals);
  EXPECT_EQ(fast.metrics.node_rejoins, ref.metrics.node_rejoins);
  EXPECT_EQ(fast.metrics.orphan_intervals, ref.metrics.orphan_intervals);
  EXPECT_EQ(fast.metrics.recovery_rejoin_s, ref.metrics.recovery_rejoin_s);
  EXPECT_EQ(fast.metrics.recovery_first_delivery_s,
            ref.metrics.recovery_first_delivery_s);
  EXPECT_EQ(fast.metrics.recovery_ttr_s, ref.metrics.recovery_ttr_s);
  EXPECT_EQ(fast.metrics.recovery_ttr_censored, ref.metrics.recovery_ttr_censored);

  // The entire point: the fast path must do strictly less event work.
  EXPECT_LT(fast.events_processed, ref.events_processed);
}

/// Fig 8 default setup (paper Section VIII), shortened run so the per-slot
/// reference stays cheap under sanitizers.
ScenarioConfig fig8_config(const std::string& kind) {
  ScenarioConfig sc;
  sc.scheduler = kind;
  sc.dodag_count = 2;
  sc.nodes_per_dodag = 7;  // 14 nodes total
  sc.traffic_ppm = 120.0;
  sc.gt_slotframe_length = 32;
  sc.orchestra_unicast_length = 8;
  sc.warmup = 120_s;
  sc.measure = 120_s;
  sc.drain = 10_s;
  return sc;
}

TEST(FastPathEquivalence, GtTschFig8SeedA) {
  const ScenarioConfig sc = fig8_config("gt-tsch");
  const ModeResult fast = run_mode(sc, 1000, /*per_slot=*/false);
  const ModeResult ref = run_mode(sc, 1000, /*per_slot=*/true);
  expect_identical(fast, ref);
}

TEST(FastPathEquivalence, GtTschFig8SeedB) {
  const ScenarioConfig sc = fig8_config("gt-tsch");
  const ModeResult fast = run_mode(sc, 1017, /*per_slot=*/false);
  const ModeResult ref = run_mode(sc, 1017, /*per_slot=*/true);
  expect_identical(fast, ref);
}

TEST(FastPathEquivalence, OrchestraFig8) {
  const ScenarioConfig sc = fig8_config("orchestra");
  const ModeResult fast = run_mode(sc, 1000, /*per_slot=*/false);
  const ModeResult ref = run_mode(sc, 1000, /*per_slot=*/true);
  expect_identical(fast, ref);
}

TEST(FastPathEquivalence, HoldsUnderClockDrift) {
  // ±40 ppm per-node oscillators: skipped spans must accumulate the exact
  // same drifted boundary times (bit-identical double residue) as stepping
  // slot by slot, including across EB time corrections.
  ScenarioConfig sc = fig8_config("gt-tsch");
  sc.dodag_count = 1;
  const ModeResult fast = run_mode(sc, 2000, /*per_slot=*/false, /*drift=*/40.0);
  const ModeResult ref = run_mode(sc, 2000, /*per_slot=*/true, /*drift=*/40.0);
  expect_identical(fast, ref);
}

TEST(FastPathEquivalence, SparseScheduleSkipsProportionally) {
  // Slotframe length 397 with GT-TSCH's default layout rule (m/8 -> 49
  // broadcast slots): ~15% occupancy, so the fast path should shed the
  // ~85% idle boundaries while every rx-guard listen still costs events.
  ScenarioConfig sc = fig8_config("gt-tsch");
  sc.dodag_count = 1;
  sc.gt_slotframe_length = 397;
  sc.traffic_ppm = 30.0;
  const ModeResult fast = run_mode(sc, 1000, /*per_slot=*/false);
  const ModeResult ref = run_mode(sc, 1000, /*per_slot=*/true);
  expect_identical(fast, ref);
  // Measured 52,792 fast vs 130,965 per-slot events (2.48x); counts are
  // deterministic, so the bound sits just under what the code does.
  EXPECT_LT(fast.events_processed * 12, ref.events_processed * 5);  // >= 2.4x
}

TEST(FastPathEquivalence, MinimalScheduleSkipsByOccupancy) {
  // 6TiSCH-minimal-style occupancy: length 397 with only 2 broadcast
  // slots (plus the shared/unicast handful) — the idle-slot-dominated
  // regime where skipping idle slots pays most. Events must collapse by
  // the occupancy ratio, not a constant factor.
  ScenarioConfig sc = fig8_config("gt-tsch");
  sc.dodag_count = 1;
  sc.gt_slotframe_length = 397;
  sc.traffic_ppm = 30.0;
  const ModeResult fast =
      run_mode(sc, 1000, /*per_slot=*/false, /*drift=*/0.0, /*broadcast_slots=*/2);
  const ModeResult ref =
      run_mode(sc, 1000, /*per_slot=*/true, /*drift=*/0.0, /*broadcast_slots=*/2);
  expect_identical(fast, ref);
  // Measured 3,103 fast vs 49,374 per-slot events (15.9x).
  EXPECT_LT(fast.events_processed * 15, ref.events_processed);  // >= 15x fewer
}

TEST(FastPathEquivalence, FiftyNodeGridTopology) {
  // A builder topology at campaign scale: 50-node grid, multihop routes.
  // Equivalence must hold through the heavier contention and the much
  // larger schedule population.
  ScenarioConfig sc = fig8_config("gt-tsch");
  sc.topology = TopologyKind::kGrid;
  sc.topology_nodes = 50;
  sc.traffic_ppm = 30.0;
  sc.warmup = 90_s;
  sc.measure = 60_s;
  const ModeResult fast = run_mode(sc, 1000, /*per_slot=*/false);
  const ModeResult ref = run_mode(sc, 1000, /*per_slot=*/true);
  ASSERT_EQ(fast.nodes.size(), 50u);
  expect_identical(fast, ref);
}

TEST(FastPathEquivalence, MobilityScenario) {
  // Mid-run moves invalidate the medium's link cache incrementally; the
  // skipping MAC must stay bit-identical while links fade and reform.
  ScenarioConfig sc = fig8_config("gt-tsch");
  sc.dodag_count = 1;
  sc.warmup = 120_s;
  sc.measure = 120_s;
  const auto roam = [](Network& net) {
    // Node 6 (a leaf) walks outward, far off, and back — losing and
    // re-gaining its parent link; node 4 jitters in place every 10 s.
    for (int step = 0; step < 8; ++step) {
      const double dx = step < 4 ? 20.0 * (step + 1) : 20.0 * (8 - step);
      net.sim().at(130_s + step * 10_s, [&net, dx] {
        Node& n = net.node(6);
        n.move_to({n.position().x + dx, n.position().y});
      });
    }
    for (int step = 0; step < 12; ++step) {
      const double dy = (step % 2 == 0) ? 2.0 : -2.0;
      net.sim().at(125_s + step * 10_s, [&net, dy] {
        Node& n = net.node(4);
        n.move_to({n.position().x, n.position().y + dy});
      });
    }
  };
  const ModeResult fast = run_mode(sc, 3000, false, 0.0, 0, roam);
  const ModeResult ref = run_mode(sc, 3000, true, 0.0, 0, roam);
  expect_identical(fast, ref);
}

/// Trace-driven churn (shared generator): movers walking plus one node
/// dying mid-measurement. The skipping MAC must stay bit-identical while
/// links fade, the victim's cells go dark, and RPL re-homes children.
ScenarioConfig trace_config(const std::string& kind) {
  ScenarioConfig sc = fig8_config(kind);
  sc.dodag_count = 1;  // 7 nodes
  sc.trace_kind = TraceKind::kRandomWalk;
  sc.trace_seed = 42;
  sc.trace_movers = 3;
  sc.trace_speed_mps = 3.0;
  sc.trace_interval_s = 5.0;
  sc.trace_fail_count = 1;
  sc.trace_fail_at_s = 180.0;  // mid-measurement
  return sc;
}

TEST(FastPathEquivalence, TraceDrivenGtTschTwoSeeds) {
  const ScenarioConfig sc = trace_config("gt-tsch");
  for (const std::uint64_t seed : {4000ull, 4017ull}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const ModeResult fast = run_mode(sc, seed, /*per_slot=*/false);
    const ModeResult ref = run_mode(sc, seed, /*per_slot=*/true);
    expect_identical(fast, ref);
  }
}

TEST(FastPathEquivalence, TraceDrivenOrchestraTwoSeeds) {
  const ScenarioConfig sc = trace_config("orchestra");
  for (const std::uint64_t seed : {4000ull, 4017ull}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const ModeResult fast = run_mode(sc, seed, /*per_slot=*/false);
    const ModeResult ref = run_mode(sc, seed, /*per_slot=*/true);
    expect_identical(fast, ref);
  }
}

/// Grammar-v2 churn: a leaf crash-reboots mid-measurement (fail -> revive ->
/// beacon-scan rejoin) while link-quality episodes fade and black out other
/// links. The fast path must stay bit-identical through the reboot's fresh
/// stack, the rejoin, and the recovery accounting it feeds.
ScenarioConfig revive_config(const std::string& kind, const std::string& path) {
  ScenarioConfig sc = fig8_config(kind);
  sc.dodag_count = 1;  // 7 nodes: root 1, routers 2-3, leaves 4-7
  sc.measure = 180_s;  // room for the slowest scheduler's beacon-scan rejoin
  sc.trace_kind = TraceKind::kFile;
  sc.trace = path;
  return sc;
}

TEST(FastPathEquivalence, ReviveAndLinkEpisodesTwoSchedulersTwoSeeds) {
  const std::string path = ::testing::TempDir() + "fast_path_revive.trace";
  Trace trace;
  std::string error;
  ASSERT_TRUE(parse_trace(
                  "150 fail 6\n"
                  "165 revive 6\n"
                  "180 prr 2 4 0.5\n"
                  "190 pause 3 5\n"
                  "200 prr 2 4 1\n"
                  "210 resume 3 5\n",
                  &trace, &error))
      << error;
  ASSERT_TRUE(save_trace(path, trace, &error)) << error;

  for (const char* scheduler : {"gt-tsch", "emsf"}) {
    const ScenarioConfig sc = revive_config(scheduler, path);
    for (const std::uint64_t seed : {4000ull, 4017ull}) {
      SCOPED_TRACE(::testing::Message() << scheduler << " seed " << seed);
      const ModeResult fast = run_mode(sc, seed, /*per_slot=*/false);
      const ModeResult ref = run_mode(sc, seed, /*per_slot=*/true);
      expect_identical(fast, ref);
      // The churn actually happened: one crash, one reboot, and the leaf
      // found its way back into the DODAG before the run ended.
      EXPECT_EQ(fast.metrics.node_failures, 1u);
      EXPECT_EQ(fast.metrics.node_revivals, 1u);
      EXPECT_EQ(fast.metrics.node_rejoins, 1u);
      EXPECT_GT(fast.metrics.recovery_rejoin_s, 0.0);
    }
  }
}

TEST(FastPathEquivalence, TraceFileEqualsGeneratorConfig) {
  // The acceptance contract: a scenario driven by a trace *file* and the
  // same scenario driven by the equivalent generator config produce
  // identical RunStats — and the file-driven run is itself bit-identical
  // between fast-path and per-slot stepping.
  const ScenarioConfig generated = trace_config("gt-tsch");

  // Materialize the generator's stream as a file.
  Trace trace;
  std::string error;
  ASSERT_TRUE(generated.make_trace(generated.make_topology(), &trace, &error)) << error;
  ASSERT_FALSE(trace.empty());
  const std::string path = ::testing::TempDir() + "fast_path_equiv.trace";
  ASSERT_TRUE(save_trace(path, trace, &error)) << error;

  ScenarioConfig from_file = generated;
  from_file.trace_kind = TraceKind::kFile;
  from_file.trace = path;

  const ModeResult gen_fast = run_mode(generated, 4000, /*per_slot=*/false);
  const ModeResult file_fast = run_mode(from_file, 4000, /*per_slot=*/false);
  const ModeResult file_ref = run_mode(from_file, 4000, /*per_slot=*/true);

  // File == generator, down to the event count (the very same streams).
  ASSERT_EQ(gen_fast.nodes.size(), file_fast.nodes.size());
  for (const auto& [id, g] : gen_fast.nodes) {
    SCOPED_TRACE(::testing::Message() << "node " << id);
    const NodeSnapshot& f = file_fast.nodes.at(id);
    EXPECT_EQ(g.mac.unicast_tx_attempts, f.mac.unicast_tx_attempts);
    EXPECT_EQ(g.mac.rx_frames, f.mac.rx_frames);
    EXPECT_EQ(g.radio_on, f.radio_on);
    EXPECT_EQ(g.asn, f.asn);
    EXPECT_EQ(g.joined, f.joined);
  }
  EXPECT_EQ(gen_fast.medium.transmissions, file_fast.medium.transmissions);
  EXPECT_EQ(gen_fast.medium.deliveries, file_fast.medium.deliveries);
  EXPECT_EQ(gen_fast.metrics.pdr_percent, file_fast.metrics.pdr_percent);
  EXPECT_EQ(gen_fast.metrics.avg_delay_ms, file_fast.metrics.avg_delay_ms);
  EXPECT_EQ(gen_fast.metrics.delivered, file_fast.metrics.delivered);
  EXPECT_EQ(gen_fast.events_processed, file_fast.events_processed);

  // ...and the file-driven scenario honors the fast-path contract too.
  expect_identical(file_fast, file_ref);
}

TEST(FastPathEquivalence, IdleAssociatedMacReportsCurrentAsn) {
  // A MAC with an empty schedule never wakes, yet asn() must track the
  // slot count a per-slot MAC would report at any query instant.
  Simulator sim(3);
  Medium medium(sim, std::make_unique<UnitDiskModel>(50.0), Rng(3));
  Radio radio(sim, medium, 1, {});
  TschMac mac(sim, medium, radio, MacConfig{}, Rng(4));
  mac.start_as_root();
  sim.run_until(1000 * 15_ms);
  EXPECT_EQ(mac.asn(), 1000u);
  sim.run_until(1000 * 15_ms + 7_ms);  // mid-slot
  EXPECT_EQ(mac.asn(), 1000u);
  sim.run_until(1001 * 15_ms);
  EXPECT_EQ(mac.asn(), 1001u);
}

TEST(FastPathEquivalence, LateInstalledCellIsServed) {
  // Installing a cell while the MAC sleeps through an empty schedule must
  // re-aim the wakeup: EBs start flowing from the next occurrence.
  Simulator sim(5);
  Medium medium(sim, std::make_unique<UnitDiskModel>(50.0), Rng(5));
  Radio radio(sim, medium, 1, {});
  TschMac mac(sim, medium, radio, MacConfig{}, Rng(6));
  mac.set_eb_provider([] { return EbPayload{}; });
  mac.start_as_root();
  sim.run_until(30_s);
  EXPECT_EQ(mac.counters().eb_sent, 0u);  // no cells, nothing to send on
  Cell bcast;
  bcast.slot_offset = 3;
  bcast.channel_offset = 0;
  bcast.options = kCellTx | kCellRx | kCellShared;
  bcast.neighbor = kBroadcastId;
  mac.schedule().add_slotframe(0, 101).add(bcast);
  sim.run_until(90_s);
  EXPECT_GE(mac.counters().eb_sent, 20u);  // EB period 2 s over 60 s
}

/// Everything observable about a two-MAC run driven directly (no Node
/// stack): both MACs' counters, radio times, ASNs and sync corrections,
/// the child's transmit outcomes and the medium's delivery stats.
struct BackToBackResult {
  std::map<NodeId, NodeSnapshot> nodes;
  std::vector<std::pair<bool, int>> child_tx_results;  // (acked, attempts)
  std::uint64_t root_data_received = 0;
  MediumStats medium;
  std::uint64_t events_processed = 0;
};

struct RecordingUpcalls final : MacUpcalls {
  std::vector<std::pair<bool, int>> tx_results;
  std::uint64_t data_received = 0;
  void mac_associated(Asn, const Frame&) override {}
  void mac_frame_received(const Frame& frame) override {
    if (frame.type == FrameType::kData) ++data_received;
  }
  void mac_tx_result(const Frame&, bool acked, int attempts) override {
    tx_results.emplace_back(acked, attempts);
  }
};

Cell cell_at(std::uint16_t slot, ChannelOffset ch, std::uint8_t options, NodeId neighbor) {
  Cell c;
  c.slot_offset = slot;
  c.channel_offset = ch;
  c.options = options;
  c.neighbor = neighbor;
  return c;
}

/// A root and a child whose schedules hold active cells at consecutive
/// offsets 0..3 of a 7-slot frame: the shared broadcast cell (EBs, so the
/// child resyncs to its time source), then the child's idle Tx cell toward
/// an absent neighbor, its idle Rx cell from that neighbor, and its Tx
/// cell toward the root that carries traffic. Each active slot's cutoff
/// boundary is the next active slot, so every one of them exercises the
/// wake that is already armed for the boundary being re-aimed at.
BackToBackResult run_back_to_back(bool per_slot, double child_drift_ppm) {
  constexpr NodeId kRoot = 1;
  constexpr NodeId kChild = 2;
  constexpr NodeId kAbsent = 3;
  Simulator sim(7);
  Medium medium(sim, std::make_unique<UnitDiskModel>(50.0), Rng(7));
  Radio root_radio(sim, medium, kRoot, {});
  Radio child_radio(sim, medium, kChild, {});
  MacConfig root_cfg;
  root_cfg.per_slot_stepping = per_slot;
  MacConfig child_cfg = root_cfg;
  child_cfg.drift_ppm = child_drift_ppm;
  TschMac root(sim, medium, root_radio, root_cfg, Rng(8));
  TschMac child(sim, medium, child_radio, child_cfg, Rng(9));
  RecordingUpcalls root_up, child_up;
  root.set_upcalls(&root_up);
  child.set_upcalls(&child_up);

  const Cell broadcast = cell_at(0, 0, kCellTx | kCellRx | kCellShared, kBroadcastId);
  root.set_eb_provider([] { return EbPayload{}; });
  root.start_as_root();
  auto& root_sf = root.schedule().add_slotframe(0, 7);
  root_sf.add(broadcast);
  root_sf.add(cell_at(3, 2, kCellRx, kChild));
  child.start_scanning();
  sim.run_until(30_s);
  EXPECT_TRUE(child.associated());
  auto& child_sf = child.schedule().add_slotframe(0, 7);
  child_sf.add(broadcast);
  child_sf.add(cell_at(1, 1, kCellTx, kAbsent));  // nothing queued: idle
  child_sf.add(cell_at(2, 1, kCellRx, kAbsent));  // nobody sends: idle listen
  child_sf.add(cell_at(3, 2, kCellTx, kRoot));
  // Traffic at a period that is not a multiple of the slotframe, so frames
  // arrive both inside and between the back-to-back block.
  for (int i = 0; i < 400; ++i) {
    sim.at(30_s + i * 233_ms, [&child, i] {
      child.enqueue(make_data_frame(kChild, kRoot,
                                    DataPayload{kChild, static_cast<std::uint32_t>(i), 0, 0}));
    });
  }
  sim.run_until(130_s);

  BackToBackResult out;
  for (const TschMac* mac : {&root, &child}) {
    const Radio& radio = mac == &root ? root_radio : child_radio;
    NodeSnapshot snap;
    snap.mac = mac->counters();
    snap.radio_on = radio.on_time();
    snap.radio_tx = radio.tx_time();
    snap.radio_rx = radio.rx_time();
    snap.sync_correction = mac->total_sync_correction();
    snap.asn = mac->asn();
    out.nodes.emplace(mac->id(), snap);
  }
  out.child_tx_results = child_up.tx_results;
  out.root_data_received = root_up.data_received;
  out.medium = medium.stats();
  out.events_processed = sim.events_processed();
  return out;
}

void expect_back_to_back_identical(const BackToBackResult& fast, const BackToBackResult& ref) {
  for (const auto& [id, f] : fast.nodes) {
    SCOPED_TRACE(::testing::Message() << "node " << id);
    const NodeSnapshot& r = ref.nodes.at(id);
    EXPECT_EQ(f.mac.unicast_tx_attempts, r.mac.unicast_tx_attempts);
    EXPECT_EQ(f.mac.unicast_success, r.mac.unicast_success);
    EXPECT_EQ(f.mac.retransmissions, r.mac.retransmissions);
    EXPECT_EQ(f.mac.eb_sent, r.mac.eb_sent);
    EXPECT_EQ(f.mac.rx_frames, r.mac.rx_frames);
    EXPECT_EQ(f.mac.acks_sent, r.mac.acks_sent);
    EXPECT_EQ(f.radio_on, r.radio_on);
    EXPECT_EQ(f.radio_tx, r.radio_tx);
    EXPECT_EQ(f.radio_rx, r.radio_rx);
    EXPECT_EQ(f.sync_correction, r.sync_correction);
    EXPECT_EQ(f.asn, r.asn);
  }
  EXPECT_EQ(fast.child_tx_results, ref.child_tx_results);
  EXPECT_EQ(fast.root_data_received, ref.root_data_received);
  EXPECT_EQ(fast.medium.transmissions, ref.medium.transmissions);
  EXPECT_EQ(fast.medium.deliveries, ref.medium.deliveries);
  EXPECT_EQ(fast.medium.collision_losses, ref.medium.collision_losses);
  EXPECT_EQ(fast.medium.prr_losses, ref.medium.prr_losses);
  EXPECT_LT(fast.events_processed, ref.events_processed);
}

TEST(FastPathEquivalence, BackToBackActiveSlots) {
  const BackToBackResult fast = run_back_to_back(/*per_slot=*/false, /*drift=*/0.0);
  const BackToBackResult ref = run_back_to_back(/*per_slot=*/true, /*drift=*/0.0);
  expect_back_to_back_identical(fast, ref);
  EXPECT_GT(fast.root_data_received, 300u);  // the traffic cell really carried frames
}

TEST(FastPathEquivalence, BackToBackActiveSlotsUnderDriftAndResync) {
  // The child's oscillator runs 40 ppm slow and every EB from the root
  // shifts its slot anchor and its armed wake (maybe_resync).
  const BackToBackResult fast = run_back_to_back(/*per_slot=*/false, /*drift=*/40.0);
  const BackToBackResult ref = run_back_to_back(/*per_slot=*/true, /*drift=*/40.0);
  expect_back_to_back_identical(fast, ref);
  EXPECT_GT(fast.nodes.at(2).sync_correction, 0);
  EXPECT_GT(fast.root_data_received, 300u);
}

TEST(FastPathEquivalence, CellRemovedAndRestoredBeforeItsSlotIsServed) {
  // Emptying the schedule stops the armed wake; putting the same cell back
  // before its slot comes round must arm that very boundary again, even
  // though it equals the wake the MAC had armed before.
  Simulator sim(5);
  Medium medium(sim, std::make_unique<UnitDiskModel>(50.0), Rng(5));
  Radio radio(sim, medium, 1, {});
  TschMac mac(sim, medium, radio, MacConfig{}, Rng(6));
  mac.set_eb_provider([] { return EbPayload{}; });
  mac.start_as_root();
  const Cell bcast = cell_at(3, 0, kCellTx | kCellRx | kCellShared, kBroadcastId);
  mac.schedule().add_slotframe(0, 101).add(bcast);
  sim.run_until(30_s + 7_ms);  // mid-slot, with the next slot-3 wake armed
  const std::uint64_t before = mac.counters().eb_sent;
  {
    // Edit under the node's own owner id, as its protocol events would.
    Simulator::ScopedOwner owner(sim, radio.id());
    mac.schedule().get(0)->remove(bcast);
    mac.schedule().get(0)->add(bcast);
  }
  sim.run_until(90_s);
  EXPECT_GE(mac.counters().eb_sent, before + 20);  // EB period 2 s over 60 s
}

}  // namespace
}  // namespace gttsch
