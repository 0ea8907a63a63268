// The full per-node protocol stack: radio + TSCH MAC + RPL + 6P + a
// scheduling function + application traffic. This is the integration
// layer that dispatches MAC upcalls to the right protocol module and
// implements convergecast forwarding. The scheduling function is chosen
// by registry key (sixp/sf_registry.hpp) and driven exclusively through
// the SchedulingFunction interface — no downcasts.
//
// The protocol stack lives behind one indirection (Stack) so a failed
// node can crash-reboot: reboot() destroys every protocol object (RAII
// timers cancel all pending callbacks) and rebuilds them from the stored
// boot config — fresh MAC/RPL/SF state, same radio hardware (position,
// oscillator drift, energy accounting persist).
#pragma once

#include <memory>
#include <string>

#include "app/traffic.hpp"
#include "mac/tsch_mac.hpp"
#include "net/rpl.hpp"
#include "phy/medium.hpp"
#include "scenario/topology.hpp"
#include "sixp/sf.hpp"
#include "sixp/sf_registry.hpp"
#include "sixp/sixp.hpp"
#include "stats/run_stats.hpp"

namespace gttsch {

class Telemetry;

struct NodeStackConfig {
  std::string scheduler = "gt-tsch";  ///< SfRegistry key (or alias)
  MacConfig mac;
  RplConfig rpl;
  SfConfigs sf;  ///< per-scheduler config blobs; the factory reads its own
  double app_rate_ppm = 0.0;  ///< 0 = no local traffic (roots)
  TimeUs app_start = 5000000;
  TimeUs app_end = 0;  ///< absolute; 0 = run forever
  /// Non-root nodes begin scanning after a random delay below this bound.
  TimeUs max_scan_start_delay = 2000000;
  /// Per-node oscillator error drawn uniformly from [-max, +max] ppm
  /// (0 = perfect clocks). EB time corrections keep drifted nodes aligned.
  double max_drift_ppm = 0.0;
};

class Node final : public MacUpcalls, public RplCallbacks {
 public:
  Node(Simulator& sim, Medium& medium, const NodeSpec& spec, const NodeStackConfig& config,
       RunStats* stats, Rng rng);
  ~Node() override;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Boot the stack (roots start the TSCH network; others scan).
  void start();

  /// Simulate node failure: the stack halts and the radio goes silent.
  /// Pair with DynamicLinkModel::kill_node so in-flight frames die too.
  void fail();

  /// Crash-reboot a failed node: the entire protocol stack is torn down
  /// and reconstructed (fresh MAC/RPL/SF/6P/app state, queues empty) and
  /// the node re-associates from a beacon scan. The radio object persists
  /// — position and energy accounting carry over, and the oscillator
  /// keeps its drift (same hardware). App/probe sequence counters also
  /// persist so delivered-packet accounting stays unambiguous at the root.
  /// Pair with DynamicLinkModel::revive_node. Deterministic: boot k draws
  /// its protocol RNG streams from fork tags fixed by (node seed, k).
  void reboot();

  bool failed() const { return failed_; }
  /// Number of completed reboot() calls.
  int reboots() const { return reboots_; }

  /// Relocate the node (mobility). Takes effect for all subsequent
  /// transmissions; link qualities follow the distance-based model.
  void move_to(Position pos) { radio_.set_position(pos); }
  const Position& position() const { return radio_.position(); }

  NodeId id() const { return id_; }
  bool is_root() const { return is_root_; }

  Radio& radio() { return radio_; }
  TschMac& mac() { return stack_->mac; }
  RplAgent& rpl() { return stack_->rpl; }
  SixpAgent& sixp() { return stack_->sixp; }
  EtxEstimator& etx() { return stack_->etx; }
  SchedulingFunction& sf() { return *stack_->sf; }
  const SchedulingFunction& sf() const { return *stack_->sf; }

  std::uint64_t app_generated() const { return app_generated_; }

  /// Attach a telemetry recorder (null detaches). Hooks are pointer-gated
  /// null checks, so a run without telemetry stays allocation-free.
  void set_telemetry(Telemetry* telemetry);

  /// Send one telemetry probe frame toward the root: real traffic marked
  /// DataPayload::is_probe, excluded from the RunStats panel metrics
  /// unless the telemetry config counts probes in panels. Only valid with
  /// a telemetry recorder attached.
  void send_probe();

  // MacUpcalls:
  void mac_associated(Asn asn, const Frame& eb) override;
  void mac_frame_received(const Frame& frame) override;
  void mac_tx_result(const Frame& frame, bool acked, int attempts) override;

  // RplCallbacks:
  void rpl_parent_changed(NodeId old_parent, NodeId new_parent) override;
  void rpl_rank_changed(std::uint16_t rank) override;

 private:
  /// Every protocol object above the radio, grouped so reboot() can tear
  /// them down and rebuild them as one unit. Construction wires the MAC
  /// upcalls, RPL callbacks and the SF factory exactly like first boot.
  struct Stack {
    Stack(Node& node, const MacConfig& mac_config, const Rng& rng);

    TschMac mac;
    EtxEstimator etx;
    RplAgent rpl;
    SixpAgent sixp;
    std::unique_ptr<SchedulingFunction> sf;
    PeriodicSource app;
  };

  /// Shared boot path: provider wiring + SF/RPL/MAC start + app start.
  void boot_stack();
  void generate_packet();
  void handle_data(const Frame& frame);
  /// False only for probe frames the telemetry config excludes from the
  /// panel metrics.
  bool count_in_panels(const DataPayload& data) const;

  Simulator& sim_;
  Medium& medium_;
  NodeId id_;
  bool is_root_;
  RunStats* stats_;
  Telemetry* telemetry_ = nullptr;
  Rng rng_;
  /// Immutable copy of the construction RNG: reboot k derives its stack
  /// streams as boot_rng_.fork(kRebootForkBase + k), so replay is exact in
  /// both stepping modes and independent of how much entropy the first
  /// life consumed.
  const Rng boot_rng_;
  const NodeStackConfig config_;
  const MacConfig mac_config_;  ///< resolved once (drift = the oscillator)

  Radio radio_;
  std::unique_ptr<Stack> stack_;
  TimeUs app_start_;
  TimeUs max_scan_start_delay_;

  std::uint32_t app_seq_ = 0;
  std::uint64_t app_generated_ = 0;
  std::uint32_t probe_seq_ = 0;
  int reboots_ = 0;
  bool failed_ = false;
};

}  // namespace gttsch
