#include "scenario/node.hpp"

#include <new>

#include "sim/log.hpp"
#include "stats/telemetry.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"

namespace gttsch {

namespace {
/// Fork-tag base for reboot RNG derivation: boot k (k >= 1) builds its
/// stack from boot_rng_.fork(kRebootForkBase + k). Distinct from every
/// per-module tag used below, so reboot streams never collide with the
/// first boot's.
constexpr std::uint64_t kRebootForkBase = 0xB007;

/// Instantiate this node's MAC config, drawing its oscillator error.
MacConfig node_mac_config(const NodeStackConfig& config, Rng rng) {
  MacConfig mc = config.mac;
  if (config.max_drift_ppm > 0.0) {
    mc.drift_ppm =
        rng.fork(0xD81F).uniform_double(-config.max_drift_ppm, config.max_drift_ppm);
  }
  return mc;
}
}  // namespace

Node::Stack::Stack(Node& node, const MacConfig& mac_config, const Rng& rng)
    : mac(node.sim_, node.medium_, node.radio_, mac_config, rng.fork(0x3AC)),
      etx(),
      rpl(node.sim_, mac, etx, node.config_.rpl, rng.fork(0x491)),
      sixp(node.sim_, mac),
      app(node.sim_, rng.fork(0xA99), node.is_root_ ? 0.0 : node.config_.app_rate_ppm,
          [&node] { node.generate_packet(); }) {
  mac.set_upcalls(&node);
  rpl.set_callbacks(&node);
  sf = SfRegistry::instance().create(
      node.config_.scheduler,
      SfContext{node.sim_, mac, rpl, sixp, etx, rng.fork(0x67), node.config_.sf});
  if (node.config_.app_end != 0) app.set_end_time(node.config_.app_end);
}

Node::Node(Simulator& sim, Medium& medium, const NodeSpec& spec,
           const NodeStackConfig& config, RunStats* stats, Rng rng,
           Arena* stack_arena)
    : sim_(sim),
      medium_(medium),
      id_(spec.id),
      is_root_(spec.is_root),
      stats_(stats),
      rng_(rng),
      boot_rng_(rng),
      config_(config),
      mac_config_(node_mac_config(config, rng)),
      stack_arena_(stack_arena),
      radio_(sim, medium, spec.id, spec.pos),
      stack_(make_stack(rng)),
      app_start_(config.app_start),
      max_scan_start_delay_(config.max_scan_start_delay) {}

Node::~Node() = default;

std::size_t Node::stack_slot_size() { return sizeof(Stack); }
std::size_t Node::stack_slot_align() { return alignof(Stack); }

void Node::StackDeleter::operator()(Stack* stack) const noexcept {
  if (arena == nullptr) {
    delete stack;
    return;
  }
  stack->~Stack();
  arena->deallocate(stack);
}

auto Node::make_stack(const Rng& rng) -> std::unique_ptr<Stack, StackDeleter> {
  if (stack_arena_ == nullptr) {
    return {new Stack(*this, mac_config_, rng), StackDeleter{nullptr}};
  }
  void* slot = stack_arena_->allocate();
  return {new (slot) Stack(*this, mac_config_, rng), StackDeleter{stack_arena_}};
}

void Node::boot_stack() {
  // Provider wiring lives here, not in each SF: every scheduler answers
  // these through the common interface (advertised_free_rx defaults to 0
  // for autonomous SFs, so the DIO option stays inert for them).
  stack_->rpl.set_free_rx_provider([this] { return stack_->sf->advertised_free_rx(); });
  stack_->mac.set_eb_provider([this] { return stack_->sf->eb_info(); });
  stack_->sf->start(is_root_);
  if (is_root_) {
    stack_->rpl.start_as_root();
    stack_->mac.start_as_root();
  } else {
    stack_->rpl.start();
    const TimeUs delay = static_cast<TimeUs>(
        rng_.uniform(static_cast<std::uint64_t>(std::max<TimeUs>(1, max_scan_start_delay_))));
    // The epoch guard keeps a scan-start scheduled by this life from
    // firing into a later one (or a failed node): a crash inside the
    // delay window would otherwise start the next stack's scan twice.
    const int boot = reboots_;
    sim_.after(delay, [this, boot] {
      if (reboots_ == boot && !failed_) stack_->mac.start_scanning();
    });
  }
  stack_->app.start(app_start_);
}

// start/fail/reboot are the entry points that begin a node's causal chain
// (boot events, trace application): the ScopedOwner attributes everything
// they schedule to this node, so the chain's events take the node's place
// in same-instant ties (owners are part of the event order) instead of the
// global owner of the trace or scenario event that called them.

void Node::start() {
  Simulator::ScopedOwner owner(sim_, id_);
  boot_stack();
}

void Node::fail() {
  Simulator::ScopedOwner owner(sim_, id_);
  failed_ = true;
  stack_->app.stop();
  stack_->mac.shutdown();
  if (stats_ != nullptr) stats_->on_node_failed(id_, sim_.now());
}

void Node::reboot() {
  GTTSCH_CHECK(failed_ && "reboot() requires a prior fail()");
  Simulator::ScopedOwner owner(sim_, id_);
  ++reboots_;
  // Destroying the stack cancels every pending timer/callback of the old
  // life (RAII), so nothing from before the crash can fire afterwards.
  // The MAC destructor severs the radio hooks; the new MAC re-wires them.
  // With an arena the LIFO freelist hands the new stack the very slot the
  // old one vacated — the rebooted node stays where its neighbors expect
  // it in the slab, and churn never touches the global allocator.
  stack_.reset();
  stack_ = make_stack(
      boot_rng_.fork(kRebootForkBase + static_cast<std::uint64_t>(reboots_)));
  failed_ = false;
  set_telemetry(telemetry_);  // re-aim the 6P observer at the new agent
  boot_stack();
  if (stats_ != nullptr) stats_->on_node_rebooted(id_, sim_.now());
}

void Node::set_telemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ != nullptr) {
    stack_->sixp.set_transaction_observer(
        [this](NodeId peer, SixpCommand command, bool timed_out, bool ok) {
          telemetry_->on_sixp_done(id_, peer, command, timed_out, ok);
        });
  } else {
    stack_->sixp.set_transaction_observer(nullptr);
  }
}

bool Node::count_in_panels(const DataPayload& data) const {
  return !data.is_probe || telemetry_ == nullptr || telemetry_->probes_in_panels();
}

void Node::mac_associated(Asn, const Frame&) {
  if (telemetry_ != nullptr) telemetry_->on_associated(id_);
  if (stats_ != nullptr) stats_->on_associated(id_, sim_.now());
  stack_->sf->on_associated();
  stack_->rpl.start_soliciting();
}

void Node::mac_frame_received(const Frame& frame) {
  // SF-specific sniffing sees everything (GT-TSCH learns channels from EBs
  // and l^rx from DIOs).
  stack_->sf->on_frame(frame);
  switch (frame.type) {
    case FrameType::kData:
      handle_data(frame);
      break;
    case FrameType::kDio:
      stack_->rpl.on_dio(frame);
      break;
    case FrameType::kDis:
      stack_->rpl.on_dis(frame);
      break;
    case FrameType::kSixp:
      stack_->sixp.on_frame(frame);
      break;
    case FrameType::kEb:
    case FrameType::kAck:
      break;
  }
}

void Node::mac_tx_result(const Frame& frame, bool acked, int attempts) {
  if (frame.dst == kBroadcastId) return;
  stack_->rpl.on_tx_result(frame.dst, acked, attempts);
  if (!acked && frame.type == FrameType::kData) {
    const DataPayload& data = frame.as<DataPayload>();
    if (telemetry_ != nullptr) telemetry_->on_drop(id_, Telemetry::DropKind::kMac);
    if (stats_ != nullptr && count_in_panels(data))
      stats_->on_mac_drop(id_, sim_.now());
  }
}

void Node::rpl_parent_changed(NodeId old_parent, NodeId new_parent) {
  if (telemetry_ != nullptr) {
    if (old_parent == kNoNode) {
      telemetry_->on_join(id_, new_parent);
    } else if (new_parent != kNoNode) {
      telemetry_->on_parent_switch(id_, old_parent, new_parent);
    } else {
      telemetry_->on_detach(id_, old_parent);
    }
  }
  if (old_parent != kNoNode) {
    if (new_parent != kNoNode) {
      stack_->mac.queues().retarget(old_parent, new_parent);
    } else {
      // Detached (local repair): the backlog has nowhere to go.
      const std::size_t dropped = stack_->mac.queues().drop_queue(old_parent);
      for (std::size_t i = 0; i < dropped; ++i) {
        if (telemetry_ != nullptr)
          telemetry_->on_drop(id_, Telemetry::DropKind::kNoRoute);
        if (stats_ != nullptr) stats_->on_no_route(id_, sim_.now());
      }
    }
  }
  stack_->sixp.abort_peer(old_parent);
  stack_->sf->on_parent_changed(old_parent, new_parent);
  if (stats_ != nullptr) stats_->set_joined(id_, new_parent != kNoNode);
}

void Node::rpl_rank_changed(std::uint16_t) {}

void Node::generate_packet() {
  GTTSCH_CHECK(!is_root_);
  ++app_generated_;
  stack_->sf->on_local_packet_generated();
  const NodeId parent = stack_->rpl.parent();
  if (stats_ != nullptr) stats_->on_generated(id_, sim_.now());
  if (parent == kNoNode || !stack_->mac.associated()) {
    if (telemetry_ != nullptr) telemetry_->on_drop(id_, Telemetry::DropKind::kNoRoute);
    if (stats_ != nullptr) stats_->on_no_route(id_, sim_.now());
    return;
  }
  DataPayload data;
  data.origin = id_;
  data.seq = app_seq_++;
  data.generated_at = sim_.now();
  data.hops = 0;
  if (!stack_->mac.enqueue(make_data_frame(id_, parent, data))) {
    if (telemetry_ != nullptr) telemetry_->on_drop(id_, Telemetry::DropKind::kQueue);
    if (stats_ != nullptr) stats_->on_queue_drop(id_, sim_.now());
  }
}

void Node::send_probe() {
  GTTSCH_CHECK(telemetry_ != nullptr);
  if (failed_ || is_root_) return;
  const TimeUs now = sim_.now();
  DataPayload data;
  data.origin = id_;
  data.seq = probe_seq_++;
  data.generated_at = now;
  data.hops = 0;
  data.is_probe = true;
  telemetry_->on_probe_sent(id_, data.seq);
  // Probes deliberately skip sf->on_local_packet_generated(): they are
  // measurement traffic and must not inflate the scheduler's demand
  // estimate.
  const bool panels = telemetry_->probes_in_panels();
  if (panels && stats_ != nullptr) stats_->on_generated(id_, now);
  const NodeId parent = stack_->rpl.parent();
  if (parent == kNoNode || !stack_->mac.associated()) {
    telemetry_->on_drop(id_, Telemetry::DropKind::kNoRoute);
    if (panels && stats_ != nullptr) stats_->on_no_route(id_, now);
    return;
  }
  if (!stack_->mac.enqueue(make_data_frame(id_, parent, data))) {
    telemetry_->on_drop(id_, Telemetry::DropKind::kQueue);
    if (panels && stats_ != nullptr) stats_->on_queue_drop(id_, now);
  }
}

void Node::handle_data(const Frame& frame) {
  const DataPayload& data = frame.as<DataPayload>();
  if (is_root_) {
    if (data.is_probe && telemetry_ != nullptr)
      telemetry_->on_probe_delivered(data.origin, data.seq, data.generated_at,
                                     data.hops, sim_.now());
    if (stats_ != nullptr && count_in_panels(data))
      stats_->on_delivered(id_, data, sim_.now());
    return;
  }
  // Forward upward.
  const NodeId parent = stack_->rpl.parent();
  if (parent == kNoNode) {
    if (telemetry_ != nullptr) telemetry_->on_drop(id_, Telemetry::DropKind::kNoRoute);
    if (stats_ != nullptr && count_in_panels(data)) stats_->on_no_route(id_, sim_.now());
    return;
  }
  DataPayload fwd = data;
  fwd.hops = static_cast<std::uint8_t>(data.hops + 1);
  if (!stack_->mac.enqueue(make_data_frame(id_, parent, fwd))) {
    if (telemetry_ != nullptr) telemetry_->on_drop(id_, Telemetry::DropKind::kQueue);
    if (stats_ != nullptr && count_in_panels(data)) stats_->on_queue_drop(id_, sim_.now());
    return;
  }
  if (stats_ != nullptr && count_in_panels(data)) stats_->on_forwarded(id_, sim_.now());
}

}  // namespace gttsch
