#include "mac/tsch_mac.hpp"

#include <algorithm>

#include "sim/log.hpp"
#include "util/check.hpp"

namespace gttsch {

namespace {
constexpr std::size_t kDedupWindow = 16;

/// One slot of drifted-boundary arithmetic: the oscillator error adds
/// `step` (fractional) microseconds per slot; whole microseconds extend
/// the boundary, the sub-microsecond residue carries over. Every consumer
/// of the slot timeline — wake arming, anchor advance, asn() — must share
/// this exact operation sequence, or skipped spans stop being
/// bit-identical to per-slot stepping.
struct DriftWalk {
  double step;
  double accum;

  static DriftWalk from(const MacConfig& config, double accum) {
    return {static_cast<double>(config.timing.slot_duration) * config.drift_ppm * 1e-6,
            accum};
  }

  /// Advance one slot; returns the extra whole microseconds beyond the
  /// nominal slot duration (truncated toward zero, residue retained).
  TimeUs advance() {
    accum += step;
    const TimeUs extra = static_cast<TimeUs>(accum);  // trunc toward zero
    accum -= static_cast<double>(extra);
    return extra;
  }
};
}  // namespace

TschMac::TschMac(Simulator& sim, Medium& medium, Radio& radio, MacConfig config, Rng rng)
    : sim_(sim),
      medium_(medium),
      radio_(radio),
      config_(std::move(config)),
      rng_(rng),
      queues_(config_.data_queue_capacity, config_.control_queue_capacity),
      slot_timer_(sim, radio.id()),
      action_timer_(sim),
      ack_timer_(sim),
      ack_tx_timer_(sim),
      radio_off_timer_(sim),
      scan_timer_(sim) {
  radio_.on_rx = [this](FramePtr f) { on_radio_rx(std::move(f)); };
  radio_.on_tx_done = [this] { on_radio_tx_done(); };
  schedule_.set_change_listener([this] { on_schedule_changed(); });
}

TschMac::~TschMac() {
  radio_.on_rx = nullptr;
  radio_.on_tx_done = nullptr;
}

void TschMac::set_eb_provider(std::function<std::optional<EbPayload>()> provider) {
  eb_provider_ = std::move(provider);
}

void TschMac::start_as_root() {
  GTTSCH_CHECK(state_ == State::kOff);
  state_ = State::kAssociated;
  asn_ = 0;
  current_slot_start_ = sim_.now();
  drift_accum_ = 0.0;
  anchor_slot_active_ = false;
  time_source_ = radio_.id();
  eb_next_due_ = sim_.now() + static_cast<TimeUs>(rng_.uniform(
                     static_cast<std::uint64_t>(config_.eb_period)));
  // Arm slot 0 for *now* before the upcall: the scheduling function
  // installs its first cells inside mac_associated, and the change
  // listener must see the pending wake so it does not re-aim past slot 0.
  wake_asn_ = 0;
  wake_drift_accum_ = 0.0;
  next_slot_time_ = sim_.now();
  arm_slot_timer();
  if (upcalls_ != nullptr) {
    Frame synthetic;
    synthetic.type = FrameType::kEb;
    synthetic.src = radio_.id();
    synthetic.payload = EbPayload{};
    upcalls_->mac_associated(0, synthetic);
  }
}

void TschMac::start_scanning() {
  GTTSCH_CHECK(state_ == State::kOff);
  state_ = State::kScanning;
  scan_channel_index_ = static_cast<std::size_t>(rng_.uniform(config_.hopping.size()));
  scan_hop();
}

void TschMac::shutdown() {
  if (state_ == State::kAssociated) {
    // Freeze the on-demand ASN: once state_ leaves kAssociated, asn()
    // reports the stored anchor verbatim, so walk it to now first — a MAC
    // killed mid-run must report the same final ASN whether the anchor was
    // advanced every slot or left behind by idle-slot skipping.
    walk_anchor(asn_, current_slot_start_, drift_accum_, sim_.now());
  }
  slot_timer_.stop();
  action_timer_.stop();
  ack_timer_.stop();
  ack_tx_timer_.stop();
  radio_off_timer_.stop();
  scan_timer_.stop();
  pending_tx_.reset();
  awaiting_ack_ = false;
  state_ = State::kOff;
  if (radio_.state() == RadioState::kListening) radio_.turn_off();
}

void TschMac::scan_hop() {
  radio_.listen(config_.hopping.sequence()[scan_channel_index_]);
  scan_channel_index_ = (scan_channel_index_ + 1) % config_.hopping.size();
  scan_timer_.start(config_.scan_dwell, [this] { scan_hop(); });
}

void TschMac::associate_from_eb(const Frame& frame) {
  const EbPayload& eb = frame.as<EbPayload>();
  scan_timer_.stop();
  const TimeUs air = frame_airtime(frame.length_bytes);
  const TimeUs slot_start = sim_.now() - air - config_.timing.tx_offset;
  asn_ = eb.asn;
  current_slot_start_ = slot_start;
  drift_accum_ = 0.0;
  anchor_slot_active_ = false;
  state_ = State::kAssociated;
  time_source_ = frame.src;
  radio_.turn_off();
  eb_next_due_ = sim_.now() + config_.eb_period +
                 static_cast<TimeUs>(rng_.uniform(static_cast<std::uint64_t>(config_.eb_jitter)));
  GTTSCH_LOG_INFO("mac", "node %u associated via EB from %u at ASN %llu", radio_.id(),
                  frame.src, static_cast<unsigned long long>(eb.asn));
  if (upcalls_ != nullptr) upcalls_->mac_associated(eb.asn, frame);
  schedule_next_slot();
}

void TschMac::arm_slot_timer() {
  wake_owner_ = sim_.current_owner();
  slot_timer_.start(std::max<TimeUs>(0, next_slot_time_ - sim_.now()),
                    [this] { on_slot_start(); });
}

void TschMac::arm_wake_at(Asn target) {
  GTTSCH_CHECK(target > asn_);
  const std::uint64_t span = target - asn_;
  double accum = drift_accum_;
  TimeUs total = 0;
  if (config_.drift_ppm == 0.0) {
    total = static_cast<TimeUs>(span) * config_.timing.slot_duration;
  } else {
    // The node's oscillator error stretches (or shrinks) its local slots;
    // sub-microsecond residue accumulates so any ppm value is honoured.
    // Iterated per skipped slot so the accumulator holds bit-identical
    // values to per-slot stepping at every boundary.
    DriftWalk walk = DriftWalk::from(config_, accum);
    for (std::uint64_t i = 0; i < span; ++i)
      total += config_.timing.slot_duration + walk.advance();
    accum = walk.accum;
  }
  const TimeUs at = current_slot_start_ + total;
  // Already armed for this very boundary, by the same owner: re-arming
  // would cancel the entry and schedule an identical one (same instant,
  // key and owner), leaving a tombstone behind. The common case is an
  // active slot whose cutoff boundary asn_+1 is also the next active slot.
  if (slot_timer_.running() && target == wake_asn_ && at == next_slot_time_ &&
      accum == wake_drift_accum_ && wake_owner_ == sim_.current_owner()) {
    return;
  }
  wake_asn_ = target;
  wake_drift_accum_ = accum;
  next_slot_time_ = at;
  arm_slot_timer();
}

void TschMac::schedule_next_slot() {
  if (config_.per_slot_stepping || anchor_slot_active_) {
    // Per-slot reference mode, or the slot after an active one: the next
    // boundary runs to perform the end-of-slot defensive clears — e.g.
    // cutting off a carrier-sense listen that the rx guard extended
    // across the boundary. maybe_skip_cutoff_slot() re-aims this wake
    // later if the active slot winds down with nothing left to clear.
    arm_wake_at(asn_ + 1);
    return;
  }
  const Asn target = schedule_.next_active_asn(asn_);
  if (target == TschSchedule::kNoActiveAsn) {
    // Nothing scheduled anywhere: sleep until the schedule changes.
    slot_timer_.stop();
    return;
  }
  arm_wake_at(target);
}

bool TschMac::walk_anchor(Asn& asn, TimeUs& slot_start, double& accum,
                          TimeUs now) const {
  const TimeUs dur = config_.timing.slot_duration;
  if (config_.drift_ppm == 0.0) {
    if (now - slot_start < dur) return false;
    const auto k = static_cast<std::uint64_t>((now - slot_start) / dur);
    asn += k;
    slot_start += static_cast<TimeUs>(k) * dur;
    return true;
  }
  DriftWalk walk = DriftWalk::from(config_, accum);
  bool moved = false;
  while (true) {
    DriftWalk next = walk;
    const TimeUs boundary = slot_start + dur + next.advance();
    if (boundary > now) break;
    walk = next;
    slot_start = boundary;
    ++asn;
    moved = true;
  }
  accum = walk.accum;
  return moved;
}

void TschMac::advance_anchor_to_now() {
  if (walk_anchor(asn_, current_slot_start_, drift_accum_, sim_.now()))
    anchor_slot_active_ = false;
}

void TschMac::on_schedule_changed() {
  if (config_.per_slot_stepping || state_ != State::kAssociated) return;
  // A wake armed for this exact instant fires right after the current
  // event (slot events precede same-time protocol events) and will read
  // the updated schedule itself.
  if (slot_timer_.running() && next_slot_time_ <= sim_.now()) return;
  advance_anchor_to_now();
  if (anchor_slot_active_) return;  // boundary at asn_+1 is already armed
  const Asn target = schedule_.next_active_asn(asn_);
  if (target == TschSchedule::kNoActiveAsn) {
    slot_timer_.stop();
    return;
  }
  arm_wake_at(target);
}

void TschMac::maybe_skip_cutoff_slot() {
  if (config_.per_slot_stepping || state_ != State::kAssociated || !anchor_slot_active_)
    return;
  // Quiescence: nothing the cutoff boundary's defensive clears would
  // touch. Every in-slot continuation lives in these timers / flags, so
  // when all are idle and the radio is dark the slot is provably over.
  if (pending_tx_.has_value() || awaiting_ack_) return;
  if (radio_.state() != RadioState::kOff) return;
  if (action_timer_.running() || ack_timer_.running() || ack_tx_timer_.running() ||
      radio_off_timer_.running()) {
    return;
  }
  // The armed wake is the asn_+1 cutoff boundary; demote the anchor slot
  // to "nothing to clear" and aim at the next active slot instead. The
  // skipped boundary was externally pure (no RNG, no radio, no counters),
  // so fast-path equivalence is preserved.
  anchor_slot_active_ = false;
  schedule_next_slot();
}

Asn TschMac::asn() const {
  if (state_ != State::kAssociated) return asn_;
  // Count the slot boundaries that have elapsed since the anchor (all
  // idle, or per-slot stepping would have moved the anchor already) —
  // exactly the ASN a per-slot MAC would hold at this instant.
  Asn asn = asn_;
  TimeUs slot_start = current_slot_start_;
  double accum = drift_accum_;
  walk_anchor(asn, slot_start, accum, sim_.now());
  return asn;
}

void TschMac::on_slot_start() {
  asn_ = wake_asn_;
  drift_accum_ = wake_drift_accum_;
  current_slot_start_ = sim_.now();

  // A well-formed slot never leaks state past its end; clear defensively.
  action_timer_.stop();
  ack_timer_.stop();
  ack_tx_timer_.stop();
  radio_off_timer_.stop();
  if (pending_tx_.has_value()) {
    GTTSCH_LOG_WARN("mac", "node %u: pending tx leaked across slot boundary", radio_.id());
    pending_tx_.reset();
    awaiting_ack_ = false;
  }
  if (radio_.state() == RadioState::kListening) radio_.turn_off();

  schedule_.active_cells_into(asn_, cells_scratch_);
  anchor_slot_active_ = !cells_scratch_.empty();
  schedule_next_slot();
  if (cells_scratch_.empty()) return;

  // Pass 1: a transmit opportunity with a concrete frame wins.
  for (const auto& [handle, cell] : cells_scratch_) {
    (void)handle;
    if (cell.is_tx() && try_start_tx(cell)) return;
  }
  // Pass 2: otherwise listen on the first Rx cell.
  for (const auto& [handle, cell] : cells_scratch_) {
    (void)handle;
    if (cell.is_rx()) {
      start_rx(cell);
      return;
    }
  }
  // No cell engaged (e.g. Tx cells with empty queues): the slot is already
  // quiescent, so the cutoff boundary has nothing to clear.
  maybe_skip_cutoff_slot();
}

bool TschMac::try_start_tx(const Cell& cell) {
  NodeId target = kNoNode;
  bool is_eb = false;
  QueuedPacket* pkt = nullptr;

  if (cell.neighbor != kBroadcastId) {
    pkt = queues_.peek_unicast(cell.neighbor);
    if (pkt == nullptr) return false;
    if (cell.is_shared()) {
      NeighborQueue* q = queues_.queue_for(cell.neighbor);
      if (q != nullptr && q->backoff_window > 0) {
        --q->backoff_window;
        return false;
      }
    }
    target = cell.neighbor;
  } else {
    pkt = queues_.peek_broadcast();
    if (pkt != nullptr) {
      target = kBroadcastId;
    } else if (eb_provider_ && sim_.now() >= eb_next_due_) {
      if (eb_provider_().has_value()) {
        is_eb = true;
        target = kBroadcastId;
      }
    }
    if (pkt == nullptr && !is_eb && cell.is_shared()) {
      // Shared family/common cell: any unicast backlog may use it.
      if (const auto t = queues_.pick_any_unicast_shared()) {
        target = *t;
        pkt = queues_.peek_unicast(*t);
      }
    }
    if (pkt == nullptr && !is_eb) return false;
  }

  PendingTx pt;
  pt.cell = cell;
  pt.target = target;
  pt.shared = cell.is_shared();
  pt.is_eb = is_eb;
  if (pkt != nullptr) {
    pt.mac_seq = pkt->mac_seq;
    pt.frame = pkt->frame;
  }
  pending_tx_ = std::move(pt);

  const TimeUs tx_at = current_slot_start_ + config_.timing.tx_offset;
  action_timer_.start(std::max<TimeUs>(0, tx_at - sim_.now()), [this] {
    if (!pending_tx_.has_value()) return;
    PendingTx& pt2 = *pending_tx_;
    if (pt2.is_eb) {
      auto info = eb_provider_ ? eb_provider_() : std::nullopt;
      if (!info.has_value()) {
        pending_tx_.reset();
        maybe_skip_cutoff_slot();
        return;
      }
      EbPayload eb = *info;
      eb.asn = asn_;
      pt2.frame = make_eb_frame(radio_.id(), eb);
    } else if (pt2.target != kBroadcastId) {
      QueuedPacket* head = queues_.peek_unicast(pt2.target);
      if (head == nullptr || head->mac_seq != pt2.mac_seq) {
        // Queue changed underneath us (e.g. parent switch); abort cleanly.
        pending_tx_.reset();
        maybe_skip_cutoff_slot();
        return;
      }
      ++head->attempts;
      ++counters_.unicast_tx_attempts;
      if (head->attempts > 1) ++counters_.retransmissions;
    }
    const PhysChannel ch = config_.hopping.channel_for(asn_, pt2.cell.channel_offset);
    radio_.transmit(pt2.frame, ch);
  });
  return true;
}

void TschMac::on_radio_tx_done() {
  if (!pending_tx_.has_value()) {
    // e.g. an ACK we sent — usually the slot's last action.
    maybe_skip_cutoff_slot();
    return;
  }
  PendingTx& pt = *pending_tx_;
  if (pt.target == kBroadcastId) {
    if (pt.is_eb) {
      ++counters_.eb_sent;
      eb_next_due_ =
          sim_.now() + config_.eb_period +
          static_cast<TimeUs>(rng_.uniform(static_cast<std::uint64_t>(config_.eb_jitter)));
    } else {
      ++counters_.broadcast_sent;
      queues_.pop_broadcast();
    }
    pending_tx_.reset();
    maybe_skip_cutoff_slot();
    return;
  }
  // Unicast: listen for the ACK.
  awaiting_ack_ = true;
  const PhysChannel ch = config_.hopping.channel_for(asn_, pt.cell.channel_offset);
  radio_.listen(ch);
  const TimeUs ack_air = frame_airtime(default_frame_length(FrameType::kAck));
  ack_timer_.start(config_.timing.ack_delay + ack_air + config_.timing.ack_slack,
                   [this] { on_ack_timeout(); });
}

void TschMac::on_ack_timeout() {
  conclude_tx(false);
  maybe_skip_cutoff_slot();
}

void TschMac::conclude_tx(bool acked) {
  if (!pending_tx_.has_value()) return;
  ack_timer_.stop();
  awaiting_ack_ = false;
  if (radio_.state() == RadioState::kListening) radio_.turn_off();

  const PendingTx pt = *pending_tx_;
  pending_tx_.reset();

  NeighborQueue* q = queues_.queue_for(pt.target);
  QueuedPacket* head = queues_.peek_unicast(pt.target);
  const bool head_matches = head != nullptr && head->mac_seq == pt.mac_seq;
  const int attempts = head_matches ? head->attempts : 1;

  if (acked) {
    ++counters_.unicast_success;
    if (q != nullptr && pt.shared) {
      q->backoff_exponent = 0;
      q->backoff_window = 0;
    }
    if (head_matches) queues_.pop_unicast(pt.target);
    if (upcalls_ != nullptr) upcalls_->mac_tx_result(*pt.frame, true, attempts);
    return;
  }

  if (!head_matches) return;  // packet was retargeted away; nothing to do

  if (attempts > config_.max_retries) {
    queues_.pop_unicast(pt.target);
    ++counters_.unicast_drops;
    if (upcalls_ != nullptr) upcalls_->mac_tx_result(*pt.frame, false, attempts);
    return;
  }

  // Will retransmit at the next opportunity; shared cells back off first.
  if (pt.shared && q != nullptr) {
    q->backoff_exponent = std::clamp(q->backoff_exponent + 1, config_.min_backoff_exponent,
                                     config_.max_backoff_exponent);
    q->backoff_window =
        static_cast<int>(rng_.uniform(static_cast<std::uint64_t>(1) << q->backoff_exponent));
  }
}

void TschMac::start_rx(const Cell& cell) {
  const PhysChannel ch = config_.hopping.channel_for(asn_, cell.channel_offset);
  const TimeUs on_at =
      current_slot_start_ + config_.timing.tx_offset - config_.timing.rx_guard_before;
  action_timer_.start(std::max<TimeUs>(0, on_at - sim_.now()), [this, ch] {
    radio_.listen(ch);
    radio_off_timer_.start(config_.timing.rx_guard_before + config_.timing.rx_guard_after,
                           [this, ch] { rx_guard_check(ch); });
  });
}

void TschMac::rx_guard_check(PhysChannel channel) {
  if (radio_.state() != RadioState::kListening) {
    maybe_skip_cutoff_slot();
    return;
  }
  const TimeUs busy = medium_.busy_until(radio_.id(), channel);
  if (busy <= sim_.now()) {
    // Keep listening if we owe an ACK transmission shortly; otherwise idle.
    if (!ack_tx_timer_.running()) {
      radio_.turn_off();
      maybe_skip_cutoff_slot();
    }
    return;
  }
  radio_off_timer_.start(busy + config_.timing.rx_repoll_slack - sim_.now(),
                         [this, channel] { rx_guard_check(channel); });
}

void TschMac::on_radio_rx(FramePtr frame) {
  GTTSCH_CHECK(frame != nullptr);
  if (state_ == State::kScanning) {
    if (frame->type == FrameType::kEb) associate_from_eb(*frame);
    return;
  }
  if (awaiting_ack_) {
    if (frame->type == FrameType::kAck && pending_tx_.has_value() &&
        frame->src == pending_tx_->target && frame->dst == radio_.id()) {
      conclude_tx(true);
      maybe_skip_cutoff_slot();
    }
    return;
  }
  if (frame->type == FrameType::kAck) return;  // not ours to consume
  handle_received_frame(*frame);
}

void TschMac::maybe_resync(const Frame& eb_frame) {
  const EbPayload& eb = eb_frame.as<EbPayload>();
  if (eb.asn != asn_) return;  // sender disagrees on the slot count; ignore
  const TimeUs sender_slot_start =
      sim_.now() - frame_airtime(eb_frame.length_bytes) - config_.timing.tx_offset;
  const TimeUs correction = sender_slot_start - current_slot_start_;
  // Corrections beyond the guard would mean we already lost sync; a real
  // node would re-scan. Within the guard we re-anchor (TSCH time
  // correction via enhanced beacons).
  if (correction > config_.timing.rx_guard_before ||
      correction < -config_.timing.rx_guard_before)
    return;
  if (correction == 0) return;
  current_slot_start_ += correction;
  next_slot_time_ += correction;
  total_sync_correction_ += correction >= 0 ? correction : -correction;
  arm_slot_timer();
}

void TschMac::handle_received_frame(const Frame& frame) {
  ++counters_.rx_frames;
  if (frame.type == FrameType::kEb && frame.src == time_source_ &&
      state_ == State::kAssociated) {
    maybe_resync(frame);
  }
  if (frame.dst != kBroadcastId) {
    if (frame.dst != radio_.id()) return;  // overheard unicast
    maybe_send_ack(frame);
    if (is_duplicate(frame.src, frame.mac_seq)) {
      ++counters_.rx_duplicates;
      return;
    }
  }
  if (upcalls_ != nullptr) upcalls_->mac_frame_received(frame);
}

void TschMac::maybe_send_ack(const Frame& frame) {
  const NodeId to = frame.src;
  // The ACK goes out on the channel of the current slot.
  PhysChannel ch = radio_.channel();
  ack_tx_timer_.start(config_.timing.ack_delay, [this, to, ch] {
    if (radio_.state() == RadioState::kTransmitting) return;
    if (radio_.state() == RadioState::kListening) radio_.turn_off();
    ++counters_.acks_sent;
    radio_.transmit(make_ack_frame(radio_.id(), to), ch);
  });
}

bool TschMac::is_duplicate(NodeId src, std::uint32_t mac_seq) {
  auto& recent = recent_rx_seqs_[src];
  if (std::find(recent.begin(), recent.end(), mac_seq) != recent.end()) return true;
  recent.push_back(mac_seq);
  if (recent.size() > kDedupWindow) recent.pop_front();
  return false;
}

bool TschMac::enqueue(FramePtr frame) {
  GTTSCH_CHECK(frame != nullptr);
  Frame copy = *frame;
  copy.mac_seq = next_mac_seq_++;
  auto stamped = std::make_shared<const Frame>(std::move(copy));
  if (stamped->dst == kBroadcastId)
    return queues_.enqueue_broadcast(std::move(stamped), next_mac_seq_ - 1, sim_.now());
  return queues_.enqueue_unicast(stamped->dst, stamped, next_mac_seq_ - 1, sim_.now());
}

}  // namespace gttsch
