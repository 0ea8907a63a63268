// The TSCH MAC slot engine.
//
// Runs the per-timeslot state machine: cell selection across slotframes,
// frame transmission with ACK + bounded retransmission, shared-cell
// CSMA backoff, Enhanced Beacon emission, and network association by
// EB scanning. Scheduling functions (GT-TSCH, Orchestra) own the schedule
// content; the MAC only executes it.
//
// Fast path: by default the slot timer jumps directly from one *active*
// slot to the next (the schedule's compiled timetable provides
// next_active_asn), so idle slots — the overwhelming majority under sparse
// schedules — cost no simulator event at all. Idle slots touch no RNG and
// no externally visible state, so skipping them is observably identical to
// per-slot stepping; MacConfig::per_slot_stepping restores the reference
// per-slot behaviour, which the fast-path equivalence tests compare
// bit-for-bit.
//
// Each slot start costs constant work: the compiled timetable answers both
// the cell lookup and next_active_asn with one indexed read per slotframe,
// shared cells pick from the queues' backlog index, and re-aiming the wake
// at the boundary it is already armed for (an active slot followed by
// another) keeps the armed event instead of cancelling and re-scheduling
// an identical one.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "mac/hopping.hpp"
#include "mac/schedule.hpp"
#include "mac/slot_timing.hpp"
#include "mac/txqueue.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"
#include "util/rng.hpp"

namespace gttsch {

struct MacConfig {
  SlotTiming timing;
  HoppingSequence hopping;
  TimeUs eb_period = 2000000;       ///< Table II: 2 s
  TimeUs eb_jitter = 500000;        ///< uniform extra delay per EB
  /// Channel dwell while scanning. Must exceed eb_period + eb_jitter so a
  /// dwell on the right channel is guaranteed to catch a beacon (GT-TSCH
  /// broadcast cells can map to a single physical channel when the
  /// slotframe length is a multiple of the hopping-sequence length).
  TimeUs scan_dwell = 4000000;
  int max_retries = 4;              ///< Table II: 4 retransmissions
  int min_backoff_exponent = 1;     ///< TSCH macMinBE
  int max_backoff_exponent = 5;     ///< TSCH macMaxBE
  /// Local-oscillator error in parts-per-million: this node's slots run
  /// (1 + drift_ppm*1e-6) longer than nominal. Non-root nodes re-anchor
  /// their slot boundaries on every EB heard from their time source
  /// (TSCH time correction); the rx guard absorbs the residual error.
  double drift_ppm = 0.0;
  std::size_t data_queue_capacity = 16;    ///< Q_max of the paper
  std::size_t control_queue_capacity = 8;  ///< per-neighbor control cap
  /// Reference mode: wake on every slot boundary instead of jumping to the
  /// next active slot. Only useful for equivalence testing and debugging.
  bool per_slot_stepping = false;
};

/// Upper-layer hooks (implemented by the Node integration layer).
class MacUpcalls {
 public:
  virtual ~MacUpcalls() = default;
  /// Joined a TSCH network (EB heard and clock adopted). Root nodes get
  /// this immediately on start_as_root().
  virtual void mac_associated(Asn asn, const Frame& eb) = 0;
  /// Any decodable non-ACK frame addressed to us or broadcast.
  virtual void mac_frame_received(const Frame& frame) = 0;
  /// Final outcome of a unicast transmission: acked, or dropped after the
  /// retry budget. `attempts` counts transmissions of this frame.
  virtual void mac_tx_result(const Frame& frame, bool acked, int attempts) = 0;
};

struct MacCounters {
  std::uint64_t unicast_tx_attempts = 0;
  std::uint64_t unicast_success = 0;
  std::uint64_t unicast_drops = 0;  ///< retry budget exhausted
  std::uint64_t retransmissions = 0;
  std::uint64_t broadcast_sent = 0;
  std::uint64_t eb_sent = 0;
  std::uint64_t rx_frames = 0;
  std::uint64_t rx_duplicates = 0;
  std::uint64_t acks_sent = 0;
};

class TschMac {
 public:
  TschMac(Simulator& sim, Medium& medium, Radio& radio, MacConfig config, Rng rng);
  ~TschMac();
  TschMac(const TschMac&) = delete;
  TschMac& operator=(const TschMac&) = delete;

  void set_upcalls(MacUpcalls* upcalls) { upcalls_ = upcalls; }

  /// Provider for EB content (join priority, GT-TSCH family channel...).
  /// Returning nullopt suppresses EB emission (e.g. not in a DODAG yet).
  void set_eb_provider(std::function<std::optional<EbPayload>()> provider);

  /// Start as the PAN coordinator / DODAG root: ASN 0 begins now.
  void start_as_root();

  /// Start scanning for EBs to join an existing network.
  void start_scanning();

  /// Hard stop (node failure / power-off): cancels all timers, silences
  /// the radio, and drops every queue. The MAC cannot be restarted.
  void shutdown();

  bool associated() const { return state_ == State::kAssociated; }
  bool scanning() const { return state_ == State::kScanning; }

  /// The ASN of the current slot. With idle-slot skipping the MAC may not
  /// have woken since the last active slot, so this is computed from the
  /// slot anchor — it always matches what per-slot stepping would report.
  Asn asn() const;

  NodeId time_source() const { return time_source_; }

  /// Cumulative time corrections applied from time-source EBs (diagnostic;
  /// stays 0 when drift_ppm == 0).
  TimeUs total_sync_correction() const { return total_sync_correction_; }

  /// Enqueue for transmission; routing by frame dst (broadcast/unicast).
  /// False = queue full (caller records the drop).
  bool enqueue(FramePtr frame);

  TschSchedule& schedule() { return schedule_; }
  const TschSchedule& schedule() const { return schedule_; }
  TxQueues& queues() { return queues_; }
  const TxQueues& queues() const { return queues_; }

  /// Current number of queued data frames — the paper's q_i.
  std::size_t data_queue_length() const { return queues_.data_queued(); }

  const MacConfig& config() const { return config_; }
  const MacCounters& counters() const { return counters_; }
  NodeId id() const { return radio_.id(); }

  /// True when this MAC steps every slot (reference mode).
  bool per_slot_stepping() const { return config_.per_slot_stepping; }

  /// Duration of one slotframe of `length` slots.
  TimeUs slotframe_duration(std::uint16_t length) const {
    return config_.timing.slot_duration * length;
  }

 private:
  enum class State { kOff, kScanning, kAssociated };

  struct PendingTx {
    Cell cell;
    NodeId target = kNoNode;   // kBroadcastId for broadcast frames
    bool shared = false;
    bool is_eb = false;
    std::uint32_t mac_seq = 0;
    FramePtr frame;
  };

  void arm_slot_timer();
  /// Arm the next wakeup from the current slot anchor: the next slot after
  /// an active one (so the boundary's defensive clears still run), else
  /// the next ASN holding any cell, else nothing.
  void schedule_next_slot();
  /// Arm the slot timer for `target` (> asn_), accumulating the drifted
  /// duration of every slot in between exactly as per-slot stepping would.
  void arm_wake_at(Asn target);
  /// Walk an anchor (asn, slot start, drift residue) forward over every
  /// slot boundary at or before `now`, using the exact per-slot drift
  /// arithmetic. Returns true when at least one boundary was crossed.
  /// The single walker behind advance_anchor_to_now() and asn() — they
  /// must share the operation sequence or fast-path equivalence breaks.
  bool walk_anchor(Asn& asn, TimeUs& slot_start, double& accum, TimeUs now) const;
  /// Walk the slot anchor over boundaries that have already elapsed (all
  /// idle by construction); keeps asn_/current_slot_start_/drift_accum_
  /// equal to what per-slot stepping would hold at this instant.
  void advance_anchor_to_now();
  /// Schedule-change hook: re-aim the pending wakeup (fast path only).
  void on_schedule_changed();
  /// Fast path: the boundary after an active slot exists only to clear
  /// state the slot may have left running (an rx-guard listen, a pending
  /// frame). When the slot provably wound down — radio off, no pending
  /// frame or ACK, no in-slot timer armed — there is nothing to clear, so
  /// the wake re-aims at the next *active* slot instead. Called from every
  /// point where in-slot activity can conclude; a no-op unless the armed
  /// wake is the post-active cutoff boundary.
  void maybe_skip_cutoff_slot();
  void on_slot_start();
  void maybe_resync(const Frame& eb_frame);
  bool try_start_tx(const Cell& cell);
  void start_rx(const Cell& cell);
  void rx_guard_check(PhysChannel channel);
  void on_radio_rx(FramePtr frame);
  void on_radio_tx_done();
  void on_ack_timeout();
  void conclude_tx(bool acked);
  void handle_received_frame(const Frame& frame);
  void maybe_send_ack(const Frame& frame);
  void scan_hop();
  void associate_from_eb(const Frame& frame);
  bool is_duplicate(NodeId src, std::uint32_t mac_seq);

  Simulator& sim_;
  Medium& medium_;
  Radio& radio_;
  MacConfig config_;
  Rng rng_;
  MacUpcalls* upcalls_ = nullptr;
  std::function<std::optional<EbPayload>()> eb_provider_;

  State state_ = State::kOff;

  // --- slot anchor: state of the most recently started slot -------------
  Asn asn_ = 0;
  /// Start of the current slot (anchored at association, advanced by the
  /// node's drifted local slot duration, corrected by time-source EBs).
  TimeUs current_slot_start_ = 0;
  double drift_accum_ = 0.0;     ///< sub-microsecond drift residue at anchor
  bool anchor_slot_active_ = false;  ///< anchor slot had >=1 cell at start

  // --- pending wakeup ----------------------------------------------------
  Asn wake_asn_ = 0;             ///< slot the armed slot timer will start
  TimeUs next_slot_time_ = 0;    ///< its boundary time
  double wake_drift_accum_ = 0.0;  ///< drift residue to commit at the wake
  /// Simulator owner the wake was armed under; the event inherits it.
  std::uint32_t wake_owner_ = 0;

  NodeId time_source_ = kNoNode;
  TimeUs total_sync_correction_ = 0;

  TschSchedule schedule_;
  TxQueues queues_;
  std::uint32_t next_mac_seq_ = 1;
  std::map<NodeId, std::deque<std::uint32_t>> recent_rx_seqs_;

  OneShotTimer slot_timer_;     // keyed by node id (see kDefaultEventKey)
  OneShotTimer action_timer_;   // tx start / rx guard inside the slot
  OneShotTimer ack_timer_;      // sender-side ACK deadline
  OneShotTimer ack_tx_timer_;   // receiver-side delayed ACK
  OneShotTimer radio_off_timer_;
  OneShotTimer scan_timer_;

  std::optional<PendingTx> pending_tx_;
  bool awaiting_ack_ = false;
  TimeUs eb_next_due_ = 0;
  std::size_t scan_channel_index_ = 0;

  std::vector<TschSchedule::ActiveCell> cells_scratch_;  ///< per-slot reuse

  MacCounters counters_;
};

}  // namespace gttsch
