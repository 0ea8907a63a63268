// Intra-timeslot timing template (802.15.4e style, stretched to the paper's
// 15 ms slots). All values are offsets from the slot start.
#pragma once

#include "util/types.hpp"

namespace gttsch {

struct SlotTiming {
  /// Total slot duration (paper/Table II: 15 ms).
  TimeUs slot_duration = 15000;
  /// Data frame transmission begins this far into the slot (TsTxOffset).
  TimeUs tx_offset = 2120;
  /// Receiver turns its radio on this long before tx_offset…
  TimeUs rx_guard_before = 1100;
  /// …and, if the channel stayed idle, off this long after tx_offset.
  TimeUs rx_guard_after = 1100;
  /// Gap between the end of a received frame and the ACK (TsTxAckDelay).
  TimeUs ack_delay = 1000;
  /// Extra slack the sender waits for an ACK beyond its nominal end.
  TimeUs ack_slack = 400;
  /// When carrier sense finds the channel busy at the end of the rx guard,
  /// the receiver stays on and re-polls this long after the sensed
  /// transmission's predicted end — covering the turnaround between a
  /// heard frame and the ACK we may owe for it (ack_delay is 1000 us; a
  /// fraction of it suffices since the poll only needs to outlive the
  /// frame-end bookkeeping, not the ACK itself).
  TimeUs rx_repoll_slack = 200;
};

}  // namespace gttsch
