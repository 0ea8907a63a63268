// Transmit queues: one FIFO per unicast neighbor plus one broadcast FIFO.
//
// Data-frame occupancy is capped across all unicast queues (the node-level
// queue length q_i of the paper); control frames have small per-queue caps
// so congestion cannot starve signalling.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "phy/wire.hpp"
#include "util/types.hpp"

namespace gttsch {

struct QueuedPacket {
  FramePtr frame;
  std::uint32_t mac_seq = 0;
  int attempts = 0;  ///< transmission attempts so far
  TimeUs enqueued_at = 0;
};

/// Per-neighbor queue with TSCH shared-cell backoff state.
struct NeighborQueue {
  /// Mutated only by TxQueues, which indexes the non-empty queues (callers
  /// reaching a queue through queue_for/ensure_queue may touch the backoff
  /// state).
  std::deque<QueuedPacket> packets;
  int backoff_exponent = 0;  ///< current BE (0 = no backoff pending)
  int backoff_window = 0;    ///< shared-cell opportunities left to skip
};

class TxQueues {
 public:
  TxQueues(std::size_t data_capacity, std::size_t control_capacity_per_queue);
  // Non-copyable: the backlog index points into this object's queue map.
  TxQueues(const TxQueues&) = delete;
  TxQueues& operator=(const TxQueues&) = delete;

  /// Enqueue toward a unicast neighbor. Returns false (drop) when the data
  /// cap (for kData) or the per-queue control cap is hit.
  bool enqueue_unicast(NodeId neighbor, FramePtr frame, std::uint32_t mac_seq, TimeUs now);

  /// Enqueue a broadcast control frame (EB is built on the fly, not queued).
  bool enqueue_broadcast(FramePtr frame, std::uint32_t mac_seq, TimeUs now);

  /// Head-of-line packet for a neighbor; nullptr if empty.
  QueuedPacket* peek_unicast(NodeId neighbor);
  QueuedPacket* peek_broadcast();

  void pop_unicast(NodeId neighbor);
  void pop_broadcast();

  NeighborQueue* queue_for(NodeId neighbor);  // nullptr if absent
  NeighborQueue& ensure_queue(NodeId neighbor);

  /// Neighbors with at least one queued packet, in ascending id order.
  std::vector<NodeId> backlogged_neighbors() const;

  /// Round-robin pick of a non-empty unicast queue (for shared cells).
  /// Honors backoff: queues with backoff_window > 0 are skipped after
  /// decrementing the window (a shared-cell opportunity passed).
  /// Allocation-free; walks only the backlogged queues, so it is O(1)
  /// when every unicast queue is empty.
  std::optional<NodeId> pick_any_unicast_shared();

  /// Number of queued kData frames (the paper's q_i).
  std::size_t data_queued() const { return data_queued_; }
  std::size_t data_capacity() const { return data_capacity_; }
  std::size_t broadcast_queued() const { return broadcast_.packets.size(); }

  /// Move all *data* frames queued for `from` to the queue of `to`
  /// (RPL parent switch). Control frames for `from` are dropped.
  /// Returns the number of moved frames.
  std::size_t retarget(NodeId from, NodeId to);

  /// Drop everything queued for a neighbor; returns dropped count.
  std::size_t drop_queue(NodeId neighbor);

 private:
  bool is_data(const FramePtr& f) const { return f->type == FrameType::kData; }

  /// One non-empty unicast queue. std::map nodes never move, so the
  /// pointer stays valid until the queue's entry is erased.
  struct Backlogged {
    NodeId id;
    NeighborQueue* queue;
  };
  using BacklogIt = std::vector<Backlogged>::iterator;

  /// First backlog entry with id >= neighbor (end() if none).
  BacklogIt backlog_lower_bound(NodeId neighbor);
  /// Backlog entry of `neighbor`, or end() when its queue is empty/absent.
  BacklogIt find_backlogged(NodeId neighbor);
  /// Index `q` after its first packet arrived.
  void add_backlogged(NodeId neighbor, NeighborQueue& q);

  std::size_t data_capacity_;
  std::size_t control_capacity_;
  std::size_t data_queued_ = 0;
  std::map<NodeId, NeighborQueue> unicast_;
  /// Exactly the unicast queues holding at least one packet, ascending id
  /// (the map's order): the shared-cell pick and unicast peeks walk this
  /// instead of every neighbor ever queued toward.
  std::vector<Backlogged> backlog_;
  NeighborQueue broadcast_;
  NodeId rr_cursor_ = 0;  ///< round-robin position for shared-cell picks
};

}  // namespace gttsch
