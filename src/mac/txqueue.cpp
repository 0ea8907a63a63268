#include "mac/txqueue.hpp"

#include <algorithm>

namespace gttsch {

TxQueues::TxQueues(std::size_t data_capacity, std::size_t control_capacity_per_queue)
    : data_capacity_(data_capacity), control_capacity_(control_capacity_per_queue) {}

bool TxQueues::enqueue_unicast(NodeId neighbor, FramePtr frame, std::uint32_t mac_seq,
                               TimeUs now) {
  NeighborQueue& q = ensure_queue(neighbor);
  if (is_data(frame)) {
    if (data_queued_ >= data_capacity_) return false;
    ++data_queued_;
  } else {
    const std::size_t control_count = static_cast<std::size_t>(
        std::count_if(q.packets.begin(), q.packets.end(),
                      [](const QueuedPacket& p) { return p.frame->type != FrameType::kData; }));
    if (control_count >= control_capacity_) return false;
  }
  if (q.packets.empty()) add_backlogged(neighbor, q);
  q.packets.push_back(QueuedPacket{std::move(frame), mac_seq, 0, now});
  return true;
}

bool TxQueues::enqueue_broadcast(FramePtr frame, std::uint32_t mac_seq, TimeUs now) {
  if (broadcast_.packets.size() >= control_capacity_) return false;
  broadcast_.packets.push_back(QueuedPacket{std::move(frame), mac_seq, 0, now});
  return true;
}

TxQueues::BacklogIt TxQueues::backlog_lower_bound(NodeId neighbor) {
  return std::lower_bound(backlog_.begin(), backlog_.end(), neighbor,
                          [](const Backlogged& b, NodeId id) { return b.id < id; });
}

TxQueues::BacklogIt TxQueues::find_backlogged(NodeId neighbor) {
  const auto it = backlog_lower_bound(neighbor);
  return it != backlog_.end() && it->id == neighbor ? it : backlog_.end();
}

void TxQueues::add_backlogged(NodeId neighbor, NeighborQueue& q) {
  backlog_.insert(backlog_lower_bound(neighbor), Backlogged{neighbor, &q});
}

QueuedPacket* TxQueues::peek_unicast(NodeId neighbor) {
  const auto it = find_backlogged(neighbor);
  return it == backlog_.end() ? nullptr : &it->queue->packets.front();
}

QueuedPacket* TxQueues::peek_broadcast() {
  return broadcast_.packets.empty() ? nullptr : &broadcast_.packets.front();
}

void TxQueues::pop_unicast(NodeId neighbor) {
  const auto it = find_backlogged(neighbor);
  if (it == backlog_.end()) return;
  auto& packets = it->queue->packets;
  if (is_data(packets.front().frame)) --data_queued_;
  packets.pop_front();
  if (packets.empty()) backlog_.erase(it);
}

void TxQueues::pop_broadcast() {
  if (!broadcast_.packets.empty()) broadcast_.packets.pop_front();
}

NeighborQueue* TxQueues::queue_for(NodeId neighbor) {
  const auto it = unicast_.find(neighbor);
  return it == unicast_.end() ? nullptr : &it->second;
}

NeighborQueue& TxQueues::ensure_queue(NodeId neighbor) { return unicast_[neighbor]; }

std::vector<NodeId> TxQueues::backlogged_neighbors() const {
  std::vector<NodeId> out;
  out.reserve(backlog_.size());
  for (const Backlogged& b : backlog_) out.push_back(b.id);
  return out;
}

std::optional<NodeId> TxQueues::pick_any_unicast_shared() {
  // Round-robin scan of the backlogged queues starting after rr_cursor_
  // and wrapping once; queues in backoff consume one shared-cell
  // opportunity instead of transmitting. Empty queues neither transmit nor
  // consume backoff, so leaving them out of the scan changes nothing.
  std::optional<NodeId> chosen;
  const auto visit = [&chosen](const Backlogged& b) {
    if (b.queue->backoff_window > 0) {
      --b.queue->backoff_window;
      return;
    }
    if (!chosen) chosen = b.id;
  };
  const auto start =
      std::upper_bound(backlog_.begin(), backlog_.end(), rr_cursor_,
                       [](NodeId id, const Backlogged& b) { return id < b.id; });
  for (auto it = start; it != backlog_.end(); ++it) visit(*it);
  for (auto it = backlog_.begin(); it != start; ++it) visit(*it);
  if (chosen) rr_cursor_ = *chosen;
  return chosen;
}

std::size_t TxQueues::retarget(NodeId from, NodeId to) {
  const auto it = unicast_.find(from);
  if (it == unicast_.end() || from == to) return 0;
  NeighborQueue& src = it->second;
  NeighborQueue& dst = ensure_queue(to);
  const bool dst_was_empty = dst.packets.empty();
  std::size_t moved = 0;
  for (auto& pkt : src.packets) {
    if (is_data(pkt.frame)) {
      // Rewrite the MAC destination to the new parent.
      Frame f = *pkt.frame;
      f.dst = to;
      pkt.frame = std::make_shared<const Frame>(std::move(f));
      pkt.attempts = 0;
      dst.packets.push_back(std::move(pkt));
      ++moved;
    }
  }
  // Dropped control frames reduce nothing in the data counter.
  if (!src.packets.empty()) backlog_.erase(find_backlogged(from));
  unicast_.erase(it);
  if (dst_was_empty && moved > 0) add_backlogged(to, dst);
  return moved;
}

std::size_t TxQueues::drop_queue(NodeId neighbor) {
  const auto it = unicast_.find(neighbor);
  if (it == unicast_.end()) return 0;
  std::size_t dropped = it->second.packets.size();
  for (const auto& pkt : it->second.packets)
    if (is_data(pkt.frame)) --data_queued_;
  if (dropped > 0) backlog_.erase(find_backlogged(neighbor));
  unicast_.erase(it);
  return dropped;
}

}  // namespace gttsch
