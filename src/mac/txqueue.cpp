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
  q.packets.push_back(QueuedPacket{std::move(frame), mac_seq, 0, now});
  ++unicast_queued_;
  return true;
}

bool TxQueues::enqueue_broadcast(FramePtr frame, std::uint32_t mac_seq, TimeUs now) {
  if (broadcast_.packets.size() >= control_capacity_) return false;
  broadcast_.packets.push_back(QueuedPacket{std::move(frame), mac_seq, 0, now});
  return true;
}

QueuedPacket* TxQueues::peek_unicast(NodeId neighbor) {
  const auto it = unicast_.find(neighbor);
  if (it == unicast_.end() || it->second.packets.empty()) return nullptr;
  return &it->second.packets.front();
}

QueuedPacket* TxQueues::peek_broadcast() {
  return broadcast_.packets.empty() ? nullptr : &broadcast_.packets.front();
}

void TxQueues::pop_unicast(NodeId neighbor) {
  const auto it = unicast_.find(neighbor);
  if (it == unicast_.end() || it->second.packets.empty()) return;
  if (is_data(it->second.packets.front().frame)) --data_queued_;
  it->second.packets.pop_front();
  --unicast_queued_;
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
  for (const auto& [id, q] : unicast_)
    if (!q.packets.empty()) out.push_back(id);
  return out;
}

std::optional<NodeId> TxQueues::pick_any_unicast_shared() {
  // Empty queues neither transmit nor consume backoff, so with nothing
  // queued the scan below would change nothing.
  if (unicast_queued_ == 0) return std::nullopt;
  // Round-robin scan starting after rr_cursor_ and wrapping once; queues in
  // backoff consume one shared-cell opportunity instead of transmitting.
  std::optional<NodeId> chosen;
  const auto visit = [&chosen](NodeId id, NeighborQueue& q) {
    if (q.packets.empty()) return;
    if (q.backoff_window > 0) {
      --q.backoff_window;
      return;
    }
    if (!chosen) chosen = id;
  };
  const auto start = unicast_.upper_bound(rr_cursor_);
  for (auto it = start; it != unicast_.end(); ++it) visit(it->first, it->second);
  for (auto it = unicast_.begin(); it != start; ++it) visit(it->first, it->second);
  if (chosen) rr_cursor_ = *chosen;
  return chosen;
}

std::size_t TxQueues::total_queued() const {
  std::size_t n = broadcast_.packets.size();
  for (const auto& [_, q] : unicast_) n += q.packets.size();
  return n;
}

std::size_t TxQueues::retarget(NodeId from, NodeId to) {
  const auto it = unicast_.find(from);
  if (it == unicast_.end() || from == to) return 0;
  NeighborQueue& src = it->second;
  NeighborQueue& dst = ensure_queue(to);
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
  // Dropped control frames reduce nothing in the data counter. The moved
  // data frames stay in src as moved-from elements, so only the control
  // frames leave the unicast count.
  unicast_queued_ -= src.packets.size() - moved;
  unicast_.erase(it);
  return moved;
}

std::size_t TxQueues::drop_queue(NodeId neighbor) {
  const auto it = unicast_.find(neighbor);
  if (it == unicast_.end()) return 0;
  std::size_t dropped = it->second.packets.size();
  for (const auto& pkt : it->second.packets)
    if (is_data(pkt.frame)) --data_queued_;
  unicast_queued_ -= dropped;
  unicast_.erase(it);
  return dropped;
}

}  // namespace gttsch
