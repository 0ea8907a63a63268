#include "mac/schedule.hpp"

#include <algorithm>
#include <functional>

#include "util/check.hpp"

namespace gttsch {

Slotframe::Slotframe(std::uint16_t handle, std::uint16_t length)
    : handle_(handle), length_(length), by_slot_(length) {
  GTTSCH_CHECK(length > 0);
}

void Slotframe::notify_owner() {
  table_stale_ = true;
  if (owner_ != nullptr) owner_->on_mutated();
}

bool Slotframe::add(const Cell& cell) {
  GTTSCH_CHECK(cell.slot_offset < length_);
  auto& bucket = by_slot_[cell.slot_offset];
  if (std::find(bucket.begin(), bucket.end(), cell) != bucket.end()) return false;
  bucket.push_back(cell);
  ++size_;
  notify_owner();
  return true;
}

bool Slotframe::remove(const Cell& cell) {
  if (cell.slot_offset >= length_) return false;
  auto& bucket = by_slot_[cell.slot_offset];
  const auto it = std::find(bucket.begin(), bucket.end(), cell);
  if (it == bucket.end()) return false;
  bucket.erase(it);
  --size_;
  notify_owner();
  return true;
}

std::size_t Slotframe::remove_if(const std::function<bool(const Cell&)>& pred) {
  std::size_t removed = 0;
  for (auto& bucket : by_slot_) {
    const auto before = bucket.size();
    bucket.erase(std::remove_if(bucket.begin(), bucket.end(), std::cref(pred)),
                 bucket.end());
    removed += before - bucket.size();
  }
  size_ -= removed;
  if (removed > 0) notify_owner();
  return removed;
}

void Slotframe::assign(const std::vector<Cell>& cells) {
  const bool was_empty = size_ == 0;
  for (auto& bucket : by_slot_) bucket.clear();
  size_ = 0;
  for (const Cell& cell : cells) {
    GTTSCH_CHECK(cell.slot_offset < length_);
    auto& bucket = by_slot_[cell.slot_offset];
    if (std::find(bucket.begin(), bucket.end(), cell) != bucket.end()) continue;
    bucket.push_back(cell);
    ++size_;
  }
  if (!was_empty || size_ > 0) notify_owner();
}

const std::vector<Cell>& Slotframe::cells_at(std::uint16_t slot) const {
  static const std::vector<Cell> kEmpty;
  if (slot >= length_) return kEmpty;
  return by_slot_[slot];
}

std::vector<Cell> Slotframe::all_cells() const {
  std::vector<Cell> out;
  out.reserve(size_);
  for (const auto& bucket : by_slot_) out.insert(out.end(), bucket.begin(), bucket.end());
  return out;
}

std::vector<std::uint16_t> Slotframe::free_slots() const {
  std::vector<std::uint16_t> out;
  for (std::uint16_t s = 0; s < length_; ++s)
    if (by_slot_[s].empty()) out.push_back(s);
  return out;
}

Slotframe& TschSchedule::add_slotframe(std::uint16_t handle, std::uint16_t length) {
  const auto [it, inserted] = frames_.try_emplace(handle, handle, length);
  GTTSCH_CHECK(inserted);
  it->second.owner_ = this;
  on_slotframes_changed();
  return it->second;
}

void TschSchedule::remove_slotframe(std::uint16_t handle) {
  if (frames_.erase(handle) > 0) on_slotframes_changed();
}

Slotframe* TschSchedule::get(std::uint16_t handle) {
  const auto it = frames_.find(handle);
  return it == frames_.end() ? nullptr : &it->second;
}

const Slotframe* TschSchedule::get(std::uint16_t handle) const {
  const auto it = frames_.find(handle);
  return it == frames_.end() ? nullptr : &it->second;
}

void TschSchedule::on_mutated() {
  ++version_;
  table_dirty_ = true;
  if (change_listener_) change_listener_();
}

void TschSchedule::on_slotframes_changed() {
  frame_list_dirty_ = true;
  on_mutated();
}

void TschSchedule::set_change_listener(std::function<void()> listener) {
  change_listener_ = std::move(listener);
}

void TschSchedule::compile_table() const {
  if (frame_list_dirty_) {
    table_.resize(frames_.size());
    auto entry = table_.begin();
    for (const auto& [handle, sf] : frames_) {
      CompiledFrame& t = *entry++;
      t.handle = handle;
      t.length = sf.length();
      t.frame = &sf;
      sf.table_stale_ = true;  // the entry may have held another slotframe
    }
    frame_list_dirty_ = false;
  }
  for (CompiledFrame& t : table_) {
    const Slotframe& sf = *t.frame;
    if (!sf.table_stale_) continue;
    sf.table_stale_ = false;
    t.gap.clear();
    if (sf.size() == 0) continue;
    // Two backward passes over the ring: the first seeds the distance from
    // the last offsets to the first occupied one after the wrap.
    t.gap.resize(t.length);
    std::uint16_t gap = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint16_t s = t.length; s-- > 0;) {
        gap = sf.by_slot_[s].empty() ? static_cast<std::uint16_t>(gap + 1) : 0;
        t.gap[s] = gap;
      }
    }
  }
  table_dirty_ = false;
}

Asn TschSchedule::next_active_asn(Asn after) const {
  ensure_table();
  Asn best = kNoActiveAsn;
  const Asn base = after + 1;
  for (const CompiledFrame& t : table_) {
    if (t.gap.empty()) continue;
    best = std::min(best, base + t.gap[base % t.length]);
  }
  return best;
}

std::vector<TschSchedule::ActiveCell> TschSchedule::active_cells(Asn asn) const {
  std::vector<ActiveCell> out;
  active_cells_into(asn, out);
  return out;
}

void TschSchedule::active_cells_into(Asn asn, std::vector<ActiveCell>& out) const {
  ensure_table();
  out.clear();
  for (const CompiledFrame& t : table_) {
    for (const Cell& c : t.frame->by_slot_[asn % t.length]) out.emplace_back(t.handle, c);
  }
}

std::size_t TschSchedule::total_cells() const {
  std::size_t n = 0;
  for (const auto& [_, sf] : frames_) n += sf.size();
  return n;
}

void TschSchedule::for_each(const std::function<void(Slotframe&)>& fn) {
  for (auto& [_, sf] : frames_) fn(sf);
}

void TschSchedule::for_each(const std::function<void(const Slotframe&)>& fn) const {
  for (const auto& [_, sf] : frames_) fn(sf);
}

}  // namespace gttsch
