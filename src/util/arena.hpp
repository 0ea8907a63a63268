// Fixed-slot arena: block allocation for many same-sized objects with
// LIFO slot reuse. The scenario layer backs every node's protocol-stack
// slab with one arena so (a) stacks of neighboring nodes sit in one
// contiguous block — the simulator's hot path walks them in node order —
// and (b) a crash-reboot tears a stack down and rebuilds it into the
// exact slot it just vacated, so churn-heavy campaigns stop round-tripping
// through the global allocator and a rebooted node stays cache-resident.
//
// Not thread-safe by design: each arena belongs to one Network, and a
// Network runs on one thread (campaign workers each build their own).
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#include "util/check.hpp"

namespace gttsch {

class Arena {
 public:
  /// Slots of `slot_bytes` rounded up to `alignment`; blocks hold
  /// `slots_per_block` slots each. Alignment must be a power of two.
  Arena(std::size_t slot_bytes, std::size_t alignment,
        std::size_t slots_per_block = 64)
      : align_(alignment < alignof(std::max_align_t) ? alignof(std::max_align_t)
                                                     : alignment),
        slot_(((slot_bytes == 0 ? 1 : slot_bytes) + align_ - 1) / align_ * align_),
        per_block_(slots_per_block == 0 ? 1 : slots_per_block) {
    GTTSCH_CHECK((align_ & (align_ - 1)) == 0);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (std::byte* b : blocks_) {
      ::operator delete[](b, std::align_val_t(align_));
    }
  }

  /// Pops the most recently freed slot when one exists (LIFO: a reboot
  /// lands exactly where the dead stack was), otherwise carves the next
  /// slot from the newest block, growing by one block when full.
  void* allocate() {
    ++in_use_;
    if (free_head_ != nullptr) {
      void* p = free_head_;
      free_head_ = *static_cast<void**>(p);
      return p;
    }
    if (next_ == per_block_ || blocks_.empty()) {
      blocks_.push_back(static_cast<std::byte*>(
          ::operator new[](slot_ * per_block_, std::align_val_t(align_))));
      next_ = 0;
    }
    return blocks_.back() + slot_ * next_++;
  }

  /// Returns a slot to the freelist. Must be a live pointer previously
  /// returned by allocate() on this arena; null is ignored. The freed
  /// slot itself stores the freelist link — no allocation, truly noexcept.
  void deallocate(void* p) noexcept {
    if (p == nullptr) return;
    GTTSCH_CHECK(in_use_ > 0);
    --in_use_;
    *static_cast<void**>(p) = free_head_;
    free_head_ = p;
  }

  std::size_t slot_bytes() const { return slot_; }
  std::size_t slots_in_use() const { return in_use_; }
  std::size_t blocks() const { return blocks_.size(); }

 private:
  std::size_t align_;
  std::size_t slot_;
  std::size_t per_block_;
  std::size_t next_ = 0;  ///< slots carved from the newest block
  std::size_t in_use_ = 0;
  std::vector<std::byte*> blocks_;
  void* free_head_ = nullptr;  ///< intrusive LIFO freelist through dead slots
};

}  // namespace gttsch
