// A move-only `void()` callable with guaranteed small-buffer storage.
//
// The simulator's steady-state loop arms and fires millions of tiny
// closures (slot timers, ACK deadlines, medium completions), all of which
// capture a `this` pointer plus at most a few scalars. std::function's
// small-object optimisation is an implementation detail (libstdc++ caps it
// at 16 bytes); SmallFn makes the no-allocation guarantee explicit: every
// callable lives inside the object, and one that is larger than
// kInlineSize bytes, over-aligned or not nothrow-movable fails to compile.
// Capture a larger state by reference or through a pointer.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace gttsch {

class SmallFn {
 public:
  /// Large enough for `this` + several captured scalars, and for a moved-in
  /// std::function (32 bytes in libstdc++). Small enough that an
  /// EventRecord, a SmallFn plus its bookkeeping, stays at 64 bytes.
  static constexpr std::size_t kInlineSize = 40;

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, SmallFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineSize,
                  "closure larger than SmallFn::kInlineSize: capture by reference");
    static_assert(alignof(Fn) <= alignof(std::max_align_t), "over-aligned closure");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "closure must be nothrow move constructible");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &kOps<Fn>;
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this == &other) return *this;
    reset();
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(buf_); }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct the callable at `dst` from `src`, then destroy `src`.
    void (*relocate)(void* src, void* dst);
    void (*destroy)(void* self);
  };

  template <typename Fn>
  static constexpr Ops kOps = {
      [](void* self) { (*std::launder(reinterpret_cast<Fn*>(self)))(); },
      [](void* src, void* dst) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* self) { std::launder(reinterpret_cast<Fn*>(self))->~Fn(); },
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace gttsch
