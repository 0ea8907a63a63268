#include "sim/timer.hpp"

#include "util/check.hpp"

namespace gttsch {

void OneShotTimer::start(TimeUs delay, SmallFn fn) {
  stop();
  GTTSCH_CHECK(delay >= 0);
  id_ = sim_.schedule_impl(sim_.now() + delay, key_, std::move(fn), &id_);
}

void OneShotTimer::stop() {
  if (id_ != kInvalidEvent) {
    sim_.cancel(id_);
    id_ = kInvalidEvent;
  }
}

void PeriodicTimer::start(TimeUs first_delay, TimeUs period, std::function<void()> fn,
                          Rng* jitter_rng, TimeUs jitter) {
  stop();
  period_ = period;
  jitter_ = jitter;
  jitter_rng_ = jitter_rng;
  fn_ = std::move(fn);
  arm(first_delay);
}

void PeriodicTimer::arm(TimeUs delay) {
  TimeUs extra = 0;
  if (jitter_ > 0 && jitter_rng_ != nullptr)
    extra = static_cast<TimeUs>(jitter_rng_->uniform(static_cast<std::uint64_t>(jitter_)));
  id_ = sim_.after(delay + extra, [this] {
    id_ = kInvalidEvent;
    fn_();
    // fn_ may have stopped the timer; only re-arm if still configured.
    if (period_ > 0 && id_ == kInvalidEvent && fn_) arm(period_);
  });
}

void PeriodicTimer::stop() {
  if (id_ != kInvalidEvent) {
    sim_.cancel(id_);
    id_ = kInvalidEvent;
  }
  period_ = 0;
  fn_ = nullptr;
}

}  // namespace gttsch
