// Unit tests for the discrete-event kernel: ordering, cancellation, timers,
// trickle behavior.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "net/trickle.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace gttsch {
namespace {

using namespace literals;

TEST(Simulator, FifoAtEqualTimes) {
  Simulator sim(1);
  std::vector<int> order;
  sim.at(10, [&] { order.push_back(1); });
  sim.at(10, [&] { order.push_back(2); });
  sim.at(5, [&] { order.push_back(0); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim(1);
  bool ran = false;
  const EventId id = sim.at(1, [&] { ran = true; });
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(Simulator, CancelTwiceIsSafe) {
  Simulator sim(1);
  const EventId id = sim.at(1, [] {});
  sim.cancel(id);
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelledEventIsSkipped) {
  Simulator sim(1);
  TimeUs fired_at = -1;
  const EventId early = sim.at(1, [&] { fired_at = sim.now(); });
  sim.at(9, [&] { fired_at = sim.now(); });
  sim.cancel(early);
  sim.run_all();
  EXPECT_EQ(fired_at, 9);
  EXPECT_EQ(sim.events_processed(), 1u);
}

TEST(Simulator, PendingEventsTracksLiveEvents) {
  Simulator sim(1);
  const EventId a = sim.at(1, [] {});
  sim.at(2, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, CancelAfterFireIsSafe) {
  Simulator sim(1);
  int fired = 0;
  const EventId id = sim.at(1, [&] { ++fired; });
  sim.run_until(1);
  // The slot may already be reused by a new event; cancelling the stale id
  // must neither abort nor kill the unrelated newcomer.
  const EventId newer = sim.at(2, [&] { ++fired; });
  sim.cancel(id);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 2);
  sim.cancel(newer);  // also stale now
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, LowerKeyRunsFirstAtEqualTimes) {
  Simulator sim(1);
  std::vector<int> order;
  sim.at(10, [&] { order.push_back(9); });  // default key, inserted first
  sim.at_keyed(10, 2, [&] { order.push_back(2); });
  sim.at_keyed(10, 1, [&] { order.push_back(1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 9}));
}

TEST(Simulator, ScheduleBeforeACancelledInstantRunAllReached) {
  // run_all() reaches t=10, finds only a cancelled entry there and stops
  // with the clock at 5. Events scheduled between the two must still run
  // in time order.
  Simulator sim(1);
  std::vector<int> order;
  sim.at(5, [&] { order.push_back(0); });
  sim.cancel(sim.at(10, [&] { order.push_back(-1); }));
  sim.run_all();
  EXPECT_EQ(sim.now(), 5);
  sim.at(10, [&] { order.push_back(2); });
  sim.at(7, [&] { order.push_back(1); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.now(), 10);
}

TEST(Simulator, MemoryBoundedAcross10MEvents) {
  // Regression for the former cancelled_flags_ bitmap, which grew one bit
  // per EventId ever issued: ids are recycled via a slot pool, so memory
  // tracks the peak number of *pending* events, not lifetime throughput.
  // The same holds for the batch storage behind the instants: distinct
  // instants (period 1) and slot-grid instants shared by eight events
  // (period 8) must both reuse nodes instead of growing with throughput.
  for (const TimeUs period : {1, 8}) {
    Simulator sim(1);
    constexpr int kPendingTarget = 64;
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    auto instant = [period](std::uint64_t n) {
      return static_cast<TimeUs>(n) / period * period;
    };
    // Each event schedules its successor, so kPendingTarget stay pending.
    std::function<void()> fire = [&] {
      ++fired;
      if (scheduled >= 10'000'000) return;
      sim.at(instant(++scheduled), [&fire] { fire(); });
      if (scheduled % 5 == 0) {  // exercise cancellation reclamation too
        sim.cancel(sim.at(instant(scheduled + 1), [&fire] { fire(); }));
      }
    };
    for (int i = 0; i < kPendingTarget; ++i) {
      sim.at(instant(++scheduled), [&fire] { fire(); });
    }
    sim.run_all();
    EXPECT_EQ(fired, scheduled);  // every non-cancelled event ran
    // Growth is bounded by peak concurrency (pending + cancelled entries
    // awaiting lazy reclamation), nowhere near the 10M ids issued.
    EXPECT_LE(sim.event_slots_allocated(), 2 * kPendingTarget);
    EXPECT_LE(sim.queue_storage(), 3 * kPendingTarget);
  }
}

TEST(Simulator, MemoryBoundedUnderCancelHeavyRearms) {
  // Every fired event re-arms its own timer and one other, so about half
  // of all schedules end as cancelled entries. Such an entry leaves the
  // queue, and gives back its slot, when its instant is activated, so
  // storage must stay bounded by the peak count of pending entries: live
  // ones plus cancelled ones whose instant has not been reached.
  for (const TimeUs period : {1, 8}) {
    Simulator sim(1);
    constexpr int kTimers = 64;
    Rng rng(static_cast<std::uint64_t>(period));
    std::vector<EventId> timer(kTimers, kInvalidEvent);
    std::vector<TimeUs> timer_at(kTimers, 0);
    // Instants of cancelled entries that may still be in the queue.
    std::priority_queue<TimeUs, std::vector<TimeUs>, std::greater<>> tombstones;
    std::size_t peak_pending = 0;
    std::uint64_t scheduled = 0;
    std::function<void(int)> fire;
    auto arm = [&](int i) {
      // One of the next four instants of the period grid.
      const TimeUs at =
          (sim.now() / period + 1 + static_cast<TimeUs>(rng.uniform(4))) * period;
      const auto n = static_cast<std::size_t>(i);
      timer[n] = sim.at(at, [&fire, i] { fire(i); });
      timer_at[n] = at;
      ++scheduled;
    };
    fire = [&](int i) {
      if (scheduled >= 4'000'000) return;  // let the queue drain
      arm(i);
      while (!tombstones.empty() && tombstones.top() < sim.now()) tombstones.pop();
      const auto other = static_cast<std::size_t>(rng.uniform(kTimers));
      sim.cancel(timer[other]);
      tombstones.push(timer_at[other]);
      arm(static_cast<int>(other));
      ASSERT_EQ(sim.pending_events(), static_cast<std::size_t>(kTimers));
      peak_pending = std::max(peak_pending, sim.pending_events() + tombstones.size());
    };
    for (int i = 0; i < kTimers; ++i) arm(i);
    sim.run_all();
    EXPECT_GE(scheduled, 4'000'000u);
    // Half the schedules were cancelled, yet the pending peak stays near
    // two entries per timer; +1 is the record of the running event, held
    // while its callback schedules the next one.
    EXPECT_LE(peak_pending, 3u * kTimers);
    EXPECT_LE(sim.event_slots_allocated(), peak_pending + 1);
    EXPECT_LE(sim.queue_storage(), 2 * peak_pending);
  }
}

// --------------------------------------------------- event-order oracle --

enum class TimePattern { kSlotGrid, kDrifted, kMixed };

/// Drives the Simulator with seeded random sequences of `at`, `at_keyed`
/// with node-id keys, owner scopes, `cancel`, OneShotTimer re-arms and
/// same-instant scheduling from inside callbacks, and checks every event
/// that fires against a std::set ordered by (at, key, owner, seq). Fired
/// events also cancel some pending events of their own instant, which are
/// already in the active batch, and every pending event of one later
/// instant, whose batch then holds nothing but cancelled entries. Timer
/// re-arms sometimes destroy and recreate the timer first.
class EventOrderOracle {
 public:
  EventOrderOracle(std::uint64_t seed, TimePattern pattern)
      : sim_(seed), rng_(seed * 7919 + 1), pattern_(pattern) {
    for (std::uint32_t node = 0; node < kTimers; ++node) {
      timers_.push_back(std::make_unique<OneShotTimer>(sim_, node));
      timer_id_.push_back(-1);
    }
  }

  /// Runs the sequence in slices; returns the number of events checked.
  std::uint64_t run() {
    for (int slice = 0; slice < 40; ++slice) {
      // Top level: schedule at the instant the previous slice stopped at,
      // whose batch has already run, and at later instants, whose batches
      // it did not reach.
      for (int i = 0; i < 40; ++i) act(kGlobalOwner);
      sim_.run_until(now() + kSlot * 3 + 1234);
      if (mismatches_ > 0) break;
    }
    sim_.run_all();
    EXPECT_EQ(sim_.events_processed(), fired_);
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_EQ(mismatches_, 0u);
    EXPECT_TRUE(oracle_.empty());
    EXPECT_GT(instant_cancels_, 0u);
    EXPECT_GT(timer_rebuilds_, 0u);
    return fired_;
  }

 private:
  static constexpr TimeUs kSlot = 10'000;
  static constexpr std::uint32_t kTimers = 6;
  static constexpr std::uint32_t kNodes = 8;
  using Key = std::tuple<TimeUs, std::uint32_t, std::uint32_t, std::uint64_t, int>;
  using OracleIt = std::set<Key>::iterator;

  struct Pending {
    Key key;
    EventId id;
  };

  TimeUs now() const { return sim_.now(); }

  TimeUs pick_time(bool allow_now) {
    const TimeUs t_now = now();
    const bool grid = pattern_ == TimePattern::kSlotGrid ||
                      (pattern_ == TimePattern::kMixed && rng_.bernoulli(0.5));
    if (allow_now && rng_.bernoulli(0.25)) return t_now;
    if (grid) {
      const TimeUs base = t_now / kSlot * kSlot;
      const TimeUs t = base + kSlot * static_cast<TimeUs>(rng_.uniform(5));
      return t < t_now ? t_now : t;
    }
    return t_now + 1 + static_cast<TimeUs>(rng_.uniform(5 * kSlot));
  }

  std::uint32_t pick_key() {
    return rng_.bernoulli(0.5) ? kDefaultEventKey
                               : static_cast<std::uint32_t>(rng_.uniform(kNodes));
  }

  /// One random action, run with `owner` as the scheduling owner.
  void act(std::uint32_t owner) {
    const std::uint64_t r = rng_.uniform(10);
    if (r < 5) {
      schedule(owner, pick_time(true), pick_key());
    } else if (r < 7) {
      rearm_timer(owner);
    } else if (r < 8) {
      // Re-home the next event to another node, as boot code does.
      const std::uint32_t other = static_cast<std::uint32_t>(rng_.uniform(kNodes));
      Simulator::ScopedOwner scope(sim_, other);
      schedule(other, pick_time(true), pick_key());
    } else {
      cancel_random();
    }
  }

  void schedule(std::uint32_t owner, TimeUs at, std::uint32_t key) {
    const int id = next_id_++;
    auto fire = [this, id] { on_fire(id); };
    const bool plain = key == kDefaultEventKey && rng_.bernoulli(0.5);
    const EventId eid = plain ? sim_.at(at, fire) : sim_.at_keyed(at, key, fire);
    const Key k{at, key, owner, next_seq_++, id};
    oracle_.insert(k);
    pending_.emplace(id, Pending{k, eid});
    live_ids_.push_back(id);
  }

  void rearm_timer(std::uint32_t owner) {
    const std::uint32_t node = static_cast<std::uint32_t>(rng_.uniform(kTimers));
    if (timer_id_[node] >= 0) forget(timer_id_[node]);
    if (rng_.bernoulli(0.125)) {
      // Replace the timer: destroying it cancels its pending event, and
      // when this runs in the timer's own callback it destroys the timer
      // whose callback is running.
      timers_[node] = std::make_unique<OneShotTimer>(sim_, node);
      ++timer_rebuilds_;
    }
    OneShotTimer& timer = *timers_[node];
    const TimeUs at = pick_time(true);
    const int id = next_id_++;
    timer.start(at - now(), [this, id, node] {
      timer_id_[node] = -1;
      on_fire(id);
    });
    timer_id_[node] = id;
    oracle_.insert(Key{at, node, owner, next_seq_++, id});
  }

  void cancel_random() {
    while (!live_ids_.empty()) {
      const std::size_t i = static_cast<std::size_t>(rng_.uniform(live_ids_.size()));
      const int id = live_ids_[i];
      live_ids_[i] = live_ids_.back();
      live_ids_.pop_back();
      const auto it = pending_.find(id);
      if (it == pending_.end()) continue;  // already fired or cancelled
      sim_.cancel(it->second.id);
      oracle_.erase(it->second.key);
      pending_.erase(it);
      return;
    }
  }

  /// Cancel the event behind oracle entry `it`; returns the next entry.
  OracleIt cancel_entry(OracleIt it) {
    const int id = std::get<4>(*it);
    const auto p = pending_.find(id);
    if (p != pending_.end()) {
      sim_.cancel(p->second.id);
      pending_.erase(p);
    } else {
      // A timer's event: stopping the timer cancels it.
      for (std::uint32_t node = 0; node < kTimers; ++node) {
        if (timer_id_[node] == id) {
          timers_[node]->stop();
          timer_id_[node] = -1;
        }
      }
    }
    return oracle_.erase(it);
  }

  /// Cancel pending events at instant `at`: every one, or each with
  /// probability 1/2.
  void cancel_at(TimeUs at, bool every) {
    auto it = oracle_.lower_bound(Key{at, 0, 0, 0, std::numeric_limits<int>::min()});
    while (it != oracle_.end() && std::get<0>(*it) == at) {
      it = every || rng_.bernoulli(0.5) ? cancel_entry(it) : std::next(it);
    }
    ++instant_cancels_;
  }

  /// Cancel every pending event of the instant of a random later event.
  void cancel_later_instant() {
    for (int tries = 0; tries < 4 && !live_ids_.empty(); ++tries) {
      const int id = live_ids_[static_cast<std::size_t>(rng_.uniform(live_ids_.size()))];
      const auto p = pending_.find(id);
      if (p != pending_.end() && std::get<0>(p->second.key) > now()) {
        cancel_at(std::get<0>(p->second.key), /*every=*/true);
        return;
      }
    }
  }

  /// Drop a timer's pending entry from the oracle (start() cancels it).
  void forget(int id) {
    for (auto it = oracle_.begin(); it != oracle_.end(); ++it) {
      if (std::get<4>(*it) == id) {
        oracle_.erase(it);
        return;
      }
    }
  }

  void on_fire(int id) {
    ++fired_;
    if (oracle_.empty() || std::get<4>(*oracle_.begin()) != id ||
        std::get<0>(*oracle_.begin()) != now()) {
      ++mismatches_;
      ADD_FAILURE() << "event " << id << " fired at " << now()
                    << " out of (at, key, owner, seq) order";
      return;
    }
    const std::uint32_t owner = std::get<2>(*oracle_.begin());
    oracle_.erase(oracle_.begin());
    pending_.erase(id);
    // Follow-ups inherit this event's owner; budget keeps runs finite.
    if (fired_ < kBudget) {
      const std::uint64_t follow_ups = rng_.uniform(4);
      for (std::uint64_t i = 0; i < follow_ups; ++i) act(owner);
      const std::uint64_t r = rng_.uniform(20);
      if (r == 0) {
        cancel_at(now(), /*every=*/false);
      } else if (r == 1) {
        cancel_later_instant();
      }
    }
  }

  static constexpr std::uint64_t kBudget = 20'000;

  Simulator sim_;
  Rng rng_;
  TimePattern pattern_;
  std::set<Key> oracle_;
  std::unordered_map<int, Pending> pending_;
  std::vector<int> live_ids_;
  std::vector<std::unique_ptr<OneShotTimer>> timers_;
  std::vector<int> timer_id_;
  std::uint64_t next_seq_ = 0;
  int next_id_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t mismatches_ = 0;
  std::uint64_t instant_cancels_ = 0;
  std::uint64_t timer_rebuilds_ = 0;
};

TEST(EventOrder, MatchesOracleOnSlotGrid) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EXPECT_GT(EventOrderOracle(seed, TimePattern::kSlotGrid).run(), 1000u);
  }
}

TEST(EventOrder, MatchesOracleOnDriftedInstants) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EXPECT_GT(EventOrderOracle(seed, TimePattern::kDrifted).run(), 1000u);
  }
}

TEST(EventOrder, MatchesOracleOnMixedInstants) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    EXPECT_GT(EventOrderOracle(seed, TimePattern::kMixed).run(), 1000u);
  }
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim(1);
  std::vector<TimeUs> seen;
  sim.at(100, [&] { seen.push_back(sim.now()); });
  sim.at(300, [&] { seen.push_back(sim.now()); });
  sim.run_until(1000);
  EXPECT_EQ(seen, (std::vector<TimeUs>{100, 300}));
  EXPECT_EQ(sim.now(), 1000);
}

TEST(Simulator, RunUntilIncludesBoundary) {
  Simulator sim(1);
  bool ran = false;
  sim.at(50, [&] { ran = true; });
  sim.run_until(50);
  EXPECT_TRUE(ran);
}

TEST(Simulator, EventsScheduleMoreEvents) {
  Simulator sim(1);
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.after(10, chain);
  };
  sim.after(10, chain);
  sim.run_until(1000);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(Simulator, AfterUsesCurrentTime) {
  Simulator sim(1);
  TimeUs fired_at = -1;
  sim.at(40, [&] { sim.after(5, [&] { fired_at = sim.now(); }); });
  sim.run_until(100);
  EXPECT_EQ(fired_at, 45);
}

TEST(Simulator, RunUntilPastQueueLeavesClockAtBound) {
  Simulator sim(1);
  sim.run_until(123);
  EXPECT_EQ(sim.now(), 123);
}

// ------------------------------------------- callbacks run in their record --

TEST(Simulator, CallbackCancellingItselfKeepsRunning) {
  Simulator sim(1);
  auto payload = std::make_shared<std::vector<int>>(std::vector<int>{4, 5, 6});
  EventId self = kInvalidEvent;
  std::vector<int> seen;
  self = sim.at(10, [&sim, &self, &seen, payload] {
    sim.cancel(self);  // the running event: a no-op
    EXPECT_EQ(sim.pending_events(), 0u);
    // The captures outlive the cancel, and so does the record: a new event
    // scheduled now must not reuse the running event's slot.
    sim.at(10, [&seen] { seen.push_back(7); });
    seen.insert(seen.end(), payload->begin(), payload->end());
    EXPECT_EQ(payload.use_count(), 2);
  });
  sim.run_all();
  EXPECT_EQ(seen, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(payload.use_count(), 1);  // the closure died after its call
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.cancel(self);  // stale by now
}

TEST(Simulator, CallbackCancelsLaterEventOfItsBatch) {
  Simulator sim(1);
  std::vector<int> order;
  EventId victim = kInvalidEvent;
  sim.at(10, [&] {
    order.push_back(1);
    sim.cancel(victim);  // already in the active batch at t=10
    EXPECT_EQ(sim.pending_events(), 1u);
  });
  victim = sim.at(10, [&] { order.push_back(2); });
  sim.at(10, [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, OneShotTimerRearmsFromItsOwnCallback) {
  Simulator sim(1);
  OneShotTimer timer(sim, 3);
  std::vector<TimeUs> fired;
  std::function<void()> arm = [&] {
    // Alternate a same-instant re-arm (into the active batch) with a
    // later one.
    timer.start(fired.size() % 2 == 0 ? 5 : 0, [&] {
      fired.push_back(sim.now());
      if (fired.size() < 5) arm();
      EXPECT_EQ(timer.running(), fired.size() < 5);
    });
  };
  arm();
  sim.run_all();
  EXPECT_EQ(fired, (std::vector<TimeUs>{5, 5, 10, 10, 15}));
  EXPECT_FALSE(timer.running());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CallbackGrowsThePoolWhileRunning) {
  // The running record sits in the pool's first chunk while the callback
  // allocates more than a chunk of new slots.
  Simulator sim(1);
  static constexpr std::uint32_t kEvents = 2 * EventPool::kChunkSize + 17;
  auto tag = std::make_shared<int>(42);
  std::uint32_t ran = 0;
  EventId self = kInvalidEvent;
  self = sim.at(1, [&sim, &ran, &self, tag] {
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      sim.at(1 + i % 3, [&ran] { ++ran; });
    }
    sim.cancel(self);
    EXPECT_EQ(*tag, 42);
    EXPECT_EQ(sim.pending_events(), kEvents);
  });
  sim.run_all();
  EXPECT_EQ(ran, kEvents);
  EXPECT_EQ(tag.use_count(), 1);
  EXPECT_EQ(sim.events_processed(), kEvents + 1);
}

TEST(OneShotTimer, FiresOnce) {
  Simulator sim(1);
  OneShotTimer t(sim);
  int fires = 0;
  t.start(10, [&] { ++fires; });
  sim.run_until(100);
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.running());
}

TEST(OneShotTimer, RestartCancelsPrevious) {
  Simulator sim(1);
  OneShotTimer t(sim);
  int value = 0;
  t.start(10, [&] { value = 1; });
  t.start(20, [&] { value = 2; });
  sim.run_until(100);
  EXPECT_EQ(value, 2);
}

TEST(OneShotTimer, StopPreventsFire) {
  Simulator sim(1);
  OneShotTimer t(sim);
  bool fired = false;
  t.start(10, [&] { fired = true; });
  t.stop();
  sim.run_until(100);
  EXPECT_FALSE(fired);
}

// ---------------------------------------------- timer-handle lifetimes --

TEST(OneShotTimer, DestroyedWhilePendingIsNeverWrittenTo) {
  // The timer sits in storage that outlives it, so a write through the
  // pending event's stale timer address shows up as a changed byte.
  Simulator sim(1);
  alignas(OneShotTimer) unsigned char storage[sizeof(OneShotTimer)];
  auto tag = std::make_shared<int>(1);
  auto* timer = ::new (static_cast<void*>(storage)) OneShotTimer(sim, 2);
  timer->start(10, [tag] { ADD_FAILURE() << "a destroyed timer fired"; });
  EXPECT_EQ(tag.use_count(), 2);
  timer->~OneShotTimer();
  EXPECT_EQ(tag.use_count(), 1);  // cancelling released the captures
  std::fill(std::begin(storage), std::end(storage), static_cast<unsigned char>(0xA5));
  // Reach the cancelled entry so its slot is released, then reuse the
  // slot (and others) with plain events and with a live timer's events.
  OneShotTimer other(sim, 2);
  int ran = 0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 8; ++i) sim.after(5 + i % 3, [&ran] { ++ran; });
    other.start(6, [&ran] { ++ran; });
    sim.run_until(sim.now() + 20);
  }
  EXPECT_EQ(ran, 4 * 9);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(std::all_of(std::begin(storage), std::end(storage),
                          [](unsigned char b) { return b == 0xA5; }));
}

TEST(OneShotTimer, DestroyedByItsOwnCallback) {
  // SixpAgent::on_timeout erases the transaction that owns the running
  // timer. The closure lives in the event record, so it outlives the
  // timer until the call returns; nothing may touch the timer afterwards
  // (ASan reports a write to the freed timer).
  Simulator sim(1);
  auto timer = std::make_unique<OneShotTimer>(sim, 1);
  auto tag = std::make_shared<int>(7);
  int after = 0;
  timer->start(10, [&timer, &sim, &after, tag] {
    EXPECT_FALSE(timer->running());
    timer.reset();
    EXPECT_EQ(*tag, 7);
    EXPECT_EQ(tag.use_count(), 2);
    for (int i = 0; i < 4; ++i) sim.at(10, [&after] { ++after; });
  });
  sim.run_all();
  EXPECT_EQ(timer, nullptr);
  EXPECT_EQ(after, 4);
  EXPECT_EQ(tag.use_count(), 1);  // the closure died after its call
  EXPECT_EQ(sim.events_processed(), 5u);
}

TEST(OneShotTimer, RunningIsFalseInsideItsCallbackUntilRearmed) {
  Simulator sim(1);
  OneShotTimer t(sim);
  std::vector<bool> running;
  t.start(5, [&] {
    running.push_back(t.running());
    t.start(5, [&] { running.push_back(t.running()); });
    running.push_back(t.running());
  });
  EXPECT_TRUE(t.running());
  sim.run_all();
  EXPECT_EQ(running, (std::vector<bool>{false, true, false}));
  EXPECT_FALSE(t.running());
  EXPECT_EQ(sim.now(), 10);
}

TEST(PeriodicTimer, FiresAtFixedPeriod) {
  Simulator sim(1);
  PeriodicTimer t(sim);
  std::vector<TimeUs> fires;
  t.start(10, 100, [&] { fires.push_back(sim.now()); });
  sim.run_until(450);
  EXPECT_EQ(fires, (std::vector<TimeUs>{10, 110, 210, 310, 410}));
}

TEST(PeriodicTimer, StopInsideCallback) {
  Simulator sim(1);
  PeriodicTimer t(sim);
  int fires = 0;
  t.start(10, 10, [&] {
    if (++fires == 3) t.stop();
  });
  sim.run_until(1000);
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTimer, JitterStaysWithinBound) {
  Simulator sim(1);
  Rng rng(5);
  PeriodicTimer t(sim);
  std::vector<TimeUs> fires;
  t.start(0, 100, [&] { fires.push_back(sim.now()); }, &rng, 50);
  sim.run_until(2000);
  ASSERT_GE(fires.size(), 2u);
  for (std::size_t i = 1; i < fires.size(); ++i) {
    const TimeUs gap = fires[i] - fires[i - 1];
    EXPECT_GE(gap, 100);
    EXPECT_LE(gap, 200);  // period + own jitter + previous-fire shift
  }
}

TEST(Trickle, FirstFireWithinFirstInterval) {
  Simulator sim(1);
  TimeUs fired = -1;
  TrickleTimer t(sim, Rng(3), 1000, 4, [&] { fired = sim.now(); });
  t.start();
  sim.run_until(1000);
  EXPECT_GE(fired, 500);   // in [I/2, I)
  EXPECT_LT(fired, 1000);
}

TEST(Trickle, IntervalDoublesUpToImax) {
  Simulator sim(1);
  TrickleTimer t(sim, Rng(3), 1000, 2, [] {});
  t.start();
  EXPECT_EQ(t.current_interval(), 1000);
  sim.run_until(1000);
  EXPECT_EQ(t.current_interval(), 2000);
  sim.run_until(3000);
  EXPECT_EQ(t.current_interval(), 4000);
  sim.run_until(60000);
  EXPECT_EQ(t.current_interval(), 4000);  // Imax = 1000 << 2
}

TEST(Trickle, ResetShrinksToImin) {
  Simulator sim(1);
  TrickleTimer t(sim, Rng(3), 1000, 4, [] {});
  t.start();
  sim.run_until(3100);
  EXPECT_GT(t.current_interval(), 1000);
  t.reset();
  EXPECT_EQ(t.current_interval(), 1000);
}

TEST(Trickle, FiresRepeatedly) {
  Simulator sim(1);
  int fires = 0;
  TrickleTimer t(sim, Rng(3), 1000, 8, [&] { ++fires; });
  t.start();
  sim.run_until(30000);
  EXPECT_GE(fires, 4);  // intervals 1k,2k,4k,8k,16k -> at least 5 fires
}

TEST(Trickle, StopHaltsFiring) {
  Simulator sim(1);
  int fires = 0;
  TrickleTimer t(sim, Rng(3), 1000, 4, [&] { ++fires; });
  t.start();
  sim.run_until(1000);
  const int at_stop = fires;
  t.stop();
  sim.run_until(50000);
  EXPECT_EQ(fires, at_stop);
}

}  // namespace
}  // namespace gttsch
