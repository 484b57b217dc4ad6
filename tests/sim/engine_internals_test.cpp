// Tests for the event-engine internals introduced by the pooled-callback /
// timer-wheel rewrite: (time, insertion-seq) order equivalence against a
// reference heap engine, EventId generation-reuse safety, wheel/heap boundary
// behaviour, tombstone-heavy queues, and the zero-allocation re-arm path.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "counting_allocator.hpp"

namespace fluxpower::sim {
namespace {

// ---------------------------------------------------------------------------
// Reference engine: the seed's single std::priority_queue with shared_ptr'd
// callbacks. Slow but obviously correct; the rewrite must reproduce its
// firing order exactly on any workload.
class RefEngine {
 public:
  using Id = std::uint64_t;

  Id schedule_at(double t, std::function<void()> fn) {
    const Id id = next_id_++;
    queue_.push(Item{t, seq_++, id});
    callbacks_[id] = std::move(fn);
    return id;
  }
  Id schedule_after(double dt, std::function<void()> fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }
  bool cancel(Id id) { return callbacks_.erase(id) != 0; }

  bool step() {
    while (!queue_.empty()) {
      const Item it = queue_.top();
      queue_.pop();
      auto cb = callbacks_.find(it.id);
      if (cb == callbacks_.end()) continue;  // tombstone
      std::function<void()> fn = std::move(cb->second);
      callbacks_.erase(cb);
      now_ = it.time;
      ++executed_;
      fn();
      return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }
  double now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }

 private:
  struct Item {
    double time;
    std::uint64_t seq;
    Id id;
    bool operator>(const Item& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<>> queue_;
  std::unordered_map<Id, std::function<void()>> callbacks_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  Id next_id_ = 1;
};

// Deterministic LCG so both engines see the byte-identical action script.
struct Lcg {
  std::uint64_t s;
  std::uint32_t next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(s >> 33);
  }
  double uniform() { return next() / 4294967296.0; }
};

// Drives one engine through a scripted mixed workload: near/far scheduling,
// cancellation of a sliding window of pending ids, nested scheduling from
// inside callbacks, and bursts at identical timestamps. Records the firing
// trace as (time, label) pairs.
template <typename Engine, typename Id>
std::vector<std::pair<double, int>> run_script(Engine& eng,
                                               std::uint64_t seed) {
  std::vector<std::pair<double, int>> trace;
  std::vector<Id> pending;
  Lcg rng{seed};
  int label = 0;
  for (int i = 0; i < 800; ++i) {
    const std::uint32_t roll = rng.next() % 100;
    if (roll < 55) {
      // Near-future event; ~1/4 land inside the current wheel bucket.
      const double dt = rng.uniform() * 8.0;
      const int l = label++;
      pending.push_back(eng.schedule_after(dt, [&trace, &eng, l] {
        trace.emplace_back(eng.now(), l);
      }));
    } else if (roll < 65) {
      // Far event, past the 1024 s wheel horizon.
      const double dt = 1024.0 + rng.uniform() * 4096.0;
      const int l = label++;
      pending.push_back(eng.schedule_after(dt, [&trace, &eng, l] {
        trace.emplace_back(eng.now(), l);
      }));
    } else if (roll < 75) {
      // Burst of 4 at one timestamp: exercises FIFO tie-break.
      const double dt = rng.uniform() * 2.0;
      for (int k = 0; k < 4; ++k) {
        const int l = label++;
        pending.push_back(eng.schedule_after(dt, [&trace, &eng, l] {
          trace.emplace_back(eng.now(), l);
        }));
      }
    } else if (roll < 85) {
      // Nested: the fired callback schedules two children (one 0-delay).
      const double dt = rng.uniform() * 4.0;
      const int l = label;
      label += 3;
      pending.push_back(eng.schedule_after(dt, [&trace, &eng, l] {
        trace.emplace_back(eng.now(), l);
        eng.schedule_after(0.0, [&trace, &eng, l] {
          trace.emplace_back(eng.now(), l + 1);
        });
        eng.schedule_after(0.5, [&trace, &eng, l] {
          trace.emplace_back(eng.now(), l + 2);
        });
      }));
    } else if (!pending.empty()) {
      // Cancel a pseudo-random pending id (may already have fired).
      const std::size_t k = rng.next() % pending.size();
      eng.cancel(pending[k]);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(k));
    }
  }
  eng.run();
  return trace;
}

TEST(EngineEquivalence, MixedWorkloadTraceMatchesReferenceHeap) {
  for (std::uint64_t seed : {1ULL, 42ULL, 20260806ULL}) {
    Simulation sim;
    RefEngine ref;
    const auto got = run_script<Simulation, EventId>(sim, seed);
    const auto want = run_script<RefEngine, RefEngine::Id>(ref, seed);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i].first, want[i].first)
          << "seed " << seed << " event " << i;
      EXPECT_EQ(got[i].second, want[i].second)
          << "seed " << seed << " event " << i;
    }
    EXPECT_EQ(sim.events_executed(), ref.events_executed()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(sim.now(), ref.now()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// EventId generation reuse.

TEST(EventIdSafety, StaleIdCannotCancelSlotsNewOccupant) {
  Simulation sim;
  // Fill + fire one event so its slot returns to the free list.
  const EventId first = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(first));  // already fired

  // The very next schedule reuses that slot (LIFO free list) but with a
  // bumped generation; the stale id must not cancel it.
  bool fired = false;
  const EventId second = sim.schedule_at(2.0, [&] { fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(EventIdSafety, StaleIdAfterCancelCannotCancelReusedSlot) {
  Simulation sim;
  const EventId a = sim.schedule_at(5.0, [] {});
  ASSERT_TRUE(sim.cancel(a));
  bool fired = false;
  sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_FALSE(sim.cancel(a));  // stale handle, reused slot
  EXPECT_FALSE(sim.cancel(kInvalidEvent));
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(EventIdSafety, IdsSurvivePoolGrowthAcrossChunks) {
  Simulation sim;
  // More simultaneous events than one slab chunk holds; every id must
  // remain independently cancellable.
  constexpr std::size_t kCount = Simulation::kChunkSlots * 3 + 17;
  std::vector<EventId> ids;
  ids.reserve(kCount);
  int fired = 0;
  for (std::size_t i = 0; i < kCount; ++i) {
    ids.push_back(
        sim.schedule_at(1.0 + static_cast<double>(i % 7), [&] { ++fired; }));
  }
  EXPECT_GE(sim.pool_chunks(), 4u);
  // Cancel every third event.
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < kCount; i += 3) {
    EXPECT_TRUE(sim.cancel(ids[i]));
    ++cancelled;
  }
  EXPECT_EQ(sim.pending(), kCount - cancelled);
  sim.run();
  EXPECT_EQ(static_cast<std::size_t>(fired), kCount - cancelled);
}

// ---------------------------------------------------------------------------
// Wheel / heap boundary behaviour.

TEST(WheelBoundary, EventExactlyAtHorizonFiresInOrder) {
  Simulation sim;
  const double horizon = Simulation::kBucketWidth * Simulation::kNumBuckets;
  std::vector<double> fired;
  sim.schedule_at(horizon, [&] { fired.push_back(sim.now()); });       // far_
  sim.schedule_at(horizon - 0.001, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(horizon + 0.001, [&] { fired.push_back(sim.now()); });
  sim.schedule_at(0.0, [&] { fired.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_DOUBLE_EQ(fired[0], 0.0);
  EXPECT_DOUBLE_EQ(fired[1], horizon - 0.001);
  EXPECT_DOUBLE_EQ(fired[2], horizon);
  EXPECT_DOUBLE_EQ(fired[3], horizon + 0.001);
}

TEST(WheelBoundary, ZeroDelayFromInsideCallbackPreservesFifo) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(0);
    // Land at now() == 1.0 but with later insertion seqs than the peer
    // already queued at 1.0 — FIFO puts them after it.
    sim.schedule_after(0.0, [&] { order.push_back(2); });
    sim.schedule_after(0.0, [&] { order.push_back(3); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WheelBoundary, CancelInsideOwnCallbackReturnsFalse) {
  Simulation sim;
  EventId self = kInvalidEvent;
  bool result = true;
  self = sim.schedule_at(1.0, [&] { result = sim.cancel(self); });
  sim.run();
  EXPECT_FALSE(result);  // already fired; cancelling the firing event is a no-op
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(WheelBoundary, EpochRebaseAcrossMultipleHorizons) {
  Simulation sim;
  const double horizon = Simulation::kBucketWidth * Simulation::kNumBuckets;
  std::vector<double> fired;
  // Events spanning four wheel epochs, scheduled out of order.
  for (double t : {3.5 * horizon, 0.5 * horizon, 2.25 * horizon, 1.0 * horizon,
                   3.5 * horizon}) {
    sim.schedule_at(t, [&] { fired.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 5u);
  EXPECT_DOUBLE_EQ(fired[0], 0.5 * horizon);
  EXPECT_DOUBLE_EQ(fired[1], 1.0 * horizon);
  EXPECT_DOUBLE_EQ(fired[2], 2.25 * horizon);
  EXPECT_DOUBLE_EQ(fired[3], 3.5 * horizon);
  EXPECT_DOUBLE_EQ(fired[4], 3.5 * horizon);  // FIFO among equals
}

TEST(WheelBoundary, SchedulingBehindCursorAfterDrainStaysOrdered) {
  Simulation sim;
  std::vector<int> order;
  // First event advances now() deep into a bucket, then schedules into the
  // *same* bucket (behind the drained cursor) and into the next one.
  sim.schedule_at(10.1, [&] {
    order.push_back(0);
    sim.schedule_at(10.2, [&] { order.push_back(1); });  // same bucket
    sim.schedule_at(10.3, [&] { order.push_back(2); });  // next bucket
    sim.schedule_at(10.15, [&] { order.push_back(3); }); // between
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 10.3);
}

// ---------------------------------------------------------------------------
// Tombstones and pending() accounting.

TEST(Tombstones, RunUntilSkipsTombstonesWithoutAdvancingTime) {
  Simulation sim;
  std::vector<EventId> ids;
  int fired = 0;
  // 1000 events, then cancel 90% — the queue is mostly tombstones.
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(
        sim.schedule_at(1.0 + i * 0.01, [&] { ++fired; }));
  }
  for (int i = 0; i < 1000; ++i) {
    if (i % 10 != 0) ASSERT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
  }
  EXPECT_EQ(sim.pending(), 100u);
  // Run to just before the first survivor: no event fires, time advances.
  sim.run_until(0.5);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 0.5);
  // Run across half the survivors.
  sim.run_until(5.999);
  EXPECT_EQ(fired, 50);
  EXPECT_EQ(sim.pending(), 50u);
  EXPECT_DOUBLE_EQ(sim.now(), 5.999);
  sim.run_until(20.0);
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
}

TEST(Tombstones, PendingCountsLiveEventsOnly) {
  Simulation sim;
  const EventId a = sim.schedule_at(1.0, [] {});
  const EventId b = sim.schedule_at(2.0, [] {});
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(b);
  sim.cancel(b);  // double cancel is benign
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Tombstones, StepOverFullyCancelledQueueReturnsFalse) {
  Simulation sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) {
    ids.push_back(sim.schedule_at(1.0 + i, [] {}));
  }
  for (EventId id : ids) ASSERT_TRUE(sim.cancel(id));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.step());       // drains tombstones, fires nothing
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // time must not advance
}

// ---------------------------------------------------------------------------
// Zero-allocation re-arm.

TEST(ZeroAlloc, PeriodicRearmAllocatesNothingInSteadyState) {
  Simulation sim;
  int ticks = 0;
  PeriodicTask task(sim, 2.0, [&] {
    ++ticks;
    return true;
  });
  // A few periods suffice: a drained bucket's storage is recycled into the
  // next bucket that receives an entry, not left until the wheel wraps.
  sim.run_until(10.0);
  ASSERT_EQ(ticks, 5);
  const int ticks_before = ticks;
  const std::uint64_t news_before = test::heap_allocations();
  sim.run_until(sim.now() + 512.0);
  const std::uint64_t news_after = test::heap_allocations();
  EXPECT_EQ(ticks - ticks_before, 256);
  EXPECT_EQ(news_after - news_before, 0u)
      << "steady-state periodic re-arm must not allocate";
  EXPECT_EQ(sim.callback_heap_allocs(), 0u);
  task.stop();
}

TEST(ZeroAlloc, SynchronizedSweepsHoldAConstantHeap) {
  // A site's samplers re-arm in lockstep: every 2 s one bucket holds them
  // all. Each sweep must reuse drained storage, so the engine's heap stays
  // flat through the run instead of stranding one run-sized vector per
  // sweep until the wheel wraps.
  Simulation sim;
  std::vector<std::unique_ptr<PeriodicTask>> tasks;
  for (int i = 0; i < 4096; ++i) {
    tasks.push_back(
        std::make_unique<PeriodicTask>(sim, 2.0, [] { return true; }));
  }
  sim.run_until(20.0);
  const std::int64_t bytes_before = test::heap_live_bytes();
  const std::uint64_t news_before = test::heap_allocations();
  sim.run_until(200.0);
  const std::int64_t bytes_after = test::heap_live_bytes();
  const std::uint64_t news_after = test::heap_allocations();
  EXPECT_EQ(sim.events_executed(), 4096u * 100);
  EXPECT_EQ(bytes_after - bytes_before, 0) << "live engine heap must not grow";
  EXPECT_EQ(news_after - news_before, 0u);
}

// Drained storage is recycled by size class: a bucket that receives its
// first entry or fills up takes the smallest recycled vector larger than
// its own. Events are scheduled at t >= 10 s, in buckets no earlier event
// touched, and no scheduling below allocates: the slot pool's first chunk
// holds every event, and each vector comes off the free lists.
void schedule_burst(Simulation& sim, double t, int n, int& fired) {
  for (int i = 0; i < n; ++i) sim.schedule_at(t, [&fired] { ++fired; });
}

TEST(FreeRuns, FillingBucketTakesTheSmallestLargerRecycledVector) {
  Simulation sim;
  int fired = 0;
  // Bursts of 64, 4 and 16 entries in three buckets, then one entry: each
  // drain hands the spent ready run to the free lists, leaving vectors of
  // capacity 64, 4 and 16 there.
  schedule_burst(sim, 1.0, 64, fired);
  schedule_burst(sim, 2.0, 4, fired);
  schedule_burst(sim, 3.0, 16, fired);
  schedule_burst(sim, 4.0, 1, fired);
  sim.run();
  ASSERT_EQ(fired, 85);

  const std::uint64_t news_before = test::heap_allocations();
  // One periodic-style entry takes the 4; a burst of 64 then grows through
  // the 16 into the 64 instead of allocating. Had the single entry taken
  // the 64, the burst would outgrow the 16 and allocate.
  schedule_burst(sim, 10.0, 1, fired);
  schedule_burst(sim, 11.0, 64, fired);
  EXPECT_EQ(test::heap_allocations() - news_before, 0u);
  sim.run();
  EXPECT_EQ(fired, 85 + 65);
}

TEST(FreeRuns, BurstFindsTheVectorAnEarlierBurstLeftBehind) {
  Simulation sim;
  int fired = 0;
  // A burst of 100 (a 128-entry vector) and four single entries: a ready
  // run's storage reaches the free lists when the next bucket drains, so
  // they end with the burst's vector and three 1-entry ones.
  schedule_burst(sim, 1.0, 100, fired);
  for (int i = 0; i < 4; ++i) schedule_burst(sim, 2.0 + i, 1, fired);
  sim.run();
  ASSERT_EQ(fired, 104);

  const std::uint64_t news_before = test::heap_allocations();
  for (int round = 0; round < 3; ++round) {
    // Lone entries before and after the burst take the small vectors, so
    // each burst finds the one the last burst left behind.
    const double t = 10.0 + 5.0 * round;
    schedule_burst(sim, t, 1, fired);
    schedule_burst(sim, t + 1.0, 100, fired);
    schedule_burst(sim, t + 2.0, 1, fired);
    sim.run();
  }
  EXPECT_EQ(test::heap_allocations() - news_before, 0u);
  EXPECT_EQ(fired, 104 + 3 * 102);
}

TEST(ZeroAlloc, RearmFiredReusesSlotAndInvalidatesOldId) {
  Simulation sim;
  int fires = 0;
  EventId current = kInvalidEvent;
  current = sim.schedule_at(1.0, [&] {
    if (++fires < 3) {
      current = sim.rearm_fired(current, sim.now() + 1.0);
    }
  });
  const EventId first = current;
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  EXPECT_FALSE(sim.cancel(first));  // superseded by the re-arm
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(ZeroAlloc, RearmThenCancelStopsTheChain) {
  Simulation sim;
  int fires = 0;
  EventId current = kInvalidEvent;
  current = sim.schedule_at(1.0, [&] {
    ++fires;
    current = sim.rearm_fired(current, sim.now() + 1.0);
  });
  sim.run_until(2.5);  // two firings, one re-armed event pending at t=3
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_TRUE(sim.cancel(current));
  EXPECT_EQ(sim.pending(), 0u);
  sim.run();
  EXPECT_EQ(fires, 2);
}

TEST(ZeroAlloc, PeriodicAbsoluteRearmDoesNotDriftUnderNestedRunUntil) {
  Simulation sim;
  std::vector<double> fire_times;
  PeriodicTask task(sim, 10.0, [&] {
    fire_times.push_back(sim.now());
    // Consume simulated time inside the callback; the next firing must
    // still land on the absolute 10 s grid, not now()+10.
    sim.run_until(sim.now() + 3.0);
    return fire_times.size() < 5;
  });
  sim.run();
  ASSERT_EQ(fire_times.size(), 5u);
  for (std::size_t i = 0; i < fire_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(fire_times[i], 10.0 * static_cast<double>(i + 1));
  }
}

}  // namespace
}  // namespace fluxpower::sim
