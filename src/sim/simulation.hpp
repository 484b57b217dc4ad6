// simulation.hpp — deterministic discrete-event simulation engine.
//
// Everything above the hardware models (brokers, modules, applications,
// power policies) executes against this virtual clock instead of wall time.
// The engine is single-threaded and strictly ordered: events fire in
// (time, insertion-sequence) order, so a given scenario + seed always
// produces identical tables. "Threads of control" in the real Flux (module
// threads, the node-level-manager's tracking thread) map to periodic tasks
// here; the substitution is behaviour-preserving because those threads are
// themselves timer-driven loops.
//
// Internals (see DESIGN.md, "Event engine internals" for the full story):
//
//   * Callbacks live in a slab-allocated pool of fixed slots with 56 bytes
//     of inline storage each (heap fallback for larger captures). An
//     EventId encodes {slot, generation}, so cancel() and the fired-check
//     are O(1) array probes — no hashing, no tombstone map, and a stale id
//     held across slot reuse can never cancel the new occupant.
//   * Scheduling routes through a bucketed timer wheel (0.25 s buckets,
//     1024 s horizon) for the dominant near-future periodic events
//     (2 s monitor sweeps, FFT windows, FPP intervals). When the cursor
//     reaches a bucket its entries are compacted and sorted once into a
//     sequentially-consumed "ready run" (synchronized periodic sweeps
//     arrive already sorted, so the sort usually degenerates to one
//     is_sorted scan) — avoiding O(log n) heap percolation per event. A
//     small overflow heap order events scheduled into the current bucket
//     after its drain (e.g. sub-millisecond message hops), and a far heap
//     holds everything behind the horizon. The (time, insertion-seq) total
//     order is identical to a single global heap's.
//   * A fired callback may re-arm its own slot in place
//     (Simulation::rearm_fired), which is how PeriodicTask and the
//     app-runtime step loop repeat with zero per-event heap allocations.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace fluxpower::sim {

/// Simulated time in seconds since simulation start.
using Time = double;

/// Handle for a scheduled event; valid until the event fires or is
/// cancelled. Encodes {pool slot + 1, slot generation} so stale handles
/// fail an O(1) probe instead of aliasing a reused slot.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

namespace detail {

/// Type-erased void() callable pinned to a pool slot. Slots never move, so
/// no move/copy machinery is needed — only emplace, invoke and destroy.
/// Captures up to kInlineBytes live in the slot itself; larger ones fall
/// back to one heap allocation (counted by the engine).
class SlotCallback {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  SlotCallback() = default;
  SlotCallback(const SlotCallback&) = delete;
  SlotCallback& operator=(const SlotCallback&) = delete;
  ~SlotCallback() { reset(); }

  /// Returns true when the callable required a heap allocation.
  template <typename F>
  bool emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    reset();
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      target_ = ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &Ops::For<Fn>::inline_ops;
      return false;
    } else {
      target_ = new Fn(std::forward<F>(fn));
      ops_ = &Ops::For<Fn>::heap_ops;
      return true;
    }
  }

  void invoke() { ops_->invoke(target_); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(target_);
      ops_ = nullptr;
      target_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*destroy)(void*);

    template <typename Fn>
    struct For {
      static void do_invoke(void* p) { (*static_cast<Fn*>(p))(); }
      static void do_destroy_inline(void* p) noexcept {
        static_cast<Fn*>(p)->~Fn();
      }
      static void do_destroy_heap(void* p) noexcept {
        delete static_cast<Fn*>(p);
      }
      static constexpr Ops inline_ops{&do_invoke, &do_destroy_inline};
      static constexpr Ops heap_ops{&do_invoke, &do_destroy_heap};
    };
  };

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void* target_ = nullptr;
  const Ops* ops_ = nullptr;
};

/// Detects default-constructed std::function / null function pointers at
/// schedule time, preserving the seed engine's empty-callback guard.
/// Capturing lambdas are not bool-testable and pass through; non-capturing
/// ones decay to a (non-null) function pointer.
template <typename F>
bool is_empty_callable(const F& fn) {
  if constexpr (std::is_constructible_v<bool, const F&>) {
    return !static_cast<bool>(fn);
  } else {
    return false;
  }
}

}  // namespace detail

class Simulation {
 public:
  Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  Time now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  template <typename F>
  EventId schedule_at(Time t, F&& fn) {
    check_time(t);
    if (detail::is_empty_callable(fn)) {
      throw std::invalid_argument("Simulation::schedule_at: empty callback");
    }
    const std::uint32_t idx = acquire_slot();
    try {
      if (slot(idx).callback.emplace(std::forward<F>(fn))) {
        ++callback_heap_allocs_;
      }
    } catch (...) {
      free_slot(idx);
      throw;
    }
    return enqueue(t, idx);
  }
  EventId schedule_at(Time, std::nullptr_t) {
    throw std::invalid_argument("Simulation::schedule_at: empty callback");
  }

  /// Schedule `fn` after a delay of `dt` seconds (dt >= 0).
  template <typename F>
  EventId schedule_after(Time dt, F&& fn) {
    return schedule_at(now_ + dt, std::forward<F>(fn));
  }

  /// Cancel a pending event. Returns false if it already fired or never
  /// existed — cancelling twice is benign, as module unload paths race
  /// naturally with their own timers. O(1): a generation probe on the slot;
  /// the queue entry becomes a tombstone skipped lazily.
  bool cancel(EventId id);

  /// Re-arm the event whose callback is currently executing at absolute
  /// time `t`, reusing its pool slot and stored callback: no destruction,
  /// no construction, no allocation. Only legal from inside that event's
  /// own callback with the id it fired under; returns the new id (the old
  /// one is invalidated). This is the zero-allocation path PeriodicTask and
  /// the app-runtime step loop repeat through.
  EventId rearm_fired(EventId fired, Time t);

  /// Execute the next event. Returns false when the queue is empty.
  bool step();

  /// Run until the event queue drains.
  void run();

  /// Run events with time <= t, then set now() to t even if idle.
  void run_until(Time t);

  /// Run events with time strictly < end, leaving now() at the last
  /// executed event (idle time does not elapse). The sharded engine's
  /// window driver uses this to advance one island through a conservative
  /// time window [start, end) between barriers.
  void run_before(Time end);

  /// Absolute time of the next live event without executing it, or
  /// +infinity when the queue is empty. Shares run_until's front
  /// normalization (tombstones dropped, wheel cursor advanced, epoch
  /// rebased) — a pure queue reshaping that cannot change the (time, seq)
  /// firing order. The digital twin's phased runner uses this to stop a
  /// scenario exactly at a snapshot horizon.
  Time next_event_time();

  /// Number of live (scheduled, not fired, not cancelled) events.
  /// Tombstoned queue entries are never counted.
  std::size_t pending() const noexcept { return live_; }
  std::uint64_t events_executed() const noexcept { return executed_; }

  // --- Engine introspection (tests, benches) ------------------------------

  /// Callbacks whose captures exceeded the inline slot storage and took the
  /// heap fallback, over the engine's lifetime.
  std::uint64_t callback_heap_allocs() const noexcept {
    return callback_heap_allocs_;
  }
  /// Slab chunks allocated by the event pool (kChunkSlots slots each).
  std::size_t pool_chunks() const noexcept { return chunks_.size(); }
  /// Monotone insertion-sequence counter — the tie-break half of the
  /// (time, seq) total order. Two runs that agree on now(), pending() and
  /// seq_counter() have scheduled exactly the same number of events in the
  /// same causal positions; the twin probe digests it for that reason.
  std::uint64_t seq_counter() const noexcept { return next_seq_; }
  /// Timer-wheel epoch state (digested by the twin probe; a replayed run
  /// must land on the identical epoch or far-heap contents could differ).
  Time wheel_epoch_base() const noexcept { return wheel_base_; }
  int wheel_cursor() const noexcept { return cursor_; }
  std::uint64_t wheel_rebases() const noexcept { return rebases_; }

  static constexpr std::size_t kChunkSlots = 256;
  static constexpr double kBucketWidth = 0.25;   // seconds per wheel bucket
  static constexpr int kNumBuckets = 4096;       // => 1024 s wheel horizon

 private:
  struct Entry {
    Time time;
    std::uint64_t seq;  // FIFO tie-break for simultaneous events
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  static bool entry_less(const Entry& a, const Entry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  static bool entry_greater(const Entry& a, const Entry& b) noexcept {
    return entry_less(b, a);
  }

  struct EventSlot {
    detail::SlotCallback callback;
    std::uint32_t generation = 1;
    std::uint32_t next_free = 0;
    bool live = false;      // scheduled and not yet fired/cancelled
    bool on_stack = false;  // callback currently executing
  };

  static constexpr std::uint32_t kNoFreeSlot =
      std::numeric_limits<std::uint32_t>::max();

  static EventId make_id(std::uint32_t idx, std::uint32_t gen) noexcept {
    return (static_cast<EventId>(idx + 1) << 32) | gen;
  }

  EventSlot& slot(std::uint32_t idx) noexcept {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }
  const EventSlot& slot(std::uint32_t idx) const noexcept {
    return chunks_[idx / kChunkSlots][idx % kChunkSlots];
  }

  bool entry_live(const Entry& e) const noexcept {
    const EventSlot& s = slot(e.slot);
    return s.live && s.generation == e.gen;
  }

  void check_time(Time t) const;
  std::uint32_t acquire_slot();
  void free_slot(std::uint32_t idx) noexcept;     // no callback destruction
  void release_slot(std::uint32_t idx) noexcept;  // destroy callback + free
  EventId enqueue(Time t, std::uint32_t idx);
  void push_entry(const Entry& e);
  Time bucket_end(int b) const noexcept {
    return wheel_base_ + (b + 1) * kBucketWidth;
  }
  /// Called when `bucket` is full (or has no storage yet): trade it for a
  /// larger vector from free_runs_ when one is there.
  void grow_from_free_runs(std::vector<Entry>& bucket);
  int next_occupied_bucket(int from) const noexcept;
  void drain_bucket(int b);
  void rebase(Time t);
  void push_overflow(const Entry& e);
  void pop_overflow();
  /// Normalize the queue front: drop tombstones, advance the wheel cursor,
  /// rebase the epoch. Returns the next live entry (in the ready run or the
  /// overflow heap) or nullptr when the queue is empty. Does not execute or
  /// advance now().
  const Entry* peek_next();
  /// Consume the entry peek_next() just returned.
  void pop_front(const Entry* top);
  void fire(const Entry& e);

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::uint64_t callback_heap_allocs_ = 0;
  std::uint64_t rebases_ = 0;  ///< epoch rebases over the engine's lifetime

  // Event pool: chunked slabs so slots never move while callbacks run.
  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  std::uint32_t free_head_ = kNoFreeSlot;

  // Timer wheel epoch [wheel_base_, wheel_base_ + kNumBuckets * width).
  // The cursor bucket's entries, compacted + sorted once at drain time,
  // form ready_ (consumed sequentially from ready_pos_). overflow_ orders
  // entries scheduled before the cursor bucket's end after its drain; far_
  // holds everything at/after the horizon; buckets in between hold
  // unsorted entries until the cursor reaches them. The live front is
  // min(ready_[ready_pos_], overflow_.top()) by (time, seq) — identical to
  // a single global heap's order, but synchronized periodic sweeps pay one
  // linear scan per bucket instead of a heap percolation per event.
  // overflow_ is a manual min-heap (std::push_heap on entry_greater) so
  // that once the ready run drains, its whole backing vector can be stolen
  // and sorted into the next run — a broadcast fan-out (N deliveries at
  // near-identical times) then costs one linear scan instead of N log N
  // heap pops. A drained bucket hands its storage to free_runs_, and a
  // bucket takes storage from there, best fit, when it receives its first
  // entry or fills up (grow_from_free_runs), so the list never holds more
  // vectors than buckets were occupied at once.
  std::vector<Entry> ready_;
  std::size_t ready_pos_ = 0;
  std::vector<Entry> overflow_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> far_;
  std::vector<std::vector<Entry>> buckets_;
  std::vector<std::vector<Entry>> free_runs_;
  std::array<std::uint64_t, kNumBuckets / 64> occupied_{};
  Time wheel_base_ = 0.0;
  int cursor_ = 0;
};

/// A repeating task: fires every `period` seconds until stop() or until the
/// callback returns false. Models module control loops (power sampling every
/// 2 s, FPP's 90 s power-capping interval, 30 s FFT window updates).
///
/// Re-arm contract: firing times are absolute multiples of the period from
/// the first firing (t_first, t_first + period, t_first + 2*period, ...) —
/// the task re-arms at `t_fire + period`, not `now() + period`, so a
/// callback that consumes simulated time (e.g. by pumping a nested
/// run_until) does not skew subsequent periods. If a callback runs past the
/// next deadline, the next firing is clamped to now() (fires as soon as
/// possible; missed periods are not replayed). Re-arming reuses the event's
/// pool slot and stored callback — zero heap allocations per firing.
class PeriodicTask {
 public:
  /// `fn` returns true to keep running. First firing is at now()+period by
  /// default, or now()+initial_delay when given.
  PeriodicTask(Simulation& sim, Time period, std::function<bool()> fn,
               Time initial_delay = -1.0);
  ~PeriodicTask() { stop(); }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void stop();
  bool running() const noexcept { return running_; }
  Time period() const noexcept { return period_; }

 private:
  void fire();

  Simulation& sim_;
  Time period_;
  std::function<bool()> fn_;
  EventId pending_ = kInvalidEvent;
  Time next_fire_ = 0.0;
  bool running_ = true;
};

}  // namespace fluxpower::sim
