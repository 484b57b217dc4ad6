#include "sim/simulation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace fluxpower::sim {

Simulation::Simulation() : buckets_(kNumBuckets) {}

Simulation::~Simulation() = default;

void Simulation::check_time(Time t) const {
  if (t < now_) {
    throw std::invalid_argument("Simulation::schedule_at: time in the past");
  }
  if (std::isnan(t)) {
    throw std::invalid_argument("Simulation::schedule_at: NaN time");
  }
}

std::uint32_t Simulation::acquire_slot() {
  if (free_head_ == kNoFreeSlot) {
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSlots);
    chunks_.push_back(std::make_unique<EventSlot[]>(kChunkSlots));
    // Thread the new chunk onto the free list, last slot first, so slots
    // are handed out in ascending index order.
    for (std::uint32_t i = kChunkSlots; i-- > 0;) {
      EventSlot& s = chunks_.back()[i];
      s.next_free = free_head_;
      free_head_ = base + i;
    }
  }
  const std::uint32_t idx = free_head_;
  free_head_ = slot(idx).next_free;
  return idx;
}

void Simulation::free_slot(std::uint32_t idx) noexcept {
  EventSlot& s = slot(idx);
  ++s.generation;  // any id minted for this occupancy is now stale
  s.next_free = free_head_;
  free_head_ = idx;
}

void Simulation::release_slot(std::uint32_t idx) noexcept {
  slot(idx).callback.reset();
  free_slot(idx);
}

EventId Simulation::enqueue(Time t, std::uint32_t idx) {
  EventSlot& s = slot(idx);
  s.live = true;
  ++live_;
  push_entry(Entry{t, next_seq_++, idx, s.generation});
  return make_id(idx, s.generation);
}

void Simulation::push_entry(const Entry& e) {
  // Everything earlier than the cursor bucket's end competes with the
  // current front, so it must be heap-ordered now (the cursor bucket was
  // already drained into the ready run). This also covers times before
  // wheel_base_ (possible right after a rebase jumped ahead of now()).
  if (e.time < bucket_end(cursor_)) {
    push_overflow(e);
    return;
  }
  const double rel = (e.time - wheel_base_) / kBucketWidth;
  if (!(rel < static_cast<double>(kNumBuckets))) {  // beyond horizon (or inf)
    far_.push(e);
    return;
  }
  int b = static_cast<int>(rel);
  // Guard against FP rounding at bucket boundaries: b must satisfy
  // wheel_base_ + b*width <= e.time < wheel_base_ + (b+1)*width.
  while (b > 0 && e.time < wheel_base_ + b * kBucketWidth) --b;
  while (b + 1 < kNumBuckets && e.time >= bucket_end(b)) ++b;
  if (b <= cursor_) {
    push_overflow(e);
    return;
  }
  std::vector<Entry>& bucket = buckets_[static_cast<std::size_t>(b)];
  if (bucket.size() == bucket.capacity()) grow_from_free_runs(bucket);
  bucket.push_back(e);
  occupied_[static_cast<std::size_t>(b) / 64] |= std::uint64_t{1} << (b % 64);
}

void Simulation::grow_from_free_runs(std::vector<Entry>& bucket) {
  // Best fit: move into the smallest recycled vector larger than the
  // bucket's own, which goes back on the list. A bucket holding one
  // periodic re-arm then takes a small vector and leaves the large ones to
  // the bursts that need them; taking any vector would let a burst find
  // only small ones and grow another, until every vector was burst-sized.
  // The lowest non-empty class above the bucket's is that vector (`own` is
  // the bucket's class + 1, 0 while it has no storage).
  const int own = static_cast<int>(std::bit_width(bucket.capacity()));
  const std::uint64_t above =
      own < 64 ? free_classes_ & (~std::uint64_t{0} << own) : 0;
  if (above == 0) return;  // push_back grows the bucket
  const int k = std::countr_zero(above);
  auto& list = free_runs_[static_cast<std::size_t>(k)];
  std::vector<Entry> run = std::move(list.back());
  list.pop_back();
  if (list.empty()) free_classes_ &= ~(std::uint64_t{1} << k);
  run.assign(bucket.begin(), bucket.end());  // fits: no allocation
  run.swap(bucket);
  run.clear();
  if (run.capacity() > 0) push_free_run(std::move(run));
}

void Simulation::push_free_run(std::vector<Entry>&& run) {
  const int k = static_cast<int>(std::bit_width(run.capacity())) - 1;
  free_runs_[static_cast<std::size_t>(k)].push_back(std::move(run));
  free_classes_ |= std::uint64_t{1} << k;
}

int Simulation::next_occupied_bucket(int from) const noexcept {
  if (from >= kNumBuckets) return -1;
  std::size_t word = static_cast<std::size_t>(from) / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (from % 64));
  for (;;) {
    if (bits != 0) {
      return static_cast<int>(word * 64) + std::countr_zero(bits);
    }
    if (++word >= occupied_.size()) return -1;
    bits = occupied_[word];
  }
}

void Simulation::drain_bucket(int b) {
  // Only reached once the previous ready run is fully consumed, so the
  // bucket's storage and the ready run's can trade places: no copy. The
  // spent run's storage then leaves the bucket for the free list, where
  // the next bucket to receive an entry takes it (push_entry). Left in the
  // bucket, it would sit unread until the wheel wraps 1024 s later while
  // the next sweep grew a fresh vector; recycled, periodic re-arms stop
  // allocating after their first few periods.
  std::vector<Entry>& bucket = buckets_[static_cast<std::size_t>(b)];
  ready_.clear();
  ready_pos_ = 0;
  ready_.swap(bucket);
  if (bucket.capacity() > 0) push_free_run(std::exchange(bucket, {}));
  // Tombstones sort fine by their recorded (time, seq) and the consume
  // loop skips them anyway, so no compaction pass (which would cost one
  // slot probe per entry). Synchronized periodic sweeps re-arm in firing
  // order, which is already sorted — the common case is one linear scan.
  if (!std::is_sorted(ready_.begin(), ready_.end(), &entry_less)) {
    std::sort(ready_.begin(), ready_.end(), &entry_less);
  }
  occupied_[static_cast<std::size_t>(b) / 64] &=
      ~(std::uint64_t{1} << (b % 64));
}

void Simulation::rebase(Time t) {
  const double base = std::floor(t / kBucketWidth) * kBucketWidth;
  if (!std::isfinite(base)) {
    // Degenerate epoch (events at +inf): order the far heap directly.
    push_overflow(far_.top());
    far_.pop();
    return;
  }
  wheel_base_ = base;
  cursor_ = 0;
  ++rebases_;
  while (!far_.empty()) {
    const Entry& top = far_.top();
    if (!entry_live(top)) {
      far_.pop();
      continue;
    }
    if (top.time >= wheel_base_ + kNumBuckets * kBucketWidth) break;
    const Entry moved = top;
    far_.pop();
    push_entry(moved);
  }
}

void Simulation::push_overflow(const Entry& e) {
  overflow_.push_back(e);
  std::push_heap(overflow_.begin(), overflow_.end(), &entry_greater);
}

void Simulation::pop_overflow() {
  std::pop_heap(overflow_.begin(), overflow_.end(), &entry_greater);
  overflow_.pop_back();
}

const Simulation::Entry* Simulation::peek_next() {
  for (;;) {
    while (ready_pos_ < ready_.size() && !entry_live(ready_[ready_pos_])) {
      ++ready_pos_;
    }
    if (ready_pos_ < ready_.size()) {
      const Entry& r = ready_[ready_pos_];
      while (!overflow_.empty() && !entry_live(overflow_.front())) {
        pop_overflow();
      }
      if (!overflow_.empty() && entry_less(overflow_.front(), r)) {
        return &overflow_.front();
      }
      return &r;
    }
    if (!overflow_.empty()) {
      // The run is spent: steal the overflow heap's backing vector as the
      // next run. A fan-out burst (N deliveries pushed in ascending time)
      // leaves the heap array exactly in insertion order, so the sort
      // usually collapses to the is_sorted scan — one linear pass instead
      // of N log N heap pops.
      ready_.clear();
      ready_pos_ = 0;
      ready_.swap(overflow_);
      if (!std::is_sorted(ready_.begin(), ready_.end(), &entry_less)) {
        std::sort(ready_.begin(), ready_.end(), &entry_less);
      }
      continue;
    }
    const int b = next_occupied_bucket(cursor_ + 1);
    if (b >= 0) {
      cursor_ = b;
      drain_bucket(b);
      continue;
    }
    while (!far_.empty() && !entry_live(far_.top())) far_.pop();
    if (far_.empty()) return nullptr;
    rebase(far_.top().time);
  }
}

void Simulation::pop_front(const Entry* top) {
  if (ready_pos_ < ready_.size() && top == ready_.data() + ready_pos_) {
    ++ready_pos_;
#if defined(__GNUC__)
    // The next run entry's slot will be probed (and written) right after
    // the current callback returns; issuing the fetch now hides its
    // latency behind the callback's own work. At 8k nodes the slot pool
    // is far larger than L2, so this is a guaranteed miss otherwise.
    if (ready_pos_ < ready_.size()) {
      __builtin_prefetch(&slot(ready_[ready_pos_].slot), 1, 1);
    }
#endif
  } else {
    pop_overflow();
  }
}

void Simulation::fire(const Entry& e) {
  EventSlot& s = slot(e.slot);
  now_ = e.time;
  ++executed_;
  --live_;
  s.live = false;
  s.on_stack = true;
  // Release on scope exit even if the callback throws; a re-armed slot
  // (live again) is kept, everything else is destroyed and recycled.
  struct FireGuard {
    Simulation* sim;
    std::uint32_t idx;
    ~FireGuard() {
      EventSlot& fired = sim->slot(idx);
      fired.on_stack = false;
      if (!fired.live) sim->release_slot(idx);
    }
  } guard{this, e.slot};
  s.callback.invoke();
}

bool Simulation::cancel(EventId id) {
  const std::uint32_t high = static_cast<std::uint32_t>(id >> 32);
  if (high == 0) return false;
  const std::uint32_t idx = high - 1;
  if (idx >= chunks_.size() * kChunkSlots) return false;
  EventSlot& s = slot(idx);
  if (!s.live || s.generation != static_cast<std::uint32_t>(id)) return false;
  s.live = false;
  --live_;
  if (s.on_stack) {
    // Cancelled from inside its own (re-armed) callback: the callable is
    // executing and cannot be destroyed yet; the fire guard recycles it.
    ++s.generation;
  } else {
    release_slot(idx);
  }
  return true;
}

EventId Simulation::rearm_fired(EventId fired, Time t) {
  const std::uint32_t high = static_cast<std::uint32_t>(fired >> 32);
  if (high == 0) {
    throw std::logic_error("Simulation::rearm_fired: invalid event id");
  }
  const std::uint32_t idx = high - 1;
  if (idx >= chunks_.size() * kChunkSlots) {
    throw std::logic_error("Simulation::rearm_fired: invalid event id");
  }
  EventSlot& s = slot(idx);
  if (!s.on_stack || s.live ||
      s.generation != static_cast<std::uint32_t>(fired)) {
    throw std::logic_error(
        "Simulation::rearm_fired: not inside this event's callback");
  }
  check_time(t);
  ++s.generation;
  return enqueue(t, idx);
}

bool Simulation::step() {
  const Entry* top = peek_next();
  if (top == nullptr) return false;
  const Entry e = *top;
  pop_front(top);
  fire(e);
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(Time t) {
  for (;;) {
    // Skip over cancelled entries without advancing time.
    const Entry* top = peek_next();
    if (top == nullptr || top->time > t) break;
    const Entry e = *top;
    pop_front(top);
    fire(e);
  }
  if (now_ < t) now_ = t;
}

void Simulation::run_before(Time end) {
  for (;;) {
    const Entry* top = peek_next();
    if (top == nullptr || top->time >= end) break;
    const Entry e = *top;
    pop_front(top);
    fire(e);
  }
}

Time Simulation::next_event_time() {
  const Entry* top = peek_next();
  return top == nullptr ? std::numeric_limits<Time>::infinity() : top->time;
}

PeriodicTask::PeriodicTask(Simulation& sim, Time period,
                           std::function<bool()> fn, Time initial_delay)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  if (!(period > 0.0) || !std::isfinite(period)) {
    throw std::invalid_argument(
        "PeriodicTask: period must be positive and finite");
  }
  next_fire_ = sim_.now() + (initial_delay >= 0.0 ? initial_delay : period_);
  pending_ = sim_.schedule_at(next_fire_, [this] { fire(); });
}

void PeriodicTask::fire() {
  const EventId fired = pending_;
  pending_ = kInvalidEvent;
  if (!running_) return;
  if (fn_()) {
    next_fire_ += period_;  // absolute re-arm: long callbacks don't drift
    if (next_fire_ < sim_.now()) next_fire_ = sim_.now();
    pending_ = sim_.rearm_fired(fired, next_fire_);
  } else {
    running_ = false;
  }
}

void PeriodicTask::stop() {
  running_ = false;
  if (pending_ != kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = kInvalidEvent;
  }
}

}  // namespace fluxpower::sim
