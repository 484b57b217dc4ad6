// sample_store.hpp — row-packed power-sample ring.
//
// Every node-agent keeps one of these: a ring of its most recent sensor
// sweeps, answered to window queries by a binary search over the
// timestamps (`window_range`) and per-sample reads (`get`). It reproduces
// `util::RingBuffer<PowerSample>` semantics exactly — insertion order,
// overwrite-oldest eviction, and the lifetime accounting (`total_pushed`,
// `evicted`, `inherit_lifetime`) that the chaos suite's ledger identity
// depends on — behind accessors that materialize `PowerSample` values on
// demand.
//
// Storage is one heap block of rows, one row per slot, each field one
// 8-byte word:
//
//   [SlotMeta | timestamp, node, estimate, mem | sockets... | GPUs...]
//
// A row carries only as many socket and GPU words as the widest sample
// seen so far needs (a Lassen sample fills 2 sockets and 4 GPUs of the
// 4 + 8 a PowerSample can carry, so its row is 11 words, 88 bytes); a
// wider sample re-strides the block. SlotMeta holds the cpu/gpu sensor
// counts, an index into a tiny interned hostname table (a node-agent's
// hostname never changes, so the table holds one entry) and the presence
// and fault flags as bits of one byte. A push writes one row and `get`
// reads one. The block grows as a whole by doubling, up to capacity, so
// an empty store costs nothing and the block never outgrows twice the most
// slots the store has held.
//
// The class keeps the name it had as a column store: perfbench's traced
// binary wraps `push` by its mangled name.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hwsim/types.hpp"

namespace fluxpower::monitor {

class ColumnarSampleStore {
 public:
  /// Capacity must be > 0; a monitor with no sample storage is a config
  /// error (same contract as util::RingBuffer).
  explicit ColumnarSampleStore(std::size_t capacity);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == capacity_; }

  /// Total number of push() calls over the store's lifetime (plus any
  /// inherited ones); evicted() is everything pushed that is no longer
  /// retained.
  std::uint64_t total_pushed() const noexcept { return total_pushed_; }
  std::uint64_t evicted() const noexcept { return total_pushed_ - size_; }

  /// Append one sample, overwriting the oldest when full. Timestamps must
  /// be monotone non-decreasing across pushes (the simulator's sample
  /// clock only moves forward) — the window search relies on it.
  void push(const hwsim::PowerSample& s);

  /// Element i in insertion order (0 = oldest retained), materialized by
  /// value from its row. Throws std::out_of_range like RingBuffer.
  hwsim::PowerSample get(std::size_t i) const;
  hwsim::PowerSample front() const { return get(0); }
  hwsim::PowerSample back() const { return get(size_ - 1); }

  double timestamp_at(std::size_t i) const;

  /// Logical index range [lo, hi) of samples with
  /// start_s <= timestamp <= end_s, by binary search over the monotone
  /// timestamps.
  std::pair<std::size_t, std::size_t> window_range(double start_s,
                                                   double end_s) const;

  /// Credit pushes that happened before this store existed (buffer swap on
  /// reconfiguration); see RingBuffer::inherit_lifetime.
  void inherit_lifetime(std::uint64_t pushed_before) noexcept {
    total_pushed_ += pushed_before;
  }

  /// Bytes of one row at the current device widths.
  std::size_t row_bytes() const noexcept {
    return row_words() * sizeof(double);
  }
  /// Heap the store owns: the row block plus the hostname table (the store
  /// object itself is not counted).
  std::size_t heap_bytes() const noexcept {
    return slot_cap_ * row_bytes() +
           host_table_.capacity() * sizeof(hwsim::FixedHostname);
  }

  /// Internal consistency check for the regression suite: the block must
  /// describe exactly the retained slots (lengths within the allocation,
  /// counts within the row's device widths, hostname indices valid, known
  /// flag bits only, timestamps monotone). Returns false on any
  /// desynchronization.
  bool check_integrity() const noexcept;

 private:
  /// Word offsets within a row; the socket words follow, then the GPU
  /// words.
  enum Word : std::size_t {
    kMeta,
    kTimestamp,
    kNodeW,
    kEstimateW,
    kMemW,
    kScalarWords
  };
  /// Bits of SlotMeta::flags.
  enum Flag : std::uint8_t {
    kNodePresent = 1,
    kEstimatePresent = 2,
    kMemPresent = 4,
    kGpuIsOam = 8,
    kSensorFault = 16,
  };
  /// Stored bytewise in a row's kMeta word.
  struct SlotMeta {
    std::uint32_t host_idx;
    std::uint8_t cpu_count;
    std::uint8_t gpu_count;
    std::uint8_t flags;
  };
  static_assert(sizeof(SlotMeta) <= sizeof(double));

  std::size_t phys(std::size_t i) const noexcept {
    std::size_t p = head_ + i;
    if (p >= capacity_) p -= capacity_;
    return p;
  }
  std::size_t row_words() const noexcept {
    return kScalarWords + cpu_width_ + gpu_width_;
  }
  const double* row(std::size_t p) const noexcept {
    return rows_.get() + p * row_words();
  }
  double* row(std::size_t p) noexcept {
    return rows_.get() + p * row_words();
  }
  static SlotMeta meta_of(const double* r) noexcept;
  /// Reallocate the block for `slot_cap` rows at the given device widths,
  /// carrying the in-use rows over.
  void relayout(std::size_t slot_cap, std::size_t cpu_width,
                std::size_t gpu_width);
  void assign_slot(std::size_t p, const hwsim::PowerSample& s);
  std::uint32_t intern_hostname(const hwsim::FixedHostname& h);

  std::size_t capacity_;
  std::size_t head_ = 0;  ///< physical index of logical element 0
  std::size_t size_ = 0;  ///< retained samples
  std::size_t len_ = 0;   ///< physical slots in use; wraps start at capacity_
  std::uint64_t total_pushed_ = 0;

  std::size_t slot_cap_ = 0;   ///< rows allocated
  std::size_t cpu_width_ = 0;  ///< socket words per row
  std::size_t gpu_width_ = 0;  ///< GPU words per row
  std::unique_ptr<double[]> rows_;  ///< slot_cap_ rows of row_words()
  std::vector<hwsim::FixedHostname> host_table_;
};

}  // namespace fluxpower::monitor
