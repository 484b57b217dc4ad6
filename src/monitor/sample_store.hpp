// sample_store.hpp — columnar (structure-of-arrays) power-sample ring.
//
// Every node-agent keeps one of these: a ring of its most recent sensor
// sweeps, answered to window queries by a binary search over the
// timestamp column (`window_range`) and per-sample reads (`get`). Storing
// each domain in its own `double` column instead of an array of
// `hwsim::PowerSample` structs lets the store hold only the columns its
// node's samples fill. It reproduces `util::RingBuffer<PowerSample>`
// semantics exactly — insertion order, overwrite-oldest eviction, and the
// lifetime accounting (`total_pushed`, `evicted`, `inherit_lifetime`) that
// the chaos suite's ledger identity depends on — behind accessors that
// materialize `PowerSample` values on demand.
//
// Storage is two heap blocks per store. The numeric block holds one
// column per scalar (timestamp, node, estimate, memory) plus one per
// socket and per GPU, only as many device columns as the widest sample
// seen so far needs (a Lassen sample fills 2 sockets and 4 GPUs of the
// 4 + 8 a PowerSample can carry); a wider sample re-lays the block out.
// The metadata block holds one 8-byte record per slot: the cpu/gpu sensor
// counts, an index into a tiny interned hostname table (a node-agent's
// hostname never changes, so the table holds one entry) and the presence
// and fault flags as bits of one byte. Both blocks grow as a
// whole by doubling, up to capacity, so an empty store costs nothing and
// neither block outgrows twice the most slots the store has held: per
// slot, 8 bytes per column plus 8 of metadata.
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
  /// value from the columns. Throws std::out_of_range like RingBuffer.
  hwsim::PowerSample get(std::size_t i) const;
  hwsim::PowerSample front() const { return get(0); }
  hwsim::PowerSample back() const { return get(size_ - 1); }

  double timestamp_at(std::size_t i) const;

  /// Logical index range [lo, hi) of samples with
  /// start_s <= timestamp <= end_s, by binary search over the monotone
  /// timestamp column.
  std::pair<std::size_t, std::size_t> window_range(double start_s,
                                                   double end_s) const;

  /// Credit pushes that happened before this store existed (buffer swap on
  /// reconfiguration); see RingBuffer::inherit_lifetime.
  void inherit_lifetime(std::uint64_t pushed_before) noexcept {
    total_pushed_ += pushed_before;
  }

  /// Internal consistency check for the regression suite: the blocks must
  /// describe exactly the retained slots (lengths within the allocation,
  /// counts within the block's device widths, hostname indices valid, known
  /// flag bits only, timestamps monotone). Returns false on any
  /// desynchronization.
  bool check_integrity() const noexcept;

 private:
  /// Scalar columns, in numeric-block order; device columns follow.
  enum Column : std::size_t {
    kTimestamp,
    kNodeW,
    kEstimateW,
    kMemW,
    kScalarColumns
  };
  /// Bits of SlotMeta::flags.
  enum Flag : std::uint8_t {
    kNodePresent = 1,
    kEstimatePresent = 2,
    kMemPresent = 4,
    kGpuIsOam = 8,
    kSensorFault = 16,
  };
  struct SlotMeta {
    std::uint32_t host_idx;
    std::uint8_t cpu_count;
    std::uint8_t gpu_count;
    std::uint8_t flags;
  };

  std::size_t phys(std::size_t i) const noexcept {
    std::size_t p = head_ + i;
    if (p >= capacity_) p -= capacity_;
    return p;
  }
  const double* column(std::size_t c) const noexcept {
    return values_.get() + c * slot_cap_;
  }
  double* column(std::size_t c) noexcept {
    return values_.get() + c * slot_cap_;
  }
  std::size_t cpu_column(std::size_t c) const noexcept {
    return kScalarColumns + c;
  }
  std::size_t gpu_column(std::size_t g) const noexcept {
    return kScalarColumns + cpu_width_ + g;
  }
  /// Reallocate both blocks for `slot_cap` slots per column and the given
  /// device widths, carrying the in-use slots over.
  void relayout(std::size_t slot_cap, std::size_t cpu_width,
                std::size_t gpu_width);
  void assign_slot(std::size_t p, const hwsim::PowerSample& s);
  std::uint32_t intern_hostname(const hwsim::FixedHostname& h);

  std::size_t capacity_;
  std::size_t head_ = 0;  ///< physical index of logical element 0
  std::size_t size_ = 0;  ///< retained samples
  std::size_t len_ = 0;   ///< physical slots in use; wraps start at capacity_
  std::uint64_t total_pushed_ = 0;

  std::size_t slot_cap_ = 0;  ///< slots allocated per column
  std::size_t cpu_width_ = 0;  ///< socket columns in the numeric block
  std::size_t gpu_width_ = 0;  ///< GPU columns in the numeric block
  std::unique_ptr<double[]> values_;  ///< column-major, slot_cap_ per column
  std::unique_ptr<SlotMeta[]> meta_;  ///< slot_cap_ records
  std::vector<hwsim::FixedHostname> host_table_;
};

}  // namespace fluxpower::monitor
