// sample_store.hpp — columnar (structure-of-arrays) power-sample ring.
//
// The monitor's hot read paths — ledger stats over a window, percentile
// sweeps for reports, and the dsp period detector — all consume a single
// scalar per sample (timestamp or one watt domain). Storing samples as an
// array of `hwsim::PowerSample` structs makes every such sweep a strided
// walk with `sizeof(PowerSample)` between consecutive values; storing each
// domain in its own contiguous `double` column makes them unit-stride,
// cache-friendly and vectorizable. This class is that layout change and
// nothing else: it reproduces `util::RingBuffer<PowerSample>` semantics
// exactly — insertion order, overwrite-oldest eviction, and the lifetime
// accounting (`total_pushed`, `evicted`, `inherit_lifetime`) that the
// chaos suite's ledger identity depends on — behind accessors that
// materialize `PowerSample` values on demand.
//
// Storage is two heap blocks per store. The numeric block holds one
// column per scalar (timestamp, best node watts, node, estimate, memory)
// plus one per socket and per GPU, only as many device columns as the
// widest sample seen so far needs (a Lassen sample fills 2 sockets and 4
// GPUs of the 4 + 8 a PowerSample can carry); a wider sample re-lays the
// block out. The metadata block holds one 8-byte record per slot: the
// cpu/gpu sensor counts, an index into a tiny interned hostname table (a
// node-agent's hostname never changes, so the table holds one entry) and
// the presence and fault flags as bits of one byte. Both blocks grow as a
// whole by doubling, up to capacity, so an empty store costs nothing and
// neither block outgrows twice the most slots the store has held: per
// slot, 8 bytes per column plus 8 of metadata.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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
  double best_w_at(std::size_t i) const;

  /// Logical index range [lo, hi) of samples with
  /// start_s <= timestamp <= end_s, by binary search over the monotone
  /// timestamp column.
  std::pair<std::size_t, std::size_t> window_range(double start_s,
                                                   double end_s) const;

  /// A logical range of a column as at most two contiguous spans (the ring
  /// seam splits wrapped ranges). `second` is empty when the range is
  /// contiguous.
  struct Segments {
    std::span<const double> first;
    std::span<const double> second;
    std::size_t size() const noexcept { return first.size() + second.size(); }
  };
  Segments best_w_segments(std::size_t lo, std::size_t hi) const;
  Segments timestamp_segments(std::size_t lo, std::size_t hi) const;

  /// Copy the best-node-watts column for logical [lo, hi) into `out`
  /// (resized to hi-lo): two bulk copies instead of size() strided loads.
  void copy_best_w(std::size_t lo, std::size_t hi,
                   std::vector<double>& out) const;

  /// Credit pushes that happened before this store existed (buffer swap on
  /// reconfiguration); see RingBuffer::inherit_lifetime.
  void inherit_lifetime(std::uint64_t pushed_before) noexcept {
    total_pushed_ += pushed_before;
  }

  /// Internal consistency check for the regression suite: the blocks must
  /// describe exactly the retained slots (lengths within the allocation,
  /// counts within the block's device widths, hostname indices valid, known
  /// flag bits only, best watts derived from the flags). Returns false on
  /// any desynchronization.
  bool check_integrity() const noexcept;

 private:
  /// Scalar columns, in numeric-block order; device columns follow.
  enum Column : std::size_t {
    kTimestamp,
    kBestW,  ///< best_node_w(), precomputed at push
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
