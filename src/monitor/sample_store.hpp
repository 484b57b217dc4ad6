// sample_store.hpp — power-sample rings as columns of slot-major tables.
//
// Every node-agent keeps a ring of its most recent sensor sweeps, answered
// to window queries by a binary search over the timestamps (`window_range`)
// and per-sample reads (`get`). `ColumnarSampleStore` reproduces
// `util::RingBuffer<PowerSample>` semantics exactly — insertion order,
// overwrite-oldest eviction, and the lifetime accounting (`total_pushed`,
// `evicted`, `inherit_lifetime`) that the chaos suite's ledger identity
// depends on — behind accessors that materialize `PowerSample` values on
// demand.
//
// A store is a small header (the ring's cursors and its one hostname) over
// one column of a `SampleTable`. A row is one slot of one column, each field
// one 8-byte word:
//
//   [SlotMeta | timestamp, node, estimate, mem | sockets... | GPUs...]
//
// The table is slot-major: slot s of column 0, slot s of column 1, ... lie
// one after another, so the node-agents of one sweep batch, which take
// columns in join order and push into the same slot at the same instant,
// write one contiguous run of rows per sweep. A store outside any batch
// keeps a one-column table of its own, whose rows lie one after another.
// Pages of slots are allocated as a column first enters them (page k holds
// slots [2^k - 1, 2^(k+1) - 1)), so a table never copies a row to grow and
// never holds more than twice the slots its fullest column has used.
//
// A row carries only as many socket and GPU words as its table's widths (a
// Lassen sample fills 2 sockets and 4 GPUs of the 4 + 8 a PowerSample can
// carry, so its row is 11 words, 88 bytes). A wider sample moves its store,
// rows and all, to a one-column table of its own at the wider widths; the
// other columns stay where they are. SlotMeta holds the cpu/gpu sensor
// counts, the hostname index (0 is the store's own hostname, kept in the
// header; a node-agent's never changes) and the presence and fault flags as
// bits of one byte.
//
// The class keeps the name it had as a column store: perfbench's traced
// binary wraps `push` by its mangled name.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "hwsim/types.hpp"
#include "util/prefetch.hpp"

namespace fluxpower::monitor {

/// Slot-major rows shared by the stores of one sweep batch, one column per
/// store.
class SampleTable {
 public:
  /// `columns` columns of `slots` slots each (both > 0), rows of
  /// kScalarWords + cpu_width + gpu_width words.
  SampleTable(std::size_t columns, std::size_t slots, std::size_t cpu_width,
              std::size_t gpu_width);
  SampleTable(const SampleTable&) = delete;
  SampleTable& operator=(const SampleTable&) = delete;

  /// Words of a row ahead of the socket words: SlotMeta, timestamp, node,
  /// estimate and memory.
  static constexpr std::size_t kScalarWords = 5;

  std::size_t columns() const noexcept { return columns_; }
  std::size_t slots() const noexcept { return slots_; }
  std::size_t cpu_width() const noexcept { return cpu_width_; }
  std::size_t gpu_width() const noexcept { return gpu_width_; }
  std::size_t row_words() const noexcept { return row_words_; }
  std::size_t free_columns() const noexcept { return columns_ - used_; }

  /// Claim column `preferred` when it is free, else the lowest free one;
  /// columns() when every column is taken.
  std::size_t take_column(std::size_t preferred);
  /// Give a column back. The last one out frees the pages.
  void release_column(std::size_t column) noexcept;

  /// Row (slot, column), allocating the slot's page on first use.
  double* row(std::size_t slot, std::size_t column) {
    const std::size_t k = page_of(slot);
    double* page = pages_[k].get();
    if (page == nullptr) [[unlikely]] page = allocate_page(k);
    return page + ((slot - first_slot(k)) * columns_ + column) * row_words_;
  }
  /// Row (slot, column) of an allocated page; null while it has none.
  const double* find_row(std::size_t slot, std::size_t column) const noexcept {
    const std::size_t k = page_of(slot);
    const double* page = pages_[k].get();
    if (page == nullptr) return nullptr;
    return page + ((slot - first_slot(k)) * columns_ + column) * row_words_;
  }

  /// Slots of the allocated pages: each column holds that many rows.
  std::size_t allocated_slots() const noexcept;
  /// Heap of the table beside its rows: the object, its page pointers and
  /// its column flags.
  std::size_t bookkeeping_bytes() const noexcept;

 private:
  static std::size_t page_of(std::size_t slot) noexcept {
    return static_cast<std::size_t>(std::bit_width(slot + 1)) - 1;
  }
  static std::size_t first_slot(std::size_t page) noexcept {
    return (std::size_t{1} << page) - 1;
  }
  std::size_t page_slots(std::size_t page) const noexcept;
  double* allocate_page(std::size_t page);

  std::size_t columns_;
  std::size_t slots_;
  std::size_t cpu_width_;
  std::size_t gpu_width_;
  std::size_t row_words_;
  std::size_t used_ = 0;  ///< columns taken
  std::vector<std::unique_ptr<double[]>> pages_;
  std::vector<bool> taken_;
};

class ColumnarSampleStore {
 public:
  /// Capacity must be > 0; a monitor with no sample storage is a config
  /// error (same contract as util::RingBuffer).
  explicit ColumnarSampleStore(std::size_t capacity);
  ~ColumnarSampleStore();
  ColumnarSampleStore(ColumnarSampleStore&& other) noexcept;
  ColumnarSampleStore(const ColumnarSampleStore&) = delete;
  ColumnarSampleStore& operator=(const ColumnarSampleStore&) = delete;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool full() const noexcept { return size_ == capacity_; }

  /// Total number of push() calls over the store's lifetime (plus any
  /// inherited ones); evicted() is everything pushed that is no longer
  /// retained.
  std::uint64_t total_pushed() const noexcept { return total_pushed_; }
  std::uint64_t evicted() const noexcept { return total_pushed_ - size_; }

  /// Before its first push, take a column of `table`: `preferred` when it is
  /// free, else the lowest free one. A store that already has a table, a
  /// table whose slots differ from this store's capacity and a table with
  /// no free column are refused (false); the store then gets a one-column
  /// table of its own at its first push.
  bool attach(std::shared_ptr<SampleTable> table, std::size_t preferred);
  /// The table holding the rows (null before the first push or attach) and
  /// this store's column in it.
  const SampleTable* table() const noexcept { return table_.get(); }
  std::size_t column() const noexcept { return column_; }

  /// Append one sample, overwriting the oldest when full. Timestamps must
  /// be monotone non-decreasing across pushes (the simulator's sample
  /// clock only moves forward) — the window search relies on it.
  void push(const hwsim::PowerSample& s);
  /// Prefetch the row the next push() writes (nothing while its page has
  /// yet to be allocated).
  void prefetch_push() const noexcept {
    if (table_ == nullptr) return;
    const double* r = table_->find_row(next_slot(), column_);
    if (r == nullptr) return;
    util::prefetch_write(r);
    util::prefetch_write(r + table_->row_words() - 1);
  }

  /// Element i in insertion order (0 = oldest retained), materialized by
  /// value from its row. Throws std::out_of_range like RingBuffer.
  hwsim::PowerSample get(std::size_t i) const;
  hwsim::PowerSample front() const { return get(0); }
  hwsim::PowerSample back() const { return get(size_ - 1); }
  /// Append elements [lo, hi) to `out`, materialized in place. In a shared
  /// table a column's rows lie a table slot apart, each a cache miss, so
  /// the read fetches a few rows ahead. Throws std::out_of_range unless
  /// lo <= hi <= size().
  void append_range(std::size_t lo, std::size_t hi,
                    std::vector<hwsim::PowerSample>& out) const;

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

  /// Bytes of one row at the table's device widths (0 before the first
  /// push or attach).
  std::size_t row_bytes() const noexcept {
    return table_ != nullptr ? table_->row_words() * sizeof(double) : 0;
  }
  /// Heap that holds this store: its column's rows in every allocated page,
  /// its share of the table's bookkeeping and any further hostnames (the
  /// store object itself is not counted).
  std::size_t heap_bytes() const noexcept;

  /// Internal consistency check for the regression suite: the column must
  /// hold exactly the retained slots (pages allocated, counts within the
  /// table's device widths, hostname indices valid, known flag bits only,
  /// timestamps monotone). Returns false on any desynchronization.
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
  };
  static_assert(kMemW + 1 == SampleTable::kScalarWords);
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

  /// The ring only wraps once full, so the retained slots are always the
  /// physical slots [0, size_).
  std::size_t phys(std::size_t i) const noexcept {
    std::size_t p = head_ + i;
    if (p >= capacity_) p -= capacity_;
    return p;
  }
  std::size_t next_slot() const noexcept {
    return size_ == capacity_ ? head_ : size_;
  }
  const double* row(std::size_t p) const noexcept {
    return table_->find_row(p, column_);
  }
  static SlotMeta meta_of(const double* r) noexcept;
  /// Fill a default-constructed sample from row `r`.
  void materialize(const double* r, hwsim::PowerSample& s) const;
  /// Move the retained rows to a one-column table of this store's own at
  /// the given device widths.
  void move_to_own_table(std::size_t cpu_width, std::size_t gpu_width);
  void release() noexcept;
  void assign_row(double* r, const hwsim::PowerSample& s);
  std::uint32_t intern_hostname(const hwsim::FixedHostname& h);
  const hwsim::FixedHostname& hostname_at(std::uint32_t idx) const noexcept {
    return idx == 0 ? host_ : other_hosts_[idx - 1];
  }

  // The fields a push reads come first.
  std::shared_ptr<SampleTable> table_;
  std::size_t column_ = 0;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< physical index of logical element 0
  std::size_t size_ = 0;  ///< retained samples
  std::uint64_t total_pushed_ = 0;
  hwsim::FixedHostname host_;  ///< hostname index 0 once host_set_
  bool host_set_ = false;
  std::vector<hwsim::FixedHostname> other_hosts_;  ///< indices 1, 2, ...
};

}  // namespace fluxpower::monitor
