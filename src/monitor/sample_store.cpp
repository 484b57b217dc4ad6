#include "monitor/sample_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace fluxpower::monitor {

SampleTable::SampleTable(std::size_t columns, std::size_t slots,
                         std::size_t cpu_width, std::size_t gpu_width)
    : columns_(columns),
      slots_(slots),
      cpu_width_(cpu_width),
      gpu_width_(gpu_width),
      row_words_(kScalarWords + cpu_width + gpu_width),
      pages_(slots == 0 ? 0 : page_of(slots - 1) + 1),
      taken_(columns, false) {
  if (columns == 0 || slots == 0) {
    throw std::invalid_argument("SampleTable needs columns and slots");
  }
}

std::size_t SampleTable::take_column(std::size_t preferred) {
  if (used_ == columns_) return columns_;
  std::size_t c = preferred;
  if (c >= columns_ || taken_[c]) {
    c = static_cast<std::size_t>(
        std::find(taken_.begin(), taken_.end(), false) - taken_.begin());
  }
  taken_[c] = true;
  ++used_;
  return c;
}

void SampleTable::release_column(std::size_t column) noexcept {
  taken_[column] = false;
  if (--used_ == 0) {
    for (auto& page : pages_) page.reset();
  }
}

std::size_t SampleTable::page_slots(std::size_t page) const noexcept {
  return std::min(first_slot(page + 1), slots_) - first_slot(page);
}

double* SampleTable::allocate_page(std::size_t page) {
  pages_[page] = std::make_unique_for_overwrite<double[]>(page_slots(page) *
                                                          columns_ * row_words_);
  return pages_[page].get();
}

std::size_t SampleTable::allocated_slots() const noexcept {
  std::size_t n = 0;
  for (std::size_t k = 0; k < pages_.size(); ++k) {
    if (pages_[k] != nullptr) n += page_slots(k);
  }
  return n;
}

std::size_t SampleTable::bookkeeping_bytes() const noexcept {
  return sizeof(SampleTable) + pages_.capacity() * sizeof(pages_[0]) +
         (taken_.capacity() + 7) / 8;
}

ColumnarSampleStore::ColumnarSampleStore(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("ColumnarSampleStore capacity must be positive");
  }
}

ColumnarSampleStore::~ColumnarSampleStore() { release(); }

ColumnarSampleStore::ColumnarSampleStore(ColumnarSampleStore&& other) noexcept
    : table_(std::move(other.table_)),
      column_(other.column_),
      capacity_(other.capacity_),
      head_(std::exchange(other.head_, 0)),
      size_(std::exchange(other.size_, 0)),
      total_pushed_(std::exchange(other.total_pushed_, 0)),
      host_(other.host_),
      host_set_(std::exchange(other.host_set_, false)),
      other_hosts_(std::move(other.other_hosts_)) {}

void ColumnarSampleStore::release() noexcept {
  if (table_ != nullptr) {
    table_->release_column(column_);
    table_.reset();
  }
}

bool ColumnarSampleStore::attach(std::shared_ptr<SampleTable> table,
                                 std::size_t preferred) {
  if (table_ != nullptr || table == nullptr || table->slots() != capacity_) {
    return false;
  }
  const std::size_t column = table->take_column(preferred);
  if (column == table->columns()) return false;
  table_ = std::move(table);
  column_ = column;
  return true;
}

std::uint32_t ColumnarSampleStore::intern_hostname(
    const hwsim::FixedHostname& h) {
  // A node-agent's hostname never changes, so index 0 answers every push
  // but the first; other hostnames are a linear search.
  if (host_set_ && h == host_) return 0;
  if (!host_set_) {
    host_ = h;
    host_set_ = true;
    return 0;
  }
  for (std::size_t i = 0; i < other_hosts_.size(); ++i) {
    if (other_hosts_[i] == h) return static_cast<std::uint32_t>(i + 1);
  }
  other_hosts_.push_back(h);
  return static_cast<std::uint32_t>(other_hosts_.size());
}

ColumnarSampleStore::SlotMeta ColumnarSampleStore::meta_of(
    const double* r) noexcept {
  SlotMeta m{};
  std::memcpy(&m, r + kMeta, sizeof m);
  return m;
}

void ColumnarSampleStore::move_to_own_table(std::size_t cpu_width,
                                            std::size_t gpu_width) {
  auto table = std::make_shared<SampleTable>(1, capacity_, cpu_width, gpu_width);
  table->take_column(0);
  if (table_ != nullptr) {
    // Every retained row moves, re-strided: the meta, scalar and socket
    // words keep their offsets and the GPU words shift past any added
    // socket words. A word the widening adds is written before it is read,
    // since every slot it covers has a count below it.
    const std::size_t lead = SampleTable::kScalarWords + table_->cpu_width();
    const std::size_t gpu_at = SampleTable::kScalarWords + cpu_width;
    for (std::size_t p = 0; p < size_; ++p) {
      const double* from = row(p);
      double* to = table->row(p, 0);
      std::memcpy(to, from, lead * sizeof(double));
      std::memcpy(to + gpu_at, from + lead,
                  table_->gpu_width() * sizeof(double));
    }
    release();
  }
  table_ = std::move(table);
  column_ = 0;
}

void ColumnarSampleStore::assign_row(double* r, const hwsim::PowerSample& s) {
  const SlotMeta m{
      .host_idx = intern_hostname(s.hostname),
      .cpu_count = static_cast<std::uint8_t>(s.cpu_w.size()),
      .gpu_count = static_cast<std::uint8_t>(s.gpu_w.size()),
      .flags = static_cast<std::uint8_t>(
          (s.node_w.has_value() ? kNodePresent : 0) |
          (s.node_estimate_w.has_value() ? kEstimatePresent : 0) |
          (s.mem_w.has_value() ? kMemPresent : 0) |
          (s.gpu_is_oam ? kGpuIsOam : 0) |
          (s.sensor_fault ? kSensorFault : 0))};
  std::memcpy(r + kMeta, &m, sizeof m);
  r[kTimestamp] = s.timestamp_s;
  r[kNodeW] = s.node_w.watts;
  r[kEstimateW] = s.node_estimate_w.watts;
  r[kMemW] = s.mem_w.watts;
  std::copy(s.cpu_w.begin(), s.cpu_w.end(), r + SampleTable::kScalarWords);
  std::copy(s.gpu_w.begin(), s.gpu_w.end(),
            r + SampleTable::kScalarWords + table_->cpu_width());
}

void ColumnarSampleStore::push(const hwsim::PowerSample& s) {
  if (table_ == nullptr || s.cpu_w.size() > table_->cpu_width() ||
      s.gpu_w.size() > table_->gpu_width()) [[unlikely]] {
    move_to_own_table(
        std::max(table_ != nullptr ? table_->cpu_width() : 0, s.cpu_w.size()),
        std::max(table_ != nullptr ? table_->gpu_width() : 0, s.gpu_w.size()));
  }
  assign_row(table_->row(next_slot(), column_), s);
  if (size_ == capacity_) {
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  } else {
    ++size_;
  }
  ++total_pushed_;
}

hwsim::PowerSample ColumnarSampleStore::get(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("ColumnarSampleStore index");
  hwsim::PowerSample s;
  materialize(row(phys(i)), s);
  return s;
}

void ColumnarSampleStore::append_range(
    std::size_t lo, std::size_t hi,
    std::vector<hwsim::PowerSample>& out) const {
  if (lo > hi || hi > size_) {
    throw std::out_of_range("ColumnarSampleStore range");
  }
  constexpr std::size_t kAhead = 8;
  const bool strided = hi > lo && table_->columns() > 1;
  out.reserve(out.size() + (hi - lo));
  for (std::size_t i = lo; i < hi; ++i) {
    if (strided && i + kAhead < hi) {
      const double* ahead = row(phys(i + kAhead));
      util::prefetch(ahead);
      util::prefetch(ahead + table_->row_words() - 1);
    }
    materialize(row(phys(i)), out.emplace_back());
  }
}

void ColumnarSampleStore::materialize(const double* r,
                                      hwsim::PowerSample& s) const {
  const SlotMeta m = meta_of(r);
  s.timestamp_s = r[kTimestamp];
  s.hostname = hostname_at(m.host_idx);
  if (m.flags & kNodePresent) s.node_w = r[kNodeW];
  if (m.flags & kEstimatePresent) s.node_estimate_w = r[kEstimateW];
  const double* sockets = r + SampleTable::kScalarWords;
  for (std::size_t c = 0; c < m.cpu_count; ++c) s.cpu_w.push_back(sockets[c]);
  if (m.flags & kMemPresent) s.mem_w = r[kMemW];
  const double* gpus = sockets + table_->cpu_width();
  for (std::size_t g = 0; g < m.gpu_count; ++g) s.gpu_w.push_back(gpus[g]);
  s.gpu_is_oam = (m.flags & kGpuIsOam) != 0;
  s.sensor_fault = (m.flags & kSensorFault) != 0;
}

double ColumnarSampleStore::timestamp_at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("ColumnarSampleStore index");
  return row(phys(i))[kTimestamp];
}

std::pair<std::size_t, std::size_t> ColumnarSampleStore::window_range(
    double start_s, double end_s) const {
  // Timestamps are monotone non-decreasing in logical order, so the window
  // is a contiguous logical range found by two binary searches.
  std::size_t a = 0, b = size_;
  while (a < b) {
    const std::size_t mid = a + (b - a) / 2;
    if (row(phys(mid))[kTimestamp] < start_s) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  const std::size_t lo = a;
  b = size_;
  while (a < b) {
    const std::size_t mid = a + (b - a) / 2;
    if (row(phys(mid))[kTimestamp] <= end_s) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return {lo, a};
}

std::size_t ColumnarSampleStore::heap_bytes() const noexcept {
  const std::size_t hosts =
      other_hosts_.capacity() * sizeof(hwsim::FixedHostname);
  if (table_ == nullptr) return hosts;
  return table_->allocated_slots() * row_bytes() +
         table_->bookkeeping_bytes() / table_->columns() + hosts;
}

bool ColumnarSampleStore::check_integrity() const noexcept {
  if (size_ > capacity_ || head_ >= capacity_) return false;
  // Until the ring is full it cannot wrap.
  if (size_ < capacity_ && head_ != 0) return false;
  if (table_ == nullptr) return size_ == 0 && !host_set_;
  if (table_->slots() != capacity_ || column_ >= table_->columns()) {
    return false;
  }
  if (table_->cpu_width() > hwsim::kMaxSockets ||
      table_->gpu_width() > hwsim::kMaxGpuSensors) {
    return false;
  }
  constexpr std::uint8_t kAllFlags =
      kNodePresent | kEstimatePresent | kMemPresent | kGpuIsOam | kSensorFault;
  for (std::size_t i = 0; i < size_; ++i) {
    const double* r = row(phys(i));
    if (r == nullptr) return false;
    const SlotMeta m = meta_of(r);
    if (m.cpu_count > table_->cpu_width() ||
        m.gpu_count > table_->gpu_width()) {
      return false;
    }
    if (!host_set_ || m.host_idx > other_hosts_.size()) return false;
    if ((m.flags & ~kAllFlags) != 0) return false;
    if (i > 0 && row(phys(i - 1))[kTimestamp] > r[kTimestamp]) return false;
  }
  return true;
}

}  // namespace fluxpower::monitor
