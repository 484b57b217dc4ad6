#include "monitor/sample_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace fluxpower::monitor {

ColumnarSampleStore::ColumnarSampleStore(std::size_t capacity)
    : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("ColumnarSampleStore capacity must be positive");
  }
}

std::uint32_t ColumnarSampleStore::intern_hostname(
    const hwsim::FixedHostname& h) {
  // A node-agent's hostname never changes, so the table is one entry deep;
  // linear search wins.
  for (std::size_t i = 0; i < host_table_.size(); ++i) {
    if (host_table_[i] == h) return static_cast<std::uint32_t>(i);
  }
  host_table_.push_back(h);
  return static_cast<std::uint32_t>(host_table_.size() - 1);
}

void ColumnarSampleStore::relayout(std::size_t slot_cap,
                                   std::size_t cpu_width,
                                   std::size_t gpu_width) {
  const std::size_t columns = kScalarColumns + cpu_width + gpu_width;
  auto values = std::make_unique_for_overwrite<double[]>(columns * slot_cap);
  // Only the in-use prefix of each column moves. Scalar and socket columns
  // keep their index; GPU columns shift past any added socket columns. A
  // column the widening adds is written before it is read, since every
  // slot it covers has a count below it.
  const auto carry = [&](std::size_t from, std::size_t to) {
    if (len_ > 0) {
      std::memcpy(values.get() + to * slot_cap, column(from),
                  len_ * sizeof(double));
    }
  };
  for (std::size_t c = 0; c < kScalarColumns + cpu_width_; ++c) carry(c, c);
  for (std::size_t g = 0; g < gpu_width_; ++g) {
    carry(gpu_column(g), kScalarColumns + cpu_width + g);
  }
  if (slot_cap != slot_cap_) {
    auto meta = std::make_unique_for_overwrite<SlotMeta[]>(slot_cap);
    std::copy_n(meta_.get(), len_, meta.get());
    meta_ = std::move(meta);
  }
  values_ = std::move(values);
  slot_cap_ = slot_cap;
  cpu_width_ = cpu_width;
  gpu_width_ = gpu_width;
}

void ColumnarSampleStore::assign_slot(std::size_t p,
                                      const hwsim::PowerSample& s) {
  column(kTimestamp)[p] = s.timestamp_s;
  column(kNodeW)[p] = s.node_w.watts;
  column(kEstimateW)[p] = s.node_estimate_w.watts;
  column(kMemW)[p] = s.mem_w.watts;
  for (std::size_t c = 0; c < s.cpu_w.size(); ++c) {
    column(cpu_column(c))[p] = s.cpu_w[c];
  }
  for (std::size_t g = 0; g < s.gpu_w.size(); ++g) {
    column(gpu_column(g))[p] = s.gpu_w[g];
  }
  SlotMeta& m = meta_[p];
  m.host_idx = intern_hostname(s.hostname);
  m.cpu_count = static_cast<std::uint8_t>(s.cpu_w.size());
  m.gpu_count = static_cast<std::uint8_t>(s.gpu_w.size());
  m.flags = static_cast<std::uint8_t>(
      (s.node_w.has_value() ? kNodePresent : 0) |
      (s.node_estimate_w.has_value() ? kEstimatePresent : 0) |
      (s.mem_w.has_value() ? kMemPresent : 0) |
      (s.gpu_is_oam ? kGpuIsOam : 0) | (s.sensor_fault ? kSensorFault : 0));
}

void ColumnarSampleStore::push(const hwsim::PowerSample& s) {
  // A slot past the in-use prefix is appended; the ring wraps only once
  // the prefix reaches capacity, so the blocks never hold a gap.
  const std::size_t p = size_ == capacity_ ? head_ : phys(size_);
  const bool append = p == len_;
  const std::size_t slot_cap =
      append && len_ == slot_cap_
          ? std::min(capacity_, std::max<std::size_t>(1, 2 * slot_cap_))
          : slot_cap_;
  if (slot_cap != slot_cap_ || s.cpu_w.size() > cpu_width_ ||
      s.gpu_w.size() > gpu_width_) {
    relayout(slot_cap, std::max(cpu_width_, s.cpu_w.size()),
             std::max(gpu_width_, s.gpu_w.size()));
  }
  assign_slot(p, s);
  if (append) ++len_;
  if (size_ == capacity_) {
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  } else {
    ++size_;
  }
  ++total_pushed_;
}

hwsim::PowerSample ColumnarSampleStore::get(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("ColumnarSampleStore index");
  const std::size_t p = phys(i);
  const SlotMeta& m = meta_[p];
  hwsim::PowerSample s;
  s.timestamp_s = column(kTimestamp)[p];
  s.hostname = host_table_[m.host_idx];
  if (m.flags & kNodePresent) s.node_w = column(kNodeW)[p];
  if (m.flags & kEstimatePresent) s.node_estimate_w = column(kEstimateW)[p];
  for (std::size_t c = 0; c < m.cpu_count; ++c) {
    s.cpu_w.push_back(column(cpu_column(c))[p]);
  }
  if (m.flags & kMemPresent) s.mem_w = column(kMemW)[p];
  for (std::size_t g = 0; g < m.gpu_count; ++g) {
    s.gpu_w.push_back(column(gpu_column(g))[p]);
  }
  s.gpu_is_oam = (m.flags & kGpuIsOam) != 0;
  s.sensor_fault = (m.flags & kSensorFault) != 0;
  return s;
}

double ColumnarSampleStore::timestamp_at(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("ColumnarSampleStore index");
  return column(kTimestamp)[phys(i)];
}

std::pair<std::size_t, std::size_t> ColumnarSampleStore::window_range(
    double start_s, double end_s) const {
  // Timestamps are monotone non-decreasing in logical order, so the window
  // is a contiguous logical range found by two binary searches — O(log n)
  // against the old layout's full linear scan.
  const double* ts = column(kTimestamp);
  std::size_t a = 0, b = size_;
  while (a < b) {
    const std::size_t mid = a + (b - a) / 2;
    if (ts[phys(mid)] < start_s) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  const std::size_t lo = a;
  b = size_;
  while (a < b) {
    const std::size_t mid = a + (b - a) / 2;
    if (ts[phys(mid)] <= end_s) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return {lo, a};
}

bool ColumnarSampleStore::check_integrity() const noexcept {
  if (slot_cap_ > capacity_ || len_ > slot_cap_ || size_ > len_) return false;
  if ((values_ == nullptr) != (slot_cap_ == 0) ||
      (meta_ == nullptr) != (slot_cap_ == 0)) {
    return false;
  }
  if (cpu_width_ > hwsim::kMaxSockets || gpu_width_ > hwsim::kMaxGpuSensors) {
    return false;
  }
  // Until the in-use prefix reaches capacity the ring cannot wrap, so the
  // retained run must end inside the prefix.
  if (size_ > 0 && head_ >= len_) return false;
  if (len_ < capacity_ && head_ + size_ > len_) return false;
  constexpr std::uint8_t kAllFlags =
      kNodePresent | kEstimatePresent | kMemPresent | kGpuIsOam | kSensorFault;
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t p = phys(i);
    const SlotMeta& m = meta_[p];
    if (m.cpu_count > cpu_width_ || m.gpu_count > gpu_width_) return false;
    if (m.host_idx >= host_table_.size()) return false;
    if ((m.flags & ~kAllFlags) != 0) return false;
    if (i > 0 && column(kTimestamp)[phys(i - 1)] > column(kTimestamp)[p]) {
      return false;
    }
  }
  return true;
}

}  // namespace fluxpower::monitor
