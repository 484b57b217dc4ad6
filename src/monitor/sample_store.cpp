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

ColumnarSampleStore::SlotMeta ColumnarSampleStore::meta_of(
    const double* r) noexcept {
  SlotMeta m{};
  std::memcpy(&m, r + kMeta, sizeof m);
  return m;
}

void ColumnarSampleStore::relayout(std::size_t slot_cap,
                                   std::size_t cpu_width,
                                   std::size_t gpu_width) {
  const std::size_t words = kScalarWords + cpu_width + gpu_width;
  auto rows = std::make_unique_for_overwrite<double[]>(slot_cap * words);
  // Only the in-use rows move, each re-strided: the meta, scalar and
  // socket words keep their offsets and the GPU words shift past any added
  // socket words. A word the widening adds is written before it is read,
  // since every slot it covers has a count below it.
  const std::size_t lead = kScalarWords + cpu_width_;
  for (std::size_t p = 0; p < len_; ++p) {
    const double* from = row(p);
    double* to = rows.get() + p * words;
    std::memcpy(to, from, lead * sizeof(double));
    std::memcpy(to + kScalarWords + cpu_width, from + lead,
                gpu_width_ * sizeof(double));
  }
  rows_ = std::move(rows);
  slot_cap_ = slot_cap;
  cpu_width_ = cpu_width;
  gpu_width_ = gpu_width;
}

void ColumnarSampleStore::assign_slot(std::size_t p,
                                      const hwsim::PowerSample& s) {
  double* r = row(p);
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
  std::copy(s.cpu_w.begin(), s.cpu_w.end(), r + kScalarWords);
  std::copy(s.gpu_w.begin(), s.gpu_w.end(), r + kScalarWords + cpu_width_);
}

void ColumnarSampleStore::push(const hwsim::PowerSample& s) {
  // A slot past the in-use prefix is appended; the ring wraps only once
  // the prefix reaches capacity, so the block never holds a gap.
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
  const double* r = row(phys(i));
  const SlotMeta m = meta_of(r);
  hwsim::PowerSample s;
  s.timestamp_s = r[kTimestamp];
  s.hostname = host_table_[m.host_idx];
  if (m.flags & kNodePresent) s.node_w = r[kNodeW];
  if (m.flags & kEstimatePresent) s.node_estimate_w = r[kEstimateW];
  for (std::size_t c = 0; c < m.cpu_count; ++c) {
    s.cpu_w.push_back(r[kScalarWords + c]);
  }
  if (m.flags & kMemPresent) s.mem_w = r[kMemW];
  for (std::size_t g = 0; g < m.gpu_count; ++g) {
    s.gpu_w.push_back(r[kScalarWords + cpu_width_ + g]);
  }
  s.gpu_is_oam = (m.flags & kGpuIsOam) != 0;
  s.sensor_fault = (m.flags & kSensorFault) != 0;
  return s;
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

bool ColumnarSampleStore::check_integrity() const noexcept {
  if (slot_cap_ > capacity_ || len_ > slot_cap_ || size_ > len_) return false;
  if ((rows_ == nullptr) != (slot_cap_ == 0)) return false;
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
    const double* r = row(phys(i));
    const SlotMeta m = meta_of(r);
    if (m.cpu_count > cpu_width_ || m.gpu_count > gpu_width_) return false;
    if (m.host_idx >= host_table_.size()) return false;
    if ((m.flags & ~kAllFlags) != 0) return false;
    if (i > 0 && row(phys(i - 1))[kTimestamp] > r[kTimestamp]) return false;
  }
  return true;
}

}  // namespace fluxpower::monitor
