#include "util/histogram.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace fluxpower::util {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), bin_width_((hi - lo) / static_cast<double>(bins)) {
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must exceed lo");
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  counts_.assign(bins, 0);
}

void Histogram::add(double value) {
  ++total_;
  if (value < lo_) {
    ++underflow_;
  } else if (value >= hi_) {
    ++overflow_;
  } else {
    const auto bin = static_cast<std::size_t>((value - lo_) / bin_width_);
    ++counts_[std::min(bin, counts_.size() - 1)];
  }
}

std::uint64_t Histogram::count(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::count");
  return counts_[bin];
}

double Histogram::bin_lo(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("Histogram::bin_lo");
  return lo_ + bin_width_ * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin) + bin_width_; }

double Histogram::fraction_at_or_above(double value) const {
  if (total_ == 0) return 0.0;
  std::uint64_t above = overflow_;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (bin_lo(b) >= value) {
      above += counts_[b];
    } else if (bin_hi(b) > value) {
      // Partial bin: attribute proportionally (uniform-in-bin assumption).
      const double frac = (bin_hi(b) - value) / bin_width_;
      above += static_cast<std::uint64_t>(frac * static_cast<double>(counts_[b]));
    }
  }
  return static_cast<double>(above) / static_cast<double>(total_);
}

std::string Histogram::render(int width) const {
  std::uint64_t peak = 1;
  for (std::uint64_t c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const int bar = static_cast<int>(
        static_cast<double>(counts_[b]) / static_cast<double>(peak) * width);
    std::snprintf(line, sizeof line, "%9.1f-%9.1f | %-6llu ", bin_lo(b),
                  bin_hi(b), static_cast<unsigned long long>(counts_[b]));
    out += line;
    out.append(static_cast<std::size_t>(bar), '#');
    out.push_back('\n');
  }
  if (underflow_ > 0 || overflow_ > 0) {
    std::snprintf(line, sizeof line, "(underflow %llu, overflow %llu)\n",
                  static_cast<unsigned long long>(underflow_),
                  static_cast<unsigned long long>(overflow_));
    out += line;
  }
  return out;
}

}  // namespace fluxpower::util
