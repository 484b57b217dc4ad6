// histogram.hpp — fixed-bin histograms for power distributions.
//
// Power telemetry is usually summarized by mean/max, but capping questions
// ("how often is this node above 1200 W?") are distribution questions.
// A Histogram bins samples over a fixed range, tracks out-of-range counts
// explicitly, and renders a terminal bar chart for bench output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fluxpower::util {

class Histogram {
 public:
  /// Bins of equal width covering [lo, hi); values below lo / at-or-above
  /// hi are counted in underflow/overflow.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double value);

  std::size_t bins() const noexcept { return counts_.size(); }
  std::uint64_t count(std::size_t bin) const;
  std::uint64_t underflow() const noexcept { return underflow_; }
  std::uint64_t overflow() const noexcept { return overflow_; }
  std::uint64_t total() const noexcept { return total_; }

  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;

  /// Fraction of all samples (including out-of-range) at or above `value`.
  double fraction_at_or_above(double value) const;

  /// Terminal rendering: one line per bin, bar scaled to `width` chars.
  std::string render(int width = 50) const;

 private:
  double lo_, hi_, bin_width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace fluxpower::util
