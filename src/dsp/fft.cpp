#include "dsp/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace fluxpower::dsp {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_radix2(std::span<Complex> data) {
  const std::size_t n = data.size();
  if (!is_power_of_two(n)) {
    throw std::invalid_argument("fft_radix2: size must be a power of two");
  }
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // Butterfly passes.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -kTwoPi / static_cast<double>(len);
    const Complex wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex u = data[i + k];
        const Complex v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

std::vector<double> power_spectrum(std::span<const double> input) {
  std::vector<Complex> spectrum(input.begin(), input.end());
  fft_radix2(spectrum);
  const std::size_t half = input.size() / 2;
  std::vector<double> out(half + 1);
  for (std::size_t k = 0; k <= half; ++k) out[k] = std::norm(spectrum[k]);
  return out;
}

}  // namespace fluxpower::dsp
