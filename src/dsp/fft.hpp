// fft.hpp — fast Fourier transform kernel.
//
// FPP (the paper's FFT-based power policy, Algorithm 1) identifies an
// application's phase period from its sampled power signal. The estimator
// zero-pads every window to a power of two (at least 8x the sample count,
// for fine frequency resolution), so one iterative radix-2 Cooley–Tukey
// kernel is the only transform it needs.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace fluxpower::dsp {

using Complex = std::complex<double>;

/// True if n is a power of two (n >= 1).
constexpr bool is_power_of_two(std::size_t n) {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// In-place iterative radix-2 DIT forward FFT. Throws std::invalid_argument
/// unless data.size() is a power of two.
void fft_radix2(std::span<Complex> data);

/// Power spectrum |X_k|^2 for k = 0..N/2 of a real signal. Throws
/// std::invalid_argument unless input.size() is a power of two.
std::vector<double> power_spectrum(std::span<const double> input);

}  // namespace fluxpower::dsp
