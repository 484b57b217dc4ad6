// Tests for dsp/fft: the transform underneath FPP's period estimator.
#include "dsp/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/rng.hpp"

namespace fluxpower::dsp {
namespace {

constexpr double kTol = 1e-9;

std::vector<Complex> naive_dft(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * j) / static_cast<double>(n);
      acc += x[j] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Complex> x(n);
  for (auto& c : x) c = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return x;
}

/// An n-sample random signal zero-padded to the next power of two, the way
/// find_period pads every window before transforming it.
std::vector<Complex> padded_signal(std::size_t n, std::uint64_t seed) {
  std::vector<Complex> x = random_signal(n, seed);
  x.resize(next_power_of_two(n), Complex{});
  return x;
}

std::vector<Complex> fft(std::vector<Complex> x) {
  fft_radix2(x);
  return x;
}

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(1024));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(12));
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
}

TEST(Fft, EmptyInput) {
  std::vector<Complex> x;
  EXPECT_THROW(fft_radix2(x), std::invalid_argument);
  EXPECT_THROW(power_spectrum({}), std::invalid_argument);
}

TEST(Fft, SingleSampleIsIdentity) {
  const auto spec = fft({Complex(3.0, -1.0)});
  ASSERT_EQ(spec.size(), 1u);
  EXPECT_NEAR(spec[0].real(), 3.0, kTol);
  EXPECT_NEAR(spec[0].imag(), -1.0, kTol);
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> x(8, Complex{});
  x[0] = Complex(1.0, 0.0);
  const auto spec = fft(x);
  for (const Complex& c : spec) {
    EXPECT_NEAR(c.real(), 1.0, kTol);
    EXPECT_NEAR(c.imag(), 0.0, kTol);
  }
}

TEST(Fft, ConstantGivesDcOnly) {
  std::vector<Complex> x(16, Complex(2.0, 0.0));
  const auto spec = fft(x);
  EXPECT_NEAR(spec[0].real(), 32.0, kTol);
  for (std::size_t k = 1; k < spec.size(); ++k) {
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-8);
  }
}

TEST(Fft, PureToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<Complex> x(n);
  const std::size_t bin = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(bin * i) /
                         static_cast<double>(n);
    x[i] = Complex(std::cos(angle), 0.0);
  }
  const auto spec = fft(x);
  // cos splits between bins k and N-k with magnitude N/2 each.
  EXPECT_NEAR(std::abs(spec[bin]), n / 2.0, 1e-6);
  EXPECT_NEAR(std::abs(spec[n - bin]), n / 2.0, 1e-6);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == bin || k == n - bin) continue;
    EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-6) << "bin " << k;
  }
}

TEST(Fft, Radix2RejectsNonPowerOfTwo) {
  std::vector<Complex> x(3);
  EXPECT_THROW(fft_radix2(x), std::invalid_argument);
}

TEST(Fft, PowerSpectrumRejectsNonPowerOfTwo) {
  std::vector<double> x(10, 1.0);
  EXPECT_THROW(power_spectrum(x), std::invalid_argument);
}

TEST(Fft, RealSignalHasConjugateSymmetry) {
  util::Rng rng(3);
  std::vector<Complex> x(32);
  for (Complex& v : x) v = rng.uniform(-5, 5);
  const auto spec = fft(x);
  for (std::size_t k = 1; k < x.size(); ++k) {
    const Complex a = spec[k];
    const Complex b = std::conj(spec[x.size() - k]);
    EXPECT_NEAR(a.real(), b.real(), 1e-8);
    EXPECT_NEAR(a.imag(), b.imag(), 1e-8);
  }
}

TEST(Fft, PowerSpectrumSize) {
  std::vector<double> x(16, 1.0);
  EXPECT_EQ(power_spectrum(x).size(), 9u);  // N/2 + 1
}

// Property: the kernel matches the O(N^2) DFT of an n-sample signal
// zero-padded to the next power of two (no padding when n already is one).
class FftMatchesDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftMatchesDft, AgreesWithNaiveDft) {
  const std::size_t n = GetParam();
  const auto x = padded_signal(n, 1000 + n);
  const auto fast = fft(x);
  const auto slow = naive_dft(x);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t k = 0; k < fast.size(); ++k) {
    EXPECT_NEAR(fast[k].real(), slow[k].real(), 1e-7 * n) << "bin " << k;
    EXPECT_NEAR(fast[k].imag(), slow[k].imag(), 1e-7 * n) << "bin " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftMatchesDft,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 15,
                                           17, 31, 32, 45, 64, 100, 127, 128));

// Property: the inverse transform, taken with the forward kernel as
// conj(fft(conj(X))) / N, recovers the padded signal.
class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversSignal) {
  const std::size_t n = GetParam();
  const auto x = padded_signal(n, 2000 + n);
  auto back = fft(x);
  for (Complex& c : back) c = std::conj(c);
  back = fft(back);
  const double scale = 1.0 / static_cast<double>(back.size());
  for (Complex& c : back) c = std::conj(c) * scale;
  ASSERT_EQ(back.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-8);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 11, 16, 33, 64, 97,
                                           128, 255, 256));

// Property: Parseval's theorem — energy is conserved (up to 1/N).
class FftParseval : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftParseval, EnergyConserved) {
  const std::size_t n = GetParam();
  const auto x = padded_signal(n, 3000 + n);
  const auto spec = fft(x);
  double time_energy = 0.0, freq_energy = 0.0;
  for (const Complex& c : x) time_energy += std::norm(c);
  for (const Complex& c : spec) freq_energy += std::norm(c);
  EXPECT_NEAR(freq_energy / static_cast<double>(spec.size()), time_energy,
              1e-6 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftParseval,
                         ::testing::Values(2, 3, 7, 16, 50, 128, 241));

// Property: linearity — fft(a*x + y) == a*fft(x) + fft(y).
TEST(Fft, Linearity) {
  const std::size_t n = 32;
  const auto x = random_signal(n, 1);
  const auto y = random_signal(n, 2);
  const double a = 2.5;
  std::vector<Complex> combo(n);
  for (std::size_t i = 0; i < n; ++i) combo[i] = a * x[i] + y[i];
  const auto fc = fft(combo);
  const auto fx = fft(x);
  const auto fy = fft(y);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(std::abs(fc[k] - (a * fx[k] + fy[k])), 0.0, 1e-8);
  }
}

}  // namespace
}  // namespace fluxpower::dsp
