// Tests for dsp/period: FPP's FINDPERIOD procedure.
#include "dsp/period.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/rng.hpp"

namespace fluxpower::dsp {
namespace {

std::vector<double> sine(double period_s, double dt, double duration_s,
                         double mean = 500.0, double amplitude = 100.0,
                         double phase = 0.0) {
  std::vector<double> out;
  for (double t = 0.0; t < duration_s; t += dt) {
    out.push_back(mean + amplitude * std::sin(2.0 * std::numbers::pi * t /
                                                  period_s +
                                              phase));
  }
  return out;
}

std::vector<double> square(double period_s, double dt, double duration_s,
                           double low = 420.0, double high = 915.0,
                           double duty = 0.25) {
  std::vector<double> out;
  for (double t = 0.0; t < duration_s; t += dt) {
    const double pos = std::fmod(t, period_s) / period_s;
    out.push_back(pos < duty ? high : low);
  }
  return out;
}

TEST(RemoveMean, ZeroesAverage) {
  std::vector<double> xs{1, 2, 3, 4};
  remove_mean(xs);
  double s = 0.0;
  for (double x : xs) s += x;
  EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(RemoveLinearTrend, KillsRamp) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(3.0 + 0.7 * i);
  remove_linear_trend(xs);
  for (double x : xs) EXPECT_NEAR(x, 0.0, 1e-9);
}

TEST(RemoveLinearTrend, PreservesOscillation) {
  auto xs = sine(10.0, 1.0, 100.0, 0.0, 50.0);
  // Add a ramp on top.
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] += 2.0 * static_cast<double>(i);
  remove_linear_trend(xs);
  // The oscillation's energy should survive.
  double energy = 0.0;
  for (double x : xs) energy += x * x;
  EXPECT_GT(energy, 0.5 * 50.0 * 50.0 / 2.0 * static_cast<double>(xs.size()));
}

TEST(HannWindow, ZeroAtEdgesPeakInMiddle) {
  std::vector<double> xs(11, 1.0);
  hann_window(xs);
  EXPECT_NEAR(xs.front(), 0.0, 1e-12);
  EXPECT_NEAR(xs.back(), 0.0, 1e-12);
  EXPECT_NEAR(xs[5], 1.0, 1e-12);
}

TEST(FindPeriod, RejectsBadDt) {
  std::vector<double> xs(10, 1.0);
  EXPECT_THROW(find_period(xs, 0.0), std::invalid_argument);
  EXPECT_THROW(find_period(xs, -1.0), std::invalid_argument);
}

TEST(FindPeriod, TooFewSamplesIsNullopt) {
  std::vector<double> xs{1, 2, 3};
  EXPECT_FALSE(find_period(xs, 2.0).has_value());
}

TEST(FindPeriod, ConstantSignalIsNullopt) {
  std::vector<double> xs(64, 500.0);
  EXPECT_FALSE(find_period(xs, 2.0).has_value());
}

TEST(FindPeriod, LinearRampIsNullopt) {
  // A pure trend has no periodic content after detrending.
  std::vector<double> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(100.0 + 3.0 * i);
  EXPECT_FALSE(find_period(xs, 2.0).has_value());
}

TEST(FindPeriod, SignificanceHighForPureTone) {
  const auto xs = sine(10.0, 1.0, 120.0);
  const auto est = find_period(xs, 1.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_GT(est->significance, 0.5);
}

TEST(FindPeriod, SquareWaveDetected) {
  // Quicksilver-like square wave: period 8.7 s sampled every 2 s ~ the
  // paper's telemetry cadence over a 90 s FPP window.
  const auto xs = square(8.7, 2.0, 90.0);
  const auto est = find_period(xs, 2.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->period_s, 8.7, 1.0);
}

TEST(FindPeriod, FrequencyMatchesPeriod) {
  const auto xs = sine(20.0, 1.0, 200.0);
  const auto est = find_period(xs, 1.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->frequency_hz * est->period_s, 1.0, 1e-9);
}

TEST(FindPeriod, StretchedSignalStretchesEstimate) {
  // This is the effect FPP exploits: capping slows the app and stretches
  // the period. A 25% slowdown must be visible.
  const auto fast = sine(10.0, 1.0, 120.0);
  const auto slow = sine(12.5, 1.0, 120.0);
  const auto ef = find_period(fast, 1.0);
  const auto es = find_period(slow, 1.0);
  ASSERT_TRUE(ef && es);
  EXPECT_GT(es->period_s, ef->period_s + 1.5);
}

TEST(FindPeriod, RobustToNoise) {
  util::Rng rng(17);
  auto xs = square(8.7, 2.0, 180.0);
  for (double& x : xs) x += rng.normal(0.0, 15.0);
  const auto est = find_period(xs, 2.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->period_s, 8.7, 1.5);
}

TEST(Autocorrelation, Normalized) {
  const auto xs = sine(8.0, 1.0, 64.0);
  const auto acf = autocorrelation(xs);
  EXPECT_NEAR(acf[0], 1.0, 1e-9);
  for (double v : acf) EXPECT_LE(std::abs(v), 1.2);
}

TEST(Autocorrelation, PeakAtPeriodLag) {
  const auto xs = sine(8.0, 1.0, 160.0);
  const auto acf = autocorrelation(xs);
  EXPECT_GT(acf[8], 0.8);
}

TEST(Autocorrelation, EmptyInputGivesEmpty) {
  EXPECT_TRUE(autocorrelation({}).empty());
}

TEST(FindPeriodAcf, DetectsPeriod) {
  const auto xs = sine(8.0, 1.0, 160.0);
  const auto est = find_period(xs, 1.0, PeriodMethod::Autocorrelation);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->period_s, 8.0, 1.01);
}

TEST(FindPeriodWelch, DetectsPeriodOnCleanSignal) {
  const auto xs = sine(10.0, 1.0, 200.0);
  const auto est = find_period(xs, 1.0, PeriodMethod::WelchPeriodogram);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->period_s, 10.0, 1.2);
}

TEST(FindPeriodWelch, LowerVarianceThanSingleWindowOnNoise) {
  // Estimate the same noisy signal from many windows; Welch's spread
  // should not exceed the single-window estimator's.
  util::Rng rng(99);
  std::vector<double> hann_err, welch_err;
  for (int trial = 0; trial < 20; ++trial) {
    auto xs = square(9.0, 2.0, 180.0);
    for (double& x : xs) x += rng.normal(0.0, 60.0);
    const auto h = find_period(xs, 2.0, PeriodMethod::HannPeriodogram);
    const auto w = find_period(xs, 2.0, PeriodMethod::WelchPeriodogram);
    if (h) hann_err.push_back(std::abs(h->period_s - 9.0));
    if (w) welch_err.push_back(std::abs(w->period_s - 9.0));
  }
  ASSERT_GT(welch_err.size(), 15u);
  double hann_mean = 0.0, welch_mean = 0.0;
  for (double e : hann_err) hann_mean += e;
  for (double e : welch_err) welch_mean += e;
  hann_mean /= static_cast<double>(hann_err.size());
  welch_mean /= static_cast<double>(welch_err.size());
  EXPECT_LT(welch_mean, hann_mean + 1.0);
}

TEST(FindPeriodWelch, ConstantIsNullopt) {
  std::vector<double> xs(64, 500.0);
  EXPECT_FALSE(find_period(xs, 2.0, PeriodMethod::WelchPeriodogram).has_value());
}

TEST(FindPeriodWelch, ShortBufferFallsBackGracefully) {
  const auto xs = sine(4.0, 1.0, 7.0);  // 7 samples -> segments too short
  const auto est = find_period(xs, 1.0, PeriodMethod::WelchPeriodogram);
  // Falls back to the single-window estimator; may or may not resolve, but
  // must not crash and any estimate is in range.
  if (est) EXPECT_GT(est->period_s, 0.0);
}

TEST(FindPeriodRaw, StillDetectsStrongTone) {
  const auto xs = sine(16.0, 2.0, 160.0);
  const auto est = find_period(xs, 2.0, PeriodMethod::RawPeriodogram);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->period_s, 16.0, 2.0);
}

// Property sweep: the periodogram estimator recovers a range of periods
// from Quicksilver-like to GEMM-iteration-like at 2 s sampling over 90 s —
// exactly the FPP operating envelope.
class PeriodSweep : public ::testing::TestWithParam<double> {};

TEST_P(PeriodSweep, RecoversWithinTenPercent) {
  const double period = GetParam();
  const auto xs = sine(period, 2.0, 90.0, 500.0, 120.0, 0.7);
  const auto est = find_period(xs, 2.0);
  ASSERT_TRUE(est.has_value()) << "period " << period;
  EXPECT_NEAR(est->period_s, period, 0.10 * period + 0.3) << "period " << period;
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodSweep,
                         ::testing::Values(5.0, 6.5, 8.7, 10.0, 12.5, 15.0,
                                           20.0, 25.0, 30.0));

// Property: estimates are phase-invariant.
class PhaseSweep : public ::testing::TestWithParam<double> {};

TEST_P(PhaseSweep, PhaseDoesNotMoveEstimate) {
  const double phase = GetParam();
  const auto xs = sine(12.0, 2.0, 120.0, 500.0, 100.0, phase);
  const auto est = find_period(xs, 2.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->period_s, 12.0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Phases, PhaseSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 3.1, 4.7, 6.0));

// The consuming (zero-copy) entry point must be bit-identical to the
// copying one for every estimator on deterministic seed traces — the copy
// was the only difference between the two paths.
TEST(FindPeriodConsume, BitIdenticalToCopyingPath) {
  util::Rng rng(20240907);
  for (int seed = 0; seed < 8; ++seed) {
    // Noisy mixed trace: sine + square + white noise, like a real phase
    // signal riding on sensor noise.
    const double period = 6.0 + 3.0 * seed;
    std::vector<double> xs = sine(period, 2.0, 90.0 + 10.0 * seed, 500.0,
                                  120.0, 0.3 * seed);
    const std::vector<double> sq = square(period * 0.5, 2.0, 90.0 + 10.0 * seed);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] += 0.2 * sq[std::min(i, sq.size() - 1)] + rng.uniform(-8.0, 8.0);
    }
    for (const PeriodMethod method :
         {PeriodMethod::HannPeriodogram, PeriodMethod::RawPeriodogram,
          PeriodMethod::Autocorrelation, PeriodMethod::WelchPeriodogram}) {
      const auto copied = find_period(xs, 2.0, method);
      std::vector<double> scratch = xs;  // consumed below
      const auto consumed = find_period_consume(scratch, 2.0, method);
      ASSERT_EQ(copied.has_value(), consumed.has_value())
          << "seed " << seed << " method " << static_cast<int>(method);
      if (!copied) continue;
      EXPECT_EQ(copied->period_s, consumed->period_s);
      EXPECT_EQ(copied->frequency_hz, consumed->frequency_hz);
      EXPECT_EQ(copied->significance, consumed->significance);
    }
  }
}

TEST(FindPeriodConsume, DegenerateInputs) {
  std::vector<double> tiny{1.0, 2.0, 3.0};
  EXPECT_FALSE(find_period_consume(tiny, 2.0).has_value());
  std::vector<double> flat(64, 500.0);
  EXPECT_FALSE(find_period_consume(flat, 2.0).has_value());
  std::vector<double> ok(64, 500.0);
  for (std::size_t i = 0; i < ok.size(); ++i) {
    ok[i] += 50.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(i) /
                             8.0);
  }
  EXPECT_THROW(static_cast<void>(find_period_consume(ok, 0.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace fluxpower::dsp
