// period.hpp — dominant-period estimation from sampled power signals.
//
// Implements FINDPERIOD from the paper's Algorithm 1: the FFT-GET-PERIOD
// procedure accumulates power samples and, every 30 seconds, estimates the
// application's phase period from the buffer. GET-GPU-CAP then compares
// consecutive period estimates: a stable period under a lowered cap means
// the application is unaffected (keep saving power); a stretched period
// means the cap hurt it (give power back).
//
// Estimators provided (the second and third exist for the ablation bench):
//   * Periodogram (default): detrend → Hann window → zero-pad → FFT →
//     dominant non-DC bin with parabolic interpolation.
//   * Raw periodogram: no window (leakage-prone; ablation).
//   * Autocorrelation: first major peak of the unbiased ACF (ablation).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace fluxpower::dsp {

/// Result of a period estimate.
struct PeriodEstimate {
  double period_s = 0.0;      ///< Dominant period in seconds.
  double frequency_hz = 0.0;  ///< Corresponding frequency.
  /// Fraction of (detrended) signal power concentrated at the dominant
  /// frequency bin and its two neighbours, in [0,1]. Signals with no phase
  /// behaviour (GEMM, LAMMPS) have low significance.
  double significance = 0.0;
};

enum class PeriodMethod {
  HannPeriodogram,  ///< default used by FPP
  RawPeriodogram,
  Autocorrelation,
  /// Welch's method: averaged Hann-windowed periodograms over 50%-overlapped
  /// half-length segments. Lower estimator variance on noisy signals at the
  /// cost of frequency resolution — the classic trade-off, exposed for the
  /// FPP estimator ablation.
  WelchPeriodogram,
};

/// Subtract the mean in place. The DC component otherwise dominates every
/// power-signal spectrum.
void remove_mean(std::span<double> xs);

/// Remove a least-squares linear trend in place (power ramps during
/// strong-scaled runs otherwise masquerade as low-frequency content).
void remove_linear_trend(std::span<double> xs);

/// Multiply by a Hann window in place.
void hann_window(std::span<double> xs);

/// Estimate the dominant period of `samples` taken every `dt_s` seconds.
/// Returns nullopt when fewer than 4 samples are available (cannot resolve
/// any frequency), or when the signal is constant.
std::optional<PeriodEstimate> find_period(
    std::span<const double> samples, double dt_s,
    PeriodMethod method = PeriodMethod::HannPeriodogram);

/// Same estimator, but uses `samples` itself as the transform scratch
/// instead of copying into one: the signal is detrended/windowed/padded in
/// place and its contents are clobbered. FPP, which resets its FFT buffer
/// every control round, saves the copy. Results are bit-identical to
/// find_period on the same input — the copy was the only difference.
std::optional<PeriodEstimate> find_period_consume(
    std::vector<double>& samples, double dt_s,
    PeriodMethod method = PeriodMethod::HannPeriodogram);

/// Unbiased autocorrelation of a detrended signal, lags 0..n-1 (empty for
/// an empty signal).
std::vector<double> autocorrelation(std::span<const double> xs);

}  // namespace fluxpower::dsp
