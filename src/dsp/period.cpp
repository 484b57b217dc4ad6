#include "dsp/period.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dsp/fft.hpp"

namespace fluxpower::dsp {

void remove_mean(std::span<double> xs) {
  if (xs.empty()) return;
  double m = 0.0;
  for (double x : xs) m += x;
  m /= static_cast<double>(xs.size());
  for (double& x : xs) x -= m;
}

void remove_linear_trend(std::span<double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) {
    remove_mean(xs);
    return;
  }
  // Least-squares fit y = a + b*t with t = 0..n-1.
  const double nn = static_cast<double>(n);
  const double sum_t = nn * (nn - 1.0) / 2.0;
  const double sum_t2 = (nn - 1.0) * nn * (2.0 * nn - 1.0) / 6.0;
  double sum_y = 0.0, sum_ty = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum_y += xs[i];
    sum_ty += static_cast<double>(i) * xs[i];
  }
  const double denom = nn * sum_t2 - sum_t * sum_t;
  const double b = denom != 0.0 ? (nn * sum_ty - sum_t * sum_y) / denom : 0.0;
  const double a = (sum_y - b * sum_t) / nn;
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] -= a + b * static_cast<double>(i);
  }
}

void hann_window(std::span<double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) return;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi *
                                           static_cast<double>(i) /
                                           static_cast<double>(n - 1)));
    xs[i] *= w;
  }
}

std::vector<double> autocorrelation(std::span<const double> xs) {
  std::vector<double> detrended(xs.begin(), xs.end());
  remove_mean(detrended);
  const std::size_t n = detrended.size();
  std::vector<double> acf(n, 0.0);
  for (std::size_t lag = 0; lag < n; ++lag) {
    double acc = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) {
      acc += detrended[i] * detrended[i + lag];
    }
    // Unbiased normalization by the number of overlapping terms.
    acf[lag] = acc / static_cast<double>(n - lag);
  }
  if (!acf.empty() && acf[0] > 0.0) {
    const double norm = acf[0];
    for (double& v : acf) v /= norm;
  }
  return acf;
}

namespace {

// Period estimate from the dominant peak of the one-sided power spectrum
// of `window` samples taken every `dt_s` seconds and zero-padded to
// `padded`.
std::optional<PeriodEstimate> pick_spectral_peak(std::span<const double> spec,
                                                 std::size_t window,
                                                 std::size_t padded,
                                                 double dt_s) {
  // Dominant non-DC bin. Skip bins whose period exceeds the observation
  // window: they are untrustworthy extrapolations of leakage.
  const double window_s = static_cast<double>(window) * dt_s;
  const double df = 1.0 / (static_cast<double>(padded) * dt_s);
  std::size_t best = 0;
  double best_val = 0.0;
  double total = 0.0;
  for (std::size_t k = 1; k < spec.size(); ++k) {
    total += spec[k];
    if (static_cast<double>(k) * df < 1.0 / window_s) continue;
    if (spec[k] > best_val) {
      best_val = spec[k];
      best = k;
    }
  }
  if (best == 0 || total <= 0.0) return std::nullopt;

  // Parabolic interpolation around the peak for sub-bin accuracy.
  double delta = 0.0;
  if (best + 1 < spec.size()) {
    const double y0 = spec[best - 1];
    const double y1 = spec[best];
    const double y2 = spec[best + 1];
    const double denom = y0 - 2.0 * y1 + y2;
    if (std::abs(denom) > 1e-30) {
      delta = std::clamp(0.5 * (y0 - y2) / denom, -0.5, 0.5);
    }
  }

  PeriodEstimate est;
  est.frequency_hz = (static_cast<double>(best) + delta) * df;
  est.period_s = 1.0 / est.frequency_hz;
  // Significance: spectral mass inside the peak's main lobe. Zero-padding
  // by `pad_factor` widens every lobe proportionally, and the Hann window's
  // main lobe spans 4 unpadded bins.
  const std::size_t pad_factor = padded / window;
  const std::size_t half_width = 2 * pad_factor;
  double neighborhood = 0.0;
  const std::size_t lo = best > half_width ? best - half_width : 1;
  const std::size_t hi = std::min(best + half_width, spec.size() - 1);
  for (std::size_t k = lo; k <= hi; ++k) neighborhood += spec[k];
  est.significance = std::min(1.0, neighborhood / total);
  return est;
}

// The periodogram estimators take the signal by value: the copying entry
// point passes a fresh vector, the consuming entry point moves the caller's
// buffer in — either way the arithmetic below sees the same values in the
// same order, so the two paths are bit-identical.
std::optional<PeriodEstimate> find_period_periodogram(std::vector<double> x,
                                                      double dt_s,
                                                      bool windowed) {
  const std::size_t n_samples = x.size();
  remove_linear_trend(x);

  double energy = 0.0;
  for (double v : x) energy += v * v;
  if (energy <= 1e-12) return std::nullopt;  // constant signal

  if (windowed) hann_window(x);

  // Zero-pad to >= 8N for fine frequency resolution: the FPP convergence
  // threshold is 2 s, so bin spacing must be well under that at typical
  // 30 s windows sampled at 2 s.
  const std::size_t padded = next_power_of_two(8 * x.size());
  x.resize(padded, 0.0);

  return pick_spectral_peak(power_spectrum(x), n_samples, padded, dt_s);
}

std::optional<PeriodEstimate> find_period_welch(std::vector<double> detrended,
                                                double dt_s) {
  // Half-length segments, 50% overlap -> 3 segments; average their padded
  // Hann periodograms, then pick the dominant bin like the single-window
  // estimator.
  const std::size_t n = detrended.size();
  const std::size_t seg = n / 2;
  if (seg < 4) return find_period_periodogram(std::move(detrended), dt_s, true);

  remove_linear_trend(detrended);
  double energy = 0.0;
  for (double v : detrended) energy += v * v;
  if (energy <= 1e-12) return std::nullopt;

  const std::size_t padded = next_power_of_two(8 * seg);
  std::vector<double> avg(padded / 2 + 1, 0.0);
  for (std::size_t start = 0; start + seg <= n; start += seg / 2) {
    std::vector<double> x(detrended.begin() + static_cast<long>(start),
                          detrended.begin() + static_cast<long>(start + seg));
    remove_mean(x);
    hann_window(x);
    x.resize(padded, 0.0);
    const std::vector<double> spec = power_spectrum(x);
    for (std::size_t k = 0; k < avg.size(); ++k) avg[k] += spec[k];
  }
  return pick_spectral_peak(avg, seg, padded, dt_s);
}

std::optional<PeriodEstimate> find_period_acf(std::span<const double> x,
                                              double dt_s) {
  const std::vector<double> acf = autocorrelation(x);

  // First local maximum after the zero-lag peak with positive correlation.
  std::size_t best = 0;
  double best_val = 0.0;
  for (std::size_t lag = 2; lag + 1 < acf.size(); ++lag) {
    if (acf[lag] > acf[lag - 1] && acf[lag] >= acf[lag + 1] &&
        acf[lag] > best_val && acf[lag] > 0.0) {
      best = lag;
      best_val = acf[lag];
      break;  // first peak = fundamental period
    }
  }
  if (best == 0) return std::nullopt;

  PeriodEstimate est;
  est.period_s = static_cast<double>(best) * dt_s;
  est.frequency_hz = 1.0 / est.period_s;
  est.significance = std::clamp(best_val, 0.0, 1.0);
  return est;
}

std::optional<PeriodEstimate> find_period_impl(std::vector<double> x,
                                               double dt_s,
                                               PeriodMethod method) {
  if (dt_s <= 0.0) throw std::invalid_argument("find_period: dt must be > 0");
  if (x.size() < 4) return std::nullopt;
  switch (method) {
    case PeriodMethod::HannPeriodogram:
      return find_period_periodogram(std::move(x), dt_s, /*windowed=*/true);
    case PeriodMethod::RawPeriodogram:
      return find_period_periodogram(std::move(x), dt_s, /*windowed=*/false);
    case PeriodMethod::Autocorrelation:
      return find_period_acf(x, dt_s);
    case PeriodMethod::WelchPeriodogram:
      return find_period_welch(std::move(x), dt_s);
  }
  return std::nullopt;
}

}  // namespace

std::optional<PeriodEstimate> find_period(std::span<const double> samples,
                                          double dt_s, PeriodMethod method) {
  return find_period_impl(std::vector<double>(samples.begin(), samples.end()),
                          dt_s, method);
}

std::optional<PeriodEstimate> find_period_consume(std::vector<double>& samples,
                                                  double dt_s,
                                                  PeriodMethod method) {
  return find_period_impl(std::move(samples), dt_s, method);
}

}  // namespace fluxpower::dsp
