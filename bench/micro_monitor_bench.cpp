// Microbenchmarks for the monitor data plane: the read paths of the
// columnar (SoA) sample store and the consume-variant period estimator.
//
// Workloads:
//   * sweep stats      — mean/peak of best-node-watts over the whole ring
//                        (the ledger/report sweep shape)
//   * percentile       — p99 via nth_element over the extracted watt column
//   * window query     — [start, end] window stats: binary search +
//                        unit-stride segments
//   * find_period      — copying estimator vs the in-place consume variant
//                        on a column already materialized by copy_best_w
//
// Unless the caller passes its own --benchmark_out, results are written to
// BENCH_monitor.json (google-benchmark JSON format).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "dsp/period.hpp"
#include "monitor/sample_store.hpp"

using namespace fluxpower;

namespace {

constexpr std::size_t kRingSamples = 65536;

hwsim::PowerSample make_sample(std::size_t i) {
  hwsim::PowerSample s;
  s.timestamp_s = 2.0 * static_cast<double>(i);
  s.hostname = "lassen0";
  // Deterministic pseudo-signal: a DC level plus two tones, the shape the
  // percentile and period sweeps see in production.
  const double x = static_cast<double>(i % 4096);
  const double w = 900.0 + 250.0 * ((i % 45) < 22 ? 1.0 : -1.0) +
                   0.01 * x;
  s.node_w = w;
  s.node_estimate_w = w - 40.0;
  s.cpu_w.push_back(120.0 + 0.001 * x);
  s.cpu_w.push_back(118.0);
  s.mem_w = 80.0;
  for (int g = 0; g < 4; ++g) {
    s.gpu_w.push_back(150.0 + 10.0 * static_cast<double>(g));
  }
  return s;
}

monitor::ColumnarSampleStore make_filled_store() {
  monitor::ColumnarSampleStore store(kRingSamples);
  for (std::size_t i = 0; i < kRingSamples + kRingSamples / 2; ++i) {
    store.push(make_sample(i));  // overfill so the ring seam is exercised
  }
  return store;
}

// --- Sweep stats: mean/peak of best-node-watts over the whole ring ---------

void BM_SweepStats_Columnar(benchmark::State& state) {
  const auto store = make_filled_store();
  double sink = 0.0;
  for (auto _ : state) {
    double sum = 0.0, peak = 0.0;
    const auto seg = store.best_w_segments(0, store.size());
    for (const std::span<const double> span : {seg.first, seg.second}) {
      for (const double w : span) {
        sum += w;
        peak = std::max(peak, w);
      }
    }
    sink += sum + peak;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRingSamples));
}
BENCHMARK(BM_SweepStats_Columnar);

// --- Percentile: p99 of the watt column ------------------------------------

void BM_Percentile_Columnar(benchmark::State& state) {
  const auto store = make_filled_store();
  std::vector<double> watts;
  double sink = 0.0;
  for (auto _ : state) {
    store.copy_best_w(0, store.size(), watts);
    const std::size_t k = watts.size() * 99 / 100;
    std::nth_element(watts.begin(), watts.begin() + k, watts.end());
    sink += watts[k];
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRingSamples));
}
BENCHMARK(BM_Percentile_Columnar);

// --- Window query: stats over [start, end] ---------------------------------
//
// A 4096-sample window out of the 64k ring: binary search over the
// timestamp column, then a sweep of two contiguous spans.

void BM_WindowQuery_Columnar(benchmark::State& state) {
  const auto store = make_filled_store();
  const double start = store.timestamp_at(store.size() / 2);
  const double end = start + 2.0 * 4096.0;
  double sink = 0.0;
  for (auto _ : state) {
    const auto [lo, hi] = store.window_range(start, end);
    double sum = 0.0;
    const auto seg = store.best_w_segments(lo, hi);
    for (const std::span<const double> span : {seg.first, seg.second}) {
      for (const double w : span) sum += w;
    }
    sink += sum / static_cast<double>(hi - lo);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRingSamples));
}
BENCHMARK(BM_WindowQuery_Columnar);

// --- find_period: copying estimator vs consume variant ---------------------
//
// Both variants start from a freshly materialized watt column (what the
// FPP estimator sees after copy_best_w); the consume variant detrends,
// windows and pads that buffer in place instead of copying it again.

void BM_FindPeriod_Copy(benchmark::State& state) {
  const auto store = make_filled_store();
  std::vector<double> watts;
  double sink = 0.0;
  for (auto _ : state) {
    store.copy_best_w(store.size() - 2048, store.size(), watts);
    const auto est = dsp::find_period(watts, 2.0);
    sink += est ? est->period_s : 0.0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_FindPeriod_Copy);

void BM_FindPeriod_Consume(benchmark::State& state) {
  const auto store = make_filled_store();
  std::vector<double> watts;
  double sink = 0.0;
  for (auto _ : state) {
    store.copy_best_w(store.size() - 2048, store.size(), watts);
    const auto est = dsp::find_period_consume(watts, 2.0);
    sink += est ? est->period_s : 0.0;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 2048);
}
BENCHMARK(BM_FindPeriod_Consume);

}  // namespace

int main(int argc, char** argv) {
  // Default to machine-readable output alongside the console report, unless
  // the caller chose their own output file.
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_monitor.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
