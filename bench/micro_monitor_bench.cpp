// Microbenchmarks for the monitor data plane: the columnar (SoA) sample
// store against the seed's row-of-structs ring, the consume-variant period
// estimator, and — sim-driven — the TBON traffic optimization this
// refactor introduced (incremental delta aggregation).
//
// Workloads:
//   * sweep stats      — mean/peak of best-node-watts over the whole ring
//                        (the ledger/report sweep shape); row vs columnar
//   * percentile       — p99 via nth_element over the extracted watt
//                        column; row vs columnar
//   * window query     — [start, end] window stats: linear timestamp scan
//                        (row) vs binary search + unit-stride segments
//   * find_period      — copying estimator vs the in-place consume variant
//                        on a column already materialized by copy_best_w
//   * merge bytes/hop  — full re-merge vs delta aggregation: samples
//                        shipped per repeated root window query, read off
//                        the fluxpower_monitor_merge_bytes_total registry
//                        counters of a live 16-node TBON stack
//
// The `row` namespace replicates the seed layout (util::RingBuffer of
// PowerSample structs) so the before/after comparison is carried inside
// one binary and one JSON file.
//
// Unless the caller passes its own --benchmark_out, results are written to
// BENCH_monitor.json (google-benchmark JSON format).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "dsp/period.hpp"
#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/client.hpp"
#include "monitor/power_monitor.hpp"
#include "monitor/sample_store.hpp"
#include "util/ring_buffer.hpp"

using namespace fluxpower;

namespace row {

/// Seed-layout baseline: the monitor's original row-of-structs ring with
/// the linear read paths it forced. Kept minimal — push, indexed get and a
/// linear window scan — exactly what the pre-columnar module did.
class RowSampleStore {
 public:
  explicit RowSampleStore(std::size_t capacity) : ring_(capacity) {}

  void push(const hwsim::PowerSample& s) { ring_.push(s); }
  std::size_t size() const noexcept { return ring_.size(); }
  const hwsim::PowerSample& get(std::size_t i) const { return ring_[i]; }

 private:
  util::RingBuffer<hwsim::PowerSample> ring_;
};

}  // namespace row

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

template <typename Store>
Store make_filled_store() {
  Store store(kRingSamples);
  for (std::size_t i = 0; i < kRingSamples + kRingSamples / 2; ++i) {
    store.push(make_sample(i));  // overfill so the ring seam is exercised
  }
  return store;
}

// --- Sweep stats: mean/peak of best-node-watts over the whole ring ---------

void BM_SweepStats_Row(benchmark::State& state) {
  const auto store = make_filled_store<row::RowSampleStore>();
  double sink = 0.0;
  for (auto _ : state) {
    double sum = 0.0, peak = 0.0;
    for (std::size_t i = 0; i < store.size(); ++i) {
      const double w = store.get(i).best_node_w();
      sum += w;
      peak = std::max(peak, w);
    }
    sink += sum + peak;
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRingSamples));
}
BENCHMARK(BM_SweepStats_Row);

void BM_SweepStats_Columnar(benchmark::State& state) {
  const auto store = make_filled_store<monitor::ColumnarSampleStore>();
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

void BM_Percentile_Row(benchmark::State& state) {
  const auto store = make_filled_store<row::RowSampleStore>();
  std::vector<double> watts;
  double sink = 0.0;
  for (auto _ : state) {
    watts.clear();
    watts.reserve(store.size());
    for (std::size_t i = 0; i < store.size(); ++i) {
      watts.push_back(store.get(i).best_node_w());
    }
    const std::size_t k = watts.size() * 99 / 100;
    std::nth_element(watts.begin(), watts.begin() + k, watts.end());
    sink += watts[k];
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRingSamples));
}
BENCHMARK(BM_Percentile_Row);

void BM_Percentile_Columnar(benchmark::State& state) {
  const auto store = make_filled_store<monitor::ColumnarSampleStore>();
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
// A 4096-sample window out of the 64k ring. The row path must scan
// timestamps linearly (the seed behavior); the columnar path binary
// searches the timestamp column and sweeps two contiguous spans.

void BM_WindowQuery_Row(benchmark::State& state) {
  const auto store = make_filled_store<row::RowSampleStore>();
  const double start = store.get(store.size() / 2).timestamp_s;
  const double end = start + 2.0 * 4096.0;
  double sink = 0.0;
  for (auto _ : state) {
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < store.size(); ++i) {
      const hwsim::PowerSample& s = store.get(i);
      if (s.timestamp_s < start || s.timestamp_s > end) continue;
      sum += s.best_node_w();
      ++n;
    }
    sink += sum / static_cast<double>(n);
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRingSamples));
}
BENCHMARK(BM_WindowQuery_Row);

void BM_WindowQuery_Columnar(benchmark::State& state) {
  const auto store = make_filled_store<monitor::ColumnarSampleStore>();
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
  const auto store = make_filled_store<monitor::ColumnarSampleStore>();
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
  const auto store = make_filled_store<monitor::ColumnarSampleStore>();
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

// --- Merge bytes per hop: full re-merge vs delta aggregation ---------------
//
// A live 16-node TBON stack answering the same repeated root window query.
// Every broker's fluxpower_monitor_merge_bytes_total counts the samples it
// ships upward per merge; summed over the tree that is the query's
// hop-weighted payload. Arg 0 = full re-merge, arg 1 = delta aggregation
// (one warm-up query first, so the measured region is steady state — the
// first delta query is a full resync and ships everything). The acceptance
// gate is bytes_per_query(delta) strictly below bytes_per_query(full).

void BM_MergeBytesPerQuery(benchmark::State& state) {
  const bool delta = state.range(0) != 0;
  constexpr int kNodes = 16;
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, kNodes);
  std::vector<hwsim::Node*> ptrs;
  for (int i = 0; i < kNodes; ++i) ptrs.push_back(&cluster.node(i));
  flux::InstanceConfig icfg;
  icfg.tbon_fanout = 2;
  flux::Instance instance(sim, std::move(ptrs), icfg);
  monitor::PowerMonitorConfig mcfg = monitor::PowerMonitorConfig::for_lassen();
  mcfg.archive_jobs = false;
  mcfg.delta_aggregation = delta;
  instance.load_module_on_all<monitor::PowerMonitorModule>(mcfg);
  std::vector<flux::Rank> ranks;
  for (int r = 0; r < kNodes; ++r) ranks.push_back(r);
  monitor::MonitorClient client(instance);

  // Bytes shipped at every broker's upward merge, and the interior subset
  // (every hop but the root's final client-facing serve — the root always
  // ships the full windowed answer, so the interior hops are where delta
  // vs full differ).
  auto merge_bytes = [&](bool interior_only) {
    double total = 0.0;
    for (int r = interior_only ? 1 : 0; r < kNodes; ++r) {
      total += instance.broker(r)
                   .metrics()
                   .value("fluxpower_monitor_merge_bytes_total")
                   .value_or(0.0);
    }
    return total;
  };
  auto query = [&] {
    client.query_window_blocking(ranks, sim.now() - 120.0, sim.now());
  };

  sim.run_until(180.0);
  query();  // delta resync: the first delta query ships everything retained
  const double bytes_before = merge_bytes(false);
  const double interior_before = merge_bytes(true);
  for (auto _ : state) {
    sim.run_until(sim.now() + 10.0);  // 5 fresh samples per node
    query();
  }
  const double queries = static_cast<double>(state.iterations());
  const double per_query = (merge_bytes(false) - bytes_before) / queries;
  const double interior = (merge_bytes(true) - interior_before) / queries;
  state.counters["merge_bytes_per_query"] = per_query;
  state.counters["interior_bytes_per_query"] = interior;
  state.counters["samples_per_query"] =
      per_query / static_cast<double>(sizeof(hwsim::PowerSample));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergeBytesPerQuery)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("delta")
    ->Unit(benchmark::kMillisecond);

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
