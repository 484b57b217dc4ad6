// Microbenchmarks for the discrete-event engine, the throughput ceiling of
// every experiment in this repository (2 s monitor sweeps on every node,
// TBON message delivery, cap-latency callbacks, app-runtime steps all
// funnel through sim::Simulation).
//
// Four workloads, in events/s:
//   * schedule-fire    — one-shot events scheduled then drained
//   * schedule-cancel  — half the scheduled events cancelled before firing
//   * periodic re-arm  — steady-state PeriodicTask firing (the monitor-sweep
//                        shape); also reports heap allocations per event via
//                        a bench-local operator-new counter
//   * mixed stack      — cluster + TBON instance + power monitor on every
//                        broker + broadcast traffic at 128/1k/8k nodes
//
// The seed engine's numbers, measured against an in-binary replica that
// has since been removed, are recorded in EXPERIMENTS.md.
//
// Unless the caller passes its own --benchmark_out, results are written to
// BENCH_sim.json (google-benchmark JSON format).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "flux/instance.hpp"
#include "flux/tbon.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/power_monitor.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulation.hpp"
#include "util/json.hpp"

// --- Allocation counter ----------------------------------------------------
//
// Counts every operator-new in the process. Benches snapshot the counter
// around the timed region to report allocations per event; the acceptance
// gate for the pooled engine is zero on the periodic re-arm path.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

using namespace fluxpower;

namespace {

// --- Schedule-fire: the raw one-shot event cycle ---------------------------
//
// Delays cycle through [0, 16 s) in 0.25 s steps so the runs exercise both
// the timer-wheel near buckets and ordinary in-epoch placement.

void BM_ScheduleFire_Pooled(benchmark::State& state) {
  constexpr int kBatch = 4096;
  sim::Simulation sim;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      sim.schedule_after(0.25 * static_cast<double>(i % 64),
                         [&sink] { ++sink; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ScheduleFire_Pooled);

// --- Schedule-cancel: module unload / RPC-timeout churn --------------------

void BM_ScheduleCancel_Pooled(benchmark::State& state) {
  constexpr int kBatch = 4096;
  sim::Simulation sim;
  std::vector<std::uint64_t> ids(kBatch);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      ids[static_cast<std::size_t>(i)] = sim.schedule_after(
          0.25 * static_cast<double>(i % 64), [&sink] { ++sink; });
    }
    for (int i = 0; i < kBatch; i += 2) {
      sim.cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_ScheduleCancel_Pooled);

// --- Periodic re-arm: the monitor-sweep shape ------------------------------
//
// 64 tasks at the monitor's 2 s period, run in steady state. Reports heap
// allocations per fired event; the pooled engine's re-arm path must be zero
// once the wheel/pool reach steady-state capacity.

void BM_PeriodicRearm_Pooled(benchmark::State& state) {
  constexpr int kTasks = 64;
  constexpr double kPeriod = 2.0;
  constexpr double kWindow = 64 * kPeriod;
  // The pooled engine's wheel epoch is 1024 s: first touch of each bucket
  // grows its vector once. Warm past a full epoch so the measured region
  // sees only recycled capacity.
  constexpr double kWarmup = 1536.0;
  sim::Simulation sim;
  std::uint64_t fired = 0;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks;
  tasks.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(
        std::make_unique<sim::PeriodicTask>(sim, kPeriod, [&fired] {
          ++fired;
          return true;
        }));
  }
  sim.run_until(sim.now() + kWarmup);  // warm up pool/wheel/map capacity
  const std::uint64_t fired_before = fired;
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    sim.run_until(sim.now() + kWindow);
  }
  const std::uint64_t events = fired - fired_before;
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["heap_allocs_per_event"] =
      events == 0 ? 0.0
                  : static_cast<double>(allocs) / static_cast<double>(events);
}
BENCHMARK(BM_PeriodicRearm_Pooled);

// --- Mixed whole-stack workload --------------------------------------------
//
// The cluster-scale shape every experiment runs: N nodes, one broker each in
// the TBON, the power monitor sampling every 2 s on every broker, and a
// 10 s broadcast heartbeat fanning a delivery event to all N brokers. The
// metric is simulator events per second of host time. Seed-engine numbers
// for this bench are recorded in EXPERIMENTS.md ("Event engine" section).

void BM_MixedStack(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, nodes);
  std::vector<hwsim::Node*> ptrs;
  ptrs.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) ptrs.push_back(&cluster.node(i));
  flux::Instance instance(sim, std::move(ptrs));
  monitor::PowerMonitorConfig config = monitor::PowerMonitorConfig::for_lassen();
  config.buffer_capacity = 256;  // bound resident memory at 8k nodes
  config.archive_jobs = false;
  instance.load_module_on_all<monitor::PowerMonitorModule>(config);
  sim::PeriodicTask heartbeat(sim, 10.0, [&] {
    instance.root().publish_event("bench.heartbeat", util::Json::object());
    return true;
  });
  sim.run_until(20.0);  // fill buffers/wheel to steady state
  std::uint64_t executed_before = sim.events_executed();
  for (auto _ : state) {
    sim.run_until(sim.now() + 20.0);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.events_executed() - executed_before));
}
BENCHMARK(BM_MixedStack)->Arg(128)->Arg(1024)->Arg(8192)
    ->Unit(benchmark::kMillisecond);

// --- Sharded whole-stack workload ------------------------------------------
//
// The same cluster + TBON + monitor + heartbeat shape, but run on the
// sharded engine: fanout-16 TBON, the 16 root cells dealt round-robin over
// `shards` islands advanced by `shards` worker threads under the
// conservative window barrier. Counters per row:
//   events_per_sec               — whole-stack simulator throughput
//   events_per_sec_per_core      — normalized by the worker count (the flat
//                                  line that shows barrier overhead stays
//                                  bounded as shards grow)
//   scaling_efficiency_vs_1shard — evps(S) / (S * evps(1)); 1.0 is perfect
//                                  linear scaling (needs >= S hardware cores
//                                  to be meaningful)
//   windows / cross_island_posts — conservative-barrier work volume
// Args: (nodes, shards). The 65536-node rows are the whole-site scale the
// paper's production argument targets; CI's bench-smoke lane runs one.

void BM_ShardedStack(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  flux::InstanceConfig icfg;
  icfg.tbon_fanout = 16;  // 16 root cells: shard counts 1/2/4/8 divide evenly
  const flux::Tbon tbon(nodes, icfg.tbon_fanout);
  const std::vector<flux::Rank> cells = tbon.children(0);
  const int islands = std::min<int>(shards, static_cast<int>(cells.size()));
  std::vector<int> island_of(static_cast<std::size_t>(nodes), 0);
  for (std::size_t j = 0; j < cells.size(); ++j) {
    for (flux::Rank r : tbon.subtree(cells[j])) {
      island_of[static_cast<std::size_t>(r)] = static_cast<int>(j) % islands;
    }
  }
  sim::ShardedEngine engine(islands, shards, icfg.hop_latency_s);
  hwsim::Cluster cluster = hwsim::make_cluster(
      [&](int r) -> sim::Simulation& {
        return engine.island(island_of[static_cast<std::size_t>(r)]);
      },
      hwsim::Platform::LassenIbmAc922, nodes);
  std::vector<hwsim::Node*> ptrs;
  ptrs.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) ptrs.push_back(&cluster.node(i));
  flux::Instance instance(engine, island_of, std::move(ptrs), icfg);
  monitor::PowerMonitorConfig config = monitor::PowerMonitorConfig::for_lassen();
  config.buffer_capacity = nodes >= 65536 ? 16 : 256;  // bound memory
  config.archive_jobs = false;
  instance.load_module_on_all<monitor::PowerMonitorModule>(config);
  sim::PeriodicTask heartbeat(engine.island(0), 10.0, [&] {
    instance.root().publish_event("bench.heartbeat", util::Json::object());
    return true;
  });
  engine.advance_until(20.0);  // fill buffers/wheels to steady state
  const std::uint64_t executed_before = engine.total_events_executed();
  const std::uint64_t windows_before = engine.windows_executed();
  const std::uint64_t posts_before = engine.posts_delivered();
  double elapsed_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    engine.advance_until(engine.now() + 20.0);
    elapsed_s +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  const std::uint64_t events = engine.total_events_executed() - executed_before;
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  const double evps =
      elapsed_s > 0.0 ? static_cast<double>(events) / elapsed_s : 0.0;
  // shards=1 rows run first for each node count, so the baseline is always
  // present when the multi-shard rows compute their efficiency.
  static std::map<int, double> baseline_evps;
  if (shards == 1) baseline_evps[nodes] = evps;
  state.counters["events_per_sec"] = evps;
  state.counters["events_per_sec_per_core"] =
      evps / static_cast<double>(shards);
  const auto base = baseline_evps.find(nodes);
  state.counters["scaling_efficiency_vs_1shard"] =
      (base != baseline_evps.end() && base->second > 0.0)
          ? evps / (static_cast<double>(shards) * base->second)
          : 0.0;
  const double iters = static_cast<double>(std::max<std::int64_t>(
      static_cast<std::int64_t>(state.iterations()), 1));
  state.counters["windows_per_iter"] =
      static_cast<double>(engine.windows_executed() - windows_before) / iters;
  state.counters["cross_island_posts_per_iter"] =
      static_cast<double>(engine.posts_delivered() - posts_before) / iters;
}
BENCHMARK(BM_ShardedStack)
    ->Args({8192, 1})->Args({8192, 2})->Args({8192, 4})->Args({8192, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ShardedStack)
    ->Args({65536, 1})->Args({65536, 2})->Args({65536, 4})->Args({65536, 8})
    ->Iterations(1)
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
  std::string out_flag = "--benchmark_out=BENCH_sim.json";
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
