// Microbenchmarks across the stack: the typed telemetry data plane
// (sample → ring-buffer store → subtree aggregate, and a window query
// through the instance), Variorum JSON encode/decode at the edges, Flux
// RPC round-trip through the simulated TBON, and the simulator's raw event
// throughput. Together these justify the "low overhead" telemetry claim —
// a sample costs microseconds of host CPU against a 2 s period.
//
// Unless the caller passes its own --benchmark_out, results are also
// written to BENCH_stack.json (google-benchmark JSON format) so the perf
// trajectory is machine-readable run over run.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "flux/instance.hpp"
#include "flux/telemetry.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/client.hpp"
#include "monitor/power_monitor.hpp"
#include "util/ring_buffer.hpp"
#include "variorum/variorum.hpp"

using namespace fluxpower;

namespace {

// --- The sample → store → aggregate hot path ------------------------------
//
// Models one node-agent tick plus its share of a window aggregation, the
// loop the monitor runs every 2 s on every node: read the sensors, store
// the sample, and (amortized) contribute it to a TBON merge that the client
// consumes as typed data.

void BM_SampleStoreAggregateTyped(benchmark::State& state) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "lassen0");
  util::RingBuffer<hwsim::PowerSample> buffer(100000);
  double acc = 0.0;
  for (auto _ : state) {
    buffer.push(variorum::get_node_power_sample(node));   // sample + store
    flux::TelemetryNodeEntry entry;                       // TBON contribution
    entry.samples.push_back(buffer.back());
    acc += entry.samples.front().best_node_w();           // consumer read
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["per_sample_bytes"] =
      static_cast<double>(sizeof(hwsim::PowerSample));
}
BENCHMARK(BM_SampleStoreAggregateTyped);

// --- A full window query through the instance -----------------------------

void BM_MonitorWindowQueryTyped(benchmark::State& state) {
  const int nodes = 8;
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, nodes);
  std::vector<hwsim::Node*> ptrs;
  for (int i = 0; i < nodes; ++i) ptrs.push_back(&cluster.node(i));
  flux::Instance instance(sim, std::move(ptrs));
  instance.load_module_on_all<monitor::PowerMonitorModule>(
      monitor::PowerMonitorConfig::for_lassen());
  sim.run_until(200.0);  // fill the buffers with ~100 samples per node
  monitor::MonitorClient client(instance);
  std::vector<flux::Rank> ranks;
  for (int i = 0; i < nodes; ++i) ranks.push_back(i);
  for (auto _ : state) {
    auto window = client.query_window_blocking(ranks, 0.0, 200.0);
    benchmark::DoNotOptimize(window);
  }
  state.SetItemsProcessed(state.iterations() * nodes * 100);
}
BENCHMARK(BM_MonitorWindowQueryTyped);

// --- Edge costs: Variorum JSON render and parse ---------------------------

void BM_VariorumGetNodePowerJson(benchmark::State& state) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "lassen0");
  for (auto _ : state) {
    auto j = variorum::get_node_power_json(node);
    benchmark::DoNotOptimize(j);
  }
}
BENCHMARK(BM_VariorumGetNodePowerJson);

void BM_VariorumGetNodePowerSample(benchmark::State& state) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "lassen0");
  for (auto _ : state) {
    auto s = variorum::get_node_power_sample(node);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_VariorumGetNodePowerSample);

void BM_TelemetryJsonRoundTrip(benchmark::State& state) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "lassen0");
  const std::string text = variorum::get_node_power_json(node).dump();
  for (auto _ : state) {
    auto sample = variorum::parse_node_power_json(util::Json::parse(text));
    benchmark::DoNotOptimize(sample);
  }
}
BENCHMARK(BM_TelemetryJsonRoundTrip);

void BM_RingBufferPush(benchmark::State& state) {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "lassen0");
  util::RingBuffer<hwsim::PowerSample> buffer(100000);
  const hwsim::PowerSample sample = variorum::get_node_power_sample(node);
  for (auto _ : state) {
    buffer.push(sample);
    benchmark::DoNotOptimize(buffer);
  }
}
BENCHMARK(BM_RingBufferPush);

void BM_FluxRpcRoundTrip(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, nodes);
  std::vector<hwsim::Node*> ptrs;
  for (int i = 0; i < nodes; ++i) ptrs.push_back(&cluster.node(i));
  flux::Instance instance(sim, std::move(ptrs));
  const flux::Rank leaf = nodes - 1;
  instance.broker(leaf).register_service(
      "echo", [&](const flux::Message& req) {
        instance.broker(leaf).respond(req, util::Json::object());
      });
  for (auto _ : state) {
    bool done = false;
    instance.root().rpc(leaf, "echo", util::Json::object(),
                        [&](const flux::Message&) { done = true; });
    while (!done) sim.step();
  }
}
BENCHMARK(BM_FluxRpcRoundTrip)->Arg(8)->Arg(64)->Arg(256);

void BM_SimulationEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(static_cast<double>(i), [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_SimulationEventThroughput);

void BM_MonitorSampleSweep(benchmark::State& state) {
  // Cost of one node-agent sampling tick including the Variorum read and
  // buffer store, via 100 simulated seconds of sampling.
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, 1);
  std::vector<hwsim::Node*> ptrs{&cluster.node(0)};
  flux::Instance instance(sim, std::move(ptrs));
  instance.load_module_on_all<monitor::PowerMonitorModule>(
      monitor::PowerMonitorConfig::for_lassen());
  for (auto _ : state) {
    sim.run_until(sim.now() + 100.0);
  }
}
BENCHMARK(BM_MonitorSampleSweep);

}  // namespace

int main(int argc, char** argv) {
  // Default to machine-readable output alongside the console report, unless
  // the caller chose their own output file.
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_stack.json";
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
