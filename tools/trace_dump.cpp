// trace_dump — run a scenario with the observability plane enabled and dump
// the cluster-wide metrics exposition plus a Chrome trace-event JSON file.
//
// The trace loads directly in https://ui.perfetto.dev (or chrome://tracing):
// one row per rank, RPC spans, sensor sweeps, fault instants. The metrics
// file is the `power.metrics` TBON aggregate rendered as Prometheus text,
// followed by the process-scope engine gauges.
//
//   trace_dump --nodes 128 --fanout 4 --seconds 300 \
//              --metrics metrics.prom --trace trace.json --check-ledger
//
// --check-ledger asserts the monitor's no-double-count invariant from the
// exposed metrics alone: samples == evicted + size + sensor_failures,
// summed over every node. Exit status 1 on violation — CI runs this.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "experiments/scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/sim_metrics.hpp"
#include "obs/trace.hpp"
#include "parse_number.hpp"

using namespace fluxpower;

[[noreturn]] void tools::usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(
      stderr,
      "usage: %s [--nodes N] [--fanout F] [--platform lassen|tioga]\n"
      "          [--seconds S] [--seed N] [--shards N] [--metrics PATH]\n"
      "          [--trace PATH] [--check-ledger] [--faults]\n",
      argv0);
  std::exit(2);
}

namespace {

using tools::parse_number;
using tools::usage;

struct Options {
  int nodes = 16;
  int fanout = 2;
  hwsim::Platform platform = hwsim::Platform::LassenIbmAc922;
  double seconds = 240.0;
  std::uint64_t seed = 42;
  int shards = 0;
  std::string metrics_path;
  std::string trace_path;
  bool check_ledger = false;
  bool faults = false;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], arg + " needs a value");
      return argv[++i];
    };
    auto number = [&]<typename T>(T& out) {
      out = parse_number<T>(arg, next(), argv[0]);
    };
    if (arg == "--nodes") {
      number(opt.nodes);
    } else if (arg == "--fanout") {
      number(opt.fanout);
    } else if (arg == "--platform") {
      const std::string v = next();
      if (v == "lassen") {
        opt.platform = hwsim::Platform::LassenIbmAc922;
      } else if (v == "tioga") {
        opt.platform = hwsim::Platform::TiogaCrayEx235a;
      } else {
        usage(argv[0], "unknown platform " + v);
      }
    } else if (arg == "--seconds") {
      number(opt.seconds);
    } else if (arg == "--seed") {
      number(opt.seed);
    } else if (arg == "--shards") {
      number(opt.shards);
    } else if (arg == "--metrics") {
      opt.metrics_path = next();
    } else if (arg == "--trace") {
      opt.trace_path = next();
    } else if (arg == "--check-ledger") {
      opt.check_ledger = true;
    } else if (arg == "--faults") {
      opt.faults = true;
    } else {
      usage(argv[0], "unknown option " + arg);
    }
  }
  if (opt.nodes <= 0) usage(argv[0], "--nodes must be positive");
  if (opt.fanout <= 1) usage(argv[0], "--fanout must be at least 2");
  if (!(opt.seconds > 0.0) || !std::isfinite(opt.seconds)) {
    usage(argv[0], "--seconds must be positive and finite");
  }
  if (opt.shards < 0) usage(argv[0], "--shards must not be negative");
  return opt;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "trace_dump: cannot open %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  obs::process_trace().set_enabled(true);

  experiments::ScenarioConfig cfg;
  cfg.platform = opt.platform;
  cfg.nodes = opt.nodes;
  cfg.tbon_fanout = opt.fanout;
  cfg.load_monitor = true;
  cfg.load_manager = true;
  cfg.seed = opt.seed;
  cfg.shards = opt.shards;
  cfg.workers = opt.shards;
  if (opt.faults) {
    faultsim::FaultPlaneConfig faults;
    faults.seed = opt.seed;
    faults.msg_drop_rate = 0.01;
    faults.sensor_dropout_rate = 0.02;
    faults.cap_write_failure_rate = 0.05;
    cfg.faults = faults;
  }

  experiments::Scenario scenario(cfg);
  // A small mixed workload long enough to exercise sampling, allocation,
  // capping and the TBON query path. Work scales with the requested
  // duration so --seconds bounds the run.
  const double scale = opt.seconds / 240.0;
  scenario.submit({.kind = apps::AppKind::Gemm,
                   .nnodes = std::max(1, opt.nodes / 2),
                   .work_scale = scale,
                   .submit_time_s = 0.0});
  scenario.submit({.kind = apps::AppKind::Lammps,
                   .nnodes = std::max(1, opt.nodes / 4),
                   .work_scale = scale,
                   .submit_time_s = 10.0});
  scenario.run(opt.seconds * 100.0);

  // Cluster-wide aggregation over the TBON, then drain the queue so the
  // recursive merge completes before we read the result.
  obs::MetricsRegistry aggregate;
  std::int64_t responding_nodes = 0;
  bool responded = false;
  flux::Broker& root = scenario.instance().broker(0);
  root.rpc(0, monitor::kMetricsTopic, util::Json::object(),
           [&](const flux::Message& resp) {
             if (resp.is_error()) return;
             aggregate.merge_json(resp.payload.at("metrics"));
             responding_nodes = resp.payload.int_or("nodes", 0);
             responded = true;
           },
           /*timeout_s=*/60.0);
  // Bounded drain: periodic monitor tasks keep the queue non-empty forever,
  // so run to a horizon rather than to exhaustion. Under the sharded
  // engine the drain must advance every island (the reply hops cross
  // cell boundaries), not just island 0.
  if (sim::ShardedEngine* engine = scenario.engine()) {
    engine->advance_until(engine->now() + 120.0);
  } else {
    scenario.sim().run_until(scenario.sim().now() + 120.0);
  }
  if (!responded) {
    std::fprintf(stderr, "trace_dump: power.metrics aggregation failed\n");
    return 1;
  }

  if (sim::ShardedEngine* engine = scenario.engine()) {
    obs::export_engine_gauges(*engine, obs::process_registry());
  } else {
    obs::export_engine_gauges(scenario.sim(), obs::process_registry());
  }
  const std::string metrics_text =
      aggregate.expose_text() + obs::process_registry().expose_text();
  if (!opt.metrics_path.empty() && !write_file(opt.metrics_path, metrics_text)) {
    return 1;
  }
  if (!opt.trace_path.empty() &&
      !write_file(opt.trace_path,
                  obs::process_trace().to_chrome_json().dump(2))) {
    return 1;
  }

  std::printf("trace_dump: %lld/%d nodes, %zu metrics, %zu trace events "
              "(%llu dropped)\n",
              static_cast<long long>(responding_nodes), opt.nodes,
              aggregate.size(), obs::process_trace().size(),
              static_cast<unsigned long long>(obs::process_trace().dropped()));

  if (opt.check_ledger) {
    const double samples =
        aggregate.value("fluxpower_monitor_samples_total").value_or(-1.0);
    const double evicted =
        aggregate.value("fluxpower_monitor_buffer_evicted_total").value_or(0.0);
    const double size =
        aggregate.value("fluxpower_monitor_buffer_size").value_or(0.0);
    const double failures =
        aggregate.value("fluxpower_monitor_sensor_failures_total")
            .value_or(0.0);
    if (samples < 0.0 || samples != evicted + size + failures) {
      std::fprintf(stderr,
                   "trace_dump: LEDGER VIOLATION: samples=%.0f != "
                   "evicted=%.0f + size=%.0f + failures=%.0f\n",
                   samples, evicted, size, failures);
      return 1;
    }
    std::printf("trace_dump: ledger identity holds: %.0f == %.0f + %.0f + "
                "%.0f\n",
                samples, evicted, size, failures);

    // Policy-plane decision ledger: every queue-scan verdict is exactly one
    // of start / hold / skip, so the counters must tie out. The instruments
    // live in the root broker's registry, which the TBON aggregate merges.
    const double decisions =
        aggregate.value("fluxpower_policy_sched_decisions_total")
            .value_or(-1.0);
    const double starts =
        aggregate.value("fluxpower_policy_sched_starts_total").value_or(0.0);
    const double holds =
        aggregate.value("fluxpower_policy_sched_holds_total").value_or(0.0);
    const double skips =
        aggregate.value("fluxpower_policy_sched_skips_total").value_or(0.0);
    if (decisions < 0.0 || decisions != starts + holds + skips) {
      std::fprintf(stderr,
                   "trace_dump: POLICY LEDGER VIOLATION: decisions=%.0f != "
                   "starts=%.0f + holds=%.0f + skips=%.0f\n",
                   decisions, starts, holds, skips);
      return 1;
    }
    std::printf(
        "trace_dump: policy ledger holds: %.0f == %.0f + %.0f + %.0f\n",
        decisions, starts, holds, skips);
  }
  return 0;
}
