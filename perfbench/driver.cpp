// driver.cpp — runs one benchmark workload at one seed in this process,
// checks its output, and prints the measurements as one JSON line.
//
//   perfbench_driver --workload <name> --seed <n>
//
// Workloads (README.md records why each was chosen and what it stresses):
//   federation-2w     run_site_ops: Lassen+Tioga+Grace, 14 simulated days,
//                     30 jobs/h at the daily peak, 14 kW, tariff-aware-dr.
//   whole-site-65k    fig2's whole-site row: 65,536 Lassen nodes, fanout 16,
//                     8 shards advanced by one thread.
//   capped-fpp-queue  64 Lassen nodes under a 76.8 kW bound with FPP node
//                     control, power-aware EASY, faults, and one monitor
//                     query per job after the run.
//
// The seed is the only input. It sets the job stream of federation-2w and
// the sensor noise (and, for capped-fpp-queue, the fault weather) of the
// other two. A check that fails is listed under "failures" and makes the
// exit code nonzero.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/workload.hpp"
#include "experiments/scenario.hpp"
#include "experiments/site_ops.hpp"
#include "monitor/client.hpp"
#include "taps.hpp"
#include "trace.hpp"
#include "twin/codec.hpp"
#include "util/json.hpp"

using namespace fluxpower;
using util::Json;

namespace {

using Clock = std::chrono::steady_clock;

// One thread advances all eight islands. On a shared 4-vCPU host the run
// time of one iteration spread 0.05 (interquartile range over median) with
// one worker, against 0.14 with two and 0.11 with three: every window
// waits for the slowest worker, so a stall on any one vCPU stalls the run.
constexpr int kWholeSiteWorkers = 1;
// Draws capped-fpp-queue's job queue (see build_capped_fpp).
constexpr std::uint64_t kQueueSeed = 42;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Canonical text of a run's result aggregates. Doubles are written in
/// hexfloat, so the digest pins every bit of every value.
class Digest {
 public:
  void num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a;", v);
    text_ += buf;
  }
  void count(std::int64_t v) {
    text_ += std::to_string(v);
    text_ += ';';
  }
  void str(std::string_view s) {
    text_ += s;
    text_ += ';';
  }
  /// FNV-1a 64 of the text, as 16 hex digits.
  std::string hex() const {
    twin::Digest64 h;
    h.update(text_.data(), text_.size());
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h.value()));
    return buf;
  }

 private:
  std::string text_;
};

struct Outcome {
  Digest digest;
  std::int64_t jobs = 0;
  std::int64_t jobs_incomplete = 0;
  std::vector<double> query_ms;
  std::int64_t queries_errored = 0;
  std::int64_t queries_partial = 0;
  std::vector<double> setup_s;  ///< build the stack and queue the input
  double advance_s = 0.0;  ///< host seconds of the calls that advance it
  double sim_s = 0.0;      ///< simulated seconds those calls covered
  int workers = 1;         ///< threads advancing the engine
};

// -- federation-2w -----------------------------------------------------------

experiments::SiteOpsConfig federation_config(std::uint64_t seed) {
  experiments::SiteOpsConfig cfg;  // default Lassen+Tioga+Grace trio
  cfg.workload.duration_s = 14.0 * 86400.0;
  cfg.workload.jobs_per_hour_peak = 30.0;
  cfg.workload.seed = seed;
  cfg.site_bound_w = 14000.0;
  cfg.site_policy = "tariff-aware-dr";
  cfg.seed = seed;
  return cfg;
}

Outcome run_federation(std::uint64_t seed) {
  Outcome out;
  const auto start = Clock::now();
  const experiments::SiteOpsResult r =
      experiments::run_site_ops(federation_config(seed));
  out.advance_s = since(start);
  out.sim_s = r.end_s;
  out.jobs = r.jobs_total;
  out.jobs_incomplete = r.jobs_total - r.jobs_completed;
  Digest& d = out.digest;
  d.count(r.jobs_total);
  d.count(r.jobs_deferred);
  d.count(r.jobs_started);
  d.count(r.jobs_completed);
  d.count(r.slo_met);
  d.num(r.energy_j);
  d.num(r.energy_cost_usd);
  d.num(r.cap_violation_min);
  d.num(r.peak_site_draw_w);
  d.num(r.avg_site_draw_w);
  d.count(r.rebalances);
  d.count(r.rounds_completed);
  d.count(static_cast<std::int64_t>(r.member_misses));
  d.num(r.end_s);
  for (const experiments::SiteMemberStats& m : r.members) {
    d.str(m.name);
    d.count(m.jobs);
    d.count(m.completed);
    d.num(m.energy_j);
  }
  return out;
}

/// run_site_ops builds and runs in one call, so its set-up cost is that
/// call with a one-second horizon: the whole stack and input queue are
/// built, and almost nothing is simulated.
double federation_setup_s(std::uint64_t seed) {
  experiments::SiteOpsConfig cfg = federation_config(seed);
  cfg.max_time_s = 1.0;
  const auto start = Clock::now();
  experiments::run_site_ops(cfg);
  return since(start);
}

// -- Scenario workloads -------------------------------------------------------

/// Advance to completion, then collect: Scenario::run split in its two
/// documented halves so the advancing part can be timed on its own.
experiments::ScenarioResult advance_and_finish(experiments::Scenario& s,
                                               double max_time_s,
                                               Outcome& out) {
  const auto start = Clock::now();
  s.advance_until(std::numeric_limits<double>::infinity(), max_time_s);
  out.advance_s = since(start);
  out.sim_s = s.engine() != nullptr ? s.engine()->now() : s.sim().now();
  return s.finish(max_time_s);
}

/// Digest the result aggregates and count the jobs that did not complete.
void record_result(const experiments::ScenarioResult& res, Outcome& out) {
  Digest& d = out.digest;
  for (const experiments::JobResult& j : res.jobs) {
    d.count(static_cast<std::int64_t>(j.id));
    d.str(j.app);
    d.count(j.nnodes);
    d.num(j.t_submit);
    d.num(j.t_start);
    d.num(j.t_end);
    d.num(j.runtime_s);
    d.num(j.avg_node_power_w);
    d.num(j.max_node_power_w);
    d.num(j.max_aggregate_power_w);
    d.num(j.avg_node_energy_j);
    d.count(j.telemetry_complete ? 1 : 0);
    d.num(j.exact_avg_node_energy_j);
    if (j.runtime_s < 0.0) ++out.jobs_incomplete;
  }
  out.jobs_incomplete +=
      out.jobs - static_cast<std::int64_t>(res.jobs.size());
  d.num(res.makespan_s);
  d.num(res.total_energy_j);
  d.num(res.max_cluster_power_w);
  d.num(res.avg_cluster_power_w);
  d.count(static_cast<std::int64_t>(res.cluster_timeline.size()));
}

std::unique_ptr<experiments::Scenario> build_whole_site(std::uint64_t seed) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 65536;
  cfg.tbon_fanout = 16;
  cfg.shards = 8;
  cfg.workers = kWholeSiteWorkers;
  cfg.seed = seed;
  monitor::PowerMonitorConfig mcfg = monitor::PowerMonitorConfig::for_lassen();
  mcfg.buffer_capacity = 16;
  mcfg.archive_jobs = false;
  cfg.monitor = mcfg;
  auto s = std::make_unique<experiments::Scenario>(cfg);
  experiments::JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 2048;
  gemm.work_scale = 0.5;
  s->submit(gemm);
  experiments::JobRequest lammps;
  lammps.kind = apps::AppKind::Lammps;
  lammps.nnodes = 1024;
  lammps.submit_time_s = 20.0;
  s->submit(lammps);
  experiments::JobRequest quicksilver;
  quicksilver.kind = apps::AppKind::Quicksilver;
  quicksilver.nnodes = 512;
  quicksilver.work_scale = 4.0;
  quicksilver.submit_time_s = 40.0;
  s->submit(quicksilver);
  return s;
}

Outcome run_whole_site(std::uint64_t seed) {
  Outcome out;
  const auto start = Clock::now();
  const std::unique_ptr<experiments::Scenario> s = build_whole_site(seed);
  out.setup_s.push_back(since(start));
  out.jobs = static_cast<std::int64_t>(s->submitted_jobs());
  out.workers = kWholeSiteWorkers;
  record_result(advance_and_finish(*s, 3600.0, out), out);
  return out;
}

std::unique_ptr<experiments::Scenario> build_capped_fpp(std::uint64_t seed) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 64;
  cfg.seed = seed;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 64 * 1200.0;
  cfg.manager.static_node_cap_w = 1950.0;
  cfg.manager.node_policy = manager::NodePolicy::Fpp;
  cfg.sched_policy = "power-aware-easy";
  faultsim::FaultPlaneConfig faults;
  faults.seed = seed;
  faults.cap_write_failure_rate = 0.02;
  faults.msg_drop_rate = 0.001;
  faults.sensor_dropout_rate = 0.01;
  cfg.faults = faults;
  auto s = std::make_unique<experiments::Scenario>(cfg);
  // One fixed queue of 100 jobs of the policy tournament's "mixed" kinds:
  // the seed moves fault weather and sensor noise, not the run's size.
  const std::vector<apps::AppKind> kinds = {
      apps::AppKind::Gemm,    apps::AppKind::Lammps, apps::AppKind::Quicksilver,
      apps::AppKind::Laghos,  apps::AppKind::Kripke, apps::AppKind::Sw4lite};
  const std::vector<apps::WorkloadJob> queue =
      apps::random_queue(kQueueSeed, 100, 16, kinds);
  double t = 0.0;
  for (const apps::WorkloadJob& job : queue) {
    t += job.submit_delay_s;
    experiments::JobRequest req;
    req.kind = job.kind;
    req.nnodes = job.nnodes;
    req.work_scale = job.work_scale;
    req.submit_time_s = t;
    s->submit(req);
  }
  return s;
}

Outcome run_capped_fpp(std::uint64_t seed) {
  Outcome out;
  const auto start = Clock::now();
  const std::unique_ptr<experiments::Scenario> s = build_capped_fpp(seed);
  out.setup_s.push_back(since(start));
  out.jobs = static_cast<std::int64_t>(s->submitted_jobs());

  const experiments::ScenarioResult res = advance_and_finish(*s, 86400.0, out);
  record_result(res, out);

  // The monitor's read path: one blocking query per job, as an operator's
  // client would issue after the queue drained.
  monitor::MonitorClient client(s->instance());
  for (const experiments::JobResult& j : res.jobs) {
    const auto q_start = Clock::now();
    const std::optional<monitor::JobPowerData> data = client.query_blocking(j.id);
    out.query_ms.push_back(since(q_start) * 1e3);
    if (!data) {
      ++out.queries_errored;
      out.digest.str("query-error");
      continue;
    }
    std::size_t samples = 0;
    bool partial = false;
    for (const monitor::NodePowerData& n : data->nodes) {
      samples += n.samples.size();
      partial = partial || !n.complete || n.errored;
    }
    if (partial) ++out.queries_partial;
    out.digest.count(static_cast<std::int64_t>(data->responding_nodes()));
    out.digest.count(static_cast<std::int64_t>(samples));
    out.digest.num(data->average_node_power_w());
    out.digest.num(data->average_node_energy_j());
  }
  return out;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

Json counts_json(const perfbench::LayerCounts& c) {
  Json j = Json::object();
  j["sim.events"] = c.events;
  j["sim.callback_heap_allocs"] = c.callback_heap_allocs;
  j["sim.windows"] = c.windows;
  j["sim.cross_island_posts"] = c.cross_island_posts;
  j["flux.messages_routed"] = c.messages_routed;
  j["flux.rpc_timeouts"] = c.rpc_timeouts;
  j["monitor.samples"] = c.monitor_samples;
  j["monitor.sensor_failures"] = c.monitor_sensor_failures;
  j["monitor.merge_bytes"] = c.monitor_merge_bytes;
  j["manager.limit_pushes"] = c.limit_pushes;
  j["manager.cap_retries"] = c.cap_retries;
  j["manager.quarantine_events"] = c.quarantine_events;
  j["sched.decisions"] = c.sched_decisions;
  j["sched.starts"] = c.sched_starts;
  j["sched.holds"] = c.sched_holds;
  j["sched.skips"] = c.sched_skips;
  j["faultsim.injected"] = c.faults_injected;
  return j;
}

/// Time one more set-up of a Scenario workload; its teardown is not timed.
template <std::unique_ptr<experiments::Scenario> (*Build)(std::uint64_t)>
double scenario_setup_s(std::uint64_t seed) {
  const auto start = Clock::now();
  const std::unique_ptr<experiments::Scenario> s = Build(seed);
  return since(start);
}

struct Workload {
  const char* name;
  Outcome (*run)(std::uint64_t seed);
  double (*setup_once)(std::uint64_t seed);  ///< one more timed set-up
  bool sharded;    ///< runs on a ShardedEngine
  bool monitored;  ///< loads the power monitor
};

constexpr Workload kWorkloads[] = {
    {"federation-2w", run_federation, federation_setup_s, false, false},
    {"whole-site-65k", run_whole_site, scenario_setup_s<build_whole_site>, true,
     true},
    {"capped-fpp-queue", run_capped_fpp, scenario_setup_s<build_capped_fpp>,
     false, true},
};

/// Counts every run of `w` must make nonzero. A 0 here means a teardown tap
/// or a counter went silent, and the ledgers would then hold as 0 == 0.
std::vector<std::string> silent_counts(const perfbench::LayerCounts& c,
                                       const Workload& w) {
  std::vector<std::pair<std::string, std::uint64_t>> need = {
      {"Simulation teardowns", c.simulations_torn_down},
      {"flux::Instance teardowns", c.instances_torn_down},
      {"sim.events", c.events},
      {"flux.messages_routed", c.messages_routed},
      {"sched.decisions", c.sched_decisions}};
  if (w.sharded) need.emplace_back("ShardedEngine teardowns", c.engines_torn_down);
  if (w.monitored) need.emplace_back("monitor.samples", c.monitor_samples);
  std::vector<std::string> out;
  for (const auto& [name, value] : need) {
    if (value == 0) out.push_back("count is 0: " + name);
  }
  return out;
}

// Set-up is timed again until the samples add up to kSetupBudgetS, and the
// median is reported: the millisecond set-ups get a few hundred samples,
// the 65k-node one keeps the run's own.
constexpr double kSetupBudgetS = 0.25;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "<federation-2w|whole-site-65k|capped-fpp-queue> --seed <n>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--workload") == 0) {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(argv[i + 1], w.name) == 0) workload = &w;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      char* end = nullptr;
      seed = std::strtoull(argv[i + 1], &end, 10);
      have_seed = end != argv[i + 1] && *end == '\0';
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || workload == nullptr || !have_seed) return usage();

  Outcome out;
  try {
    out = workload->run(seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n", workload->name,
                 e.what());
    return 1;
  }

  // Every engine and instance of the run has been destroyed by now, and
  // the teardown taps have read their counters on the way out.
  const perfbench::LayerCounts counts = perfbench::torn_down_counts();
  Json trace = perfbench::trace_report(workload->name);

  Json failures = Json::array();
  if (out.jobs_incomplete > 0) {
    failures.push_back(std::to_string(out.jobs_incomplete) + " of " +
                       std::to_string(out.jobs) + " jobs did not complete");
  }
  for (const std::string& v : silent_counts(counts, *workload)) {
    failures.push_back(v);
  }
  for (const std::string& v : perfbench::ledger_violations(counts)) {
    failures.push_back(v);
  }
  if (perfbench::tracing()) {
    for (const Json& name : trace.at("unexercised").as_array()) {
      failures.push_back("wrapped entry point recorded no call: " +
                         name.as_string());
    }
    for (const Json& name : trace.at("unexpected").as_array()) {
      failures.push_back("wrapped entry point called on a workload that "
                         "should bypass it: " + name.as_string());
    }
    // Worker time outside Simulation::run_before: waiting at barriers,
    // draining mailboxes, opening windows.
    trace["barrier_wait_s"] =
        workload->sharded ? out.workers * out.advance_s -
                                trace.at("run_before_s").as_double()
                          : 0.0;
  }

  const double wall_s = since(process_start);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                       1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  try {
    double total = 0.0;
    for (double t : out.setup_s) total += t;
    while (total < kSetupBudgetS) {
      out.setup_s.push_back(workload->setup_once(seed));
      total += out.setup_s.back();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s set-up: %s\n", workload->name,
                 e.what());
    return 1;
  }

  const std::size_t queries = out.query_ms.size();
  Json j = Json::object();
  j["workload"] = workload->name;
  j["seed"] = seed;
  j["digest"] = out.digest.hex();
  j["failures"] = failures;
  j["jobs"] = out.jobs;
  j["jobs_incomplete"] = out.jobs_incomplete;
  j["queries"] = queries;
  j["queries_errored"] = out.queries_errored;
  j["queries_partial"] = out.queries_partial;
  j["query_p50_ms"] = percentile(out.query_ms, 0.50);
  j["query_p90_ms"] = percentile(out.query_ms, 0.90);
  j["wall_s"] = wall_s;
  j["setup_s"] = percentile(out.setup_s, 0.50);
  j["advance_s"] = out.advance_s;
  j["sim_s"] = out.sim_s;
  j["cpu_s"] = cpu_s;
  j["peak_rss_mb"] = peak_rss_mb;
  j["counts"] = counts_json(counts);
  j["trace"] = std::move(trace);
  std::printf("%s\n", j.dump().c_str());
  return failures.as_array().empty() ? 0 : 3;
}
