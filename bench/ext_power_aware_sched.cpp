// Extension: power-aware job scheduling (the paper's future-work direction
// — power-performance optimization in hardware-overprovisioned clusters,
// citing Patki'13 / Sakamoto'17).
//
// Two ways to live under a cluster power bound:
//   (a) FCFS + proportional sharing — admit by nodes, then throttle every
//       running job so the bound holds (the paper's §IV-D approach);
//   (b) PowerAware admission — only start a job when its *peak power
//       estimate* fits in the remaining budget; admitted jobs then run at
//       full speed with the proportional-sharing manager as a safety net.
//
// The trade: (b) queues jobs longer but never throttles them; (a) starts
// jobs earlier but slows compute-bound ones. We compare makespan, mean job
// slowdown vs unconstrained, energy, and peak power on the paper's queue.
#include <iostream>
#include <map>

#include "bench/common.hpp"
#include "experiments/scenario.hpp"
#include "util/stats.hpp"

using namespace fluxpower;
using namespace fluxpower::experiments;

namespace {

struct Outcome {
  double makespan_s = 0.0;
  double peak_kw = 0.0;
  double energy_mj = 0.0;
  double mean_slowdown = 0.0;  ///< runtime / unconstrained runtime
  double mean_wait_s = 0.0;
};

Outcome run(const char* sched, bool constrained,
            const std::map<std::uint64_t, double>& baseline_runtimes,
            std::map<std::uint64_t, double>* record_runtimes) {
  ScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.load_manager = true;
  if (constrained) {
    cfg.manager.cluster_power_bound_w = 16 * 1100.0;  // tight bound
    cfg.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  }
  Scenario s(cfg);
  s.instance().scheduler().set_policy(sched);

  double t = 0.0;
  std::uint64_t key = 0;
  std::map<flux::JobId, std::uint64_t> keys;
  for (const apps::WorkloadJob& job : apps::paper_queue(2024)) {
    t += job.submit_delay_s;
    JobRequest req;
    req.kind = job.kind;
    req.nnodes = job.nnodes;
    req.work_scale = job.work_scale;
    req.submit_time_s = t;
    keys[s.submit(req)] = key++;
  }
  ScenarioResult res = s.run();

  Outcome out;
  out.makespan_s = res.makespan_s;
  out.peak_kw = res.max_cluster_power_w / 1e3;
  out.energy_mj = res.total_energy_j / 1e6;
  util::RunningStats slow, wait;
  for (const JobResult& j : res.jobs) {
    const std::uint64_t k = keys.at(j.id);
    if (record_runtimes) (*record_runtimes)[k] = j.runtime_s;
    if (!baseline_runtimes.empty()) {
      slow.add(j.runtime_s / baseline_runtimes.at(k));
    }
    wait.add(j.t_start - j.t_submit);
  }
  out.mean_slowdown = slow.count() ? slow.mean() : 1.0;
  out.mean_wait_s = wait.mean();
  return out;
}

}  // namespace

int main() {
  bench::banner("Extension",
                "power-aware admission vs throttled FCFS under a 17.6 kW "
                "bound (paper queue, 16 nodes)");

  // Unconstrained baseline provides per-job reference runtimes.
  std::map<std::uint64_t, double> baseline;
  const Outcome unc = run("fcfs", false, {}, &baseline);

  const Outcome fcfs = run("fcfs", true, baseline, nullptr);
  const Outcome paware = run("power-aware", true, baseline, nullptr);

  util::TextTable table({"scheduler", "makespan s", "peak kW", "energy MJ",
                         "mean slowdown", "mean wait s"});
  table.add_row({"FCFS, unconstrained", bench::num(unc.makespan_s, 0),
                 bench::num(unc.peak_kw, 2), bench::num(unc.energy_mj, 2),
                 "1.00", bench::num(unc.mean_wait_s, 0)});
  table.add_row({"FCFS + prop sharing", bench::num(fcfs.makespan_s, 0),
                 bench::num(fcfs.peak_kw, 2), bench::num(fcfs.energy_mj, 2),
                 bench::num(fcfs.mean_slowdown, 3),
                 bench::num(fcfs.mean_wait_s, 0)});
  table.add_row({"PowerAware admission", bench::num(paware.makespan_s, 0),
                 bench::num(paware.peak_kw, 2), bench::num(paware.energy_mj, 2),
                 bench::num(paware.mean_slowdown, 3),
                 bench::num(paware.mean_wait_s, 0)});
  table.print(std::cout);
  bench::note(
      "expected shape: power-aware admission keeps per-job slowdown near "
      "1.0 and the peak under the bound by construction, at the cost of "
      "longer waits; throttled FCFS starts jobs sooner but slows "
      "compute-bound ones. Which wins on makespan depends on the queue's "
      "power mix — this harness is the tool for exploring exactly that.");
  return 0;
}
