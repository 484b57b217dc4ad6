// job_queue_policies — comparing power policies on a realistic job queue.
//
// Reproduces the §IV-E experiment shape interactively: the paper's 10-job
// mix (3 Laghos, 2 Quicksilver, 3 LAMMPS, 2 GEMM; 1-8 nodes each) on a
// 16-node allocation, run under three power policies and two scheduling
// policies. Demonstrates:
//   * the workload generator (deterministic per seed);
//   * per-job results from the monitor;
//   * that power policy choice does not disturb the makespan while
//     shifting energy (the paper's finding);
//   * FCFS vs conservative backfill as a scheduling ablation.
//
// Build & run:  ./build/examples/job_queue_policies
#include <cstdio>
#include <iostream>

#include "experiments/scenario.hpp"
#include "util/table.hpp"

using namespace fluxpower;
using namespace fluxpower::experiments;

namespace {

struct Setup {
  const char* label;
  manager::NodePolicy policy;
  bool constrained;
  const char* sched;  ///< scheduler policy name
};

void run_setup(const Setup& setup, std::uint64_t seed, bool print_jobs) {
  ScenarioConfig cfg;
  cfg.nodes = 16;
  cfg.load_manager = true;
  if (setup.constrained) {
    cfg.manager.cluster_power_bound_w = 16 * 1200.0;
    cfg.manager.static_node_cap_w = 1950.0;
  }
  cfg.manager.node_policy = setup.policy;
  cfg.seed = seed;
  Scenario s(cfg);
  s.instance().scheduler().set_policy(setup.sched);

  double t = 0.0;
  for (const apps::WorkloadJob& job : apps::paper_queue(seed)) {
    t += job.submit_delay_s;
    JobRequest req;
    req.kind = job.kind;
    req.nnodes = job.nnodes;
    req.work_scale = job.work_scale;
    req.submit_time_s = t;
    s.submit(req);
  }
  ScenarioResult res = s.run();

  double energy_kj = 0.0;
  for (const JobResult& j : res.jobs) energy_kj += j.exact_avg_node_energy_j / 1e3;
  std::printf("%-34s makespan %6.0f s | avg job energy %6.1f kJ/node | cluster %5.2f MJ\n",
              setup.label, res.makespan_s, energy_kj / res.jobs.size(),
              res.total_energy_j / 1e6);

  if (print_jobs) {
    util::TextTable table({"job", "app", "nodes", "wait s", "run s",
                           "kJ/node"});
    for (const JobResult& j : res.jobs) {
      table.add_row({std::to_string(j.id), j.app, std::to_string(j.nnodes),
                     util::TextTable::num(j.t_start - j.t_submit, 0),
                     util::TextTable::num(j.runtime_s, 0),
                     util::TextTable::num(j.exact_avg_node_energy_j / 1e3, 0)});
    }
    table.print(std::cout);
  }
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 2024;
  std::printf("10-job queue (paper §IV-E mix) on a 16-node allocation\n\n");

  // Detailed view of the queue once, under proportional sharing.
  run_setup({"prop sharing + FCFS (detail)", manager::NodePolicy::DirectGpuBudget,
             true, "fcfs"},
            kSeed, /*print_jobs=*/true);
  std::printf("\npolicy comparison (same queue, same seed):\n");
  run_setup({"  unconstrained, FCFS", manager::NodePolicy::None, false,
             "fcfs"},
            kSeed, false);
  run_setup({"  prop sharing, FCFS", manager::NodePolicy::DirectGpuBudget, true,
             "fcfs"},
            kSeed, false);
  run_setup({"  FPP, FCFS", manager::NodePolicy::Fpp, true, "fcfs"}, kSeed,
            false);
  run_setup({"  prop sharing, backfill", manager::NodePolicy::DirectGpuBudget,
             true, "easy-backfill"},
            kSeed, false);
  std::printf(
      "\npaper finding: prop sharing and FPP leave the makespan unchanged "
      "(1539 s) while FPP trims ~1.26%% energy per job.\n");
  return 0;
}
