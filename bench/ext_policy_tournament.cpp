// Extension: policy tournament over the policy plane.
//
// Every scheduler policy is picked by name (policy::make_sched_policy) and
// every node policy through its plugin, so this bench doubles as the
// plane's end-to-end exercise: 8 policy configurations (3 legacy scheduler
// policies, power-aware EASY, eco-mode, the PI degradation-bound node
// controller, plus FPP and progress node-policy combinations) scored on
// the three ext_queue_mixes archetypes under the same 16-node / 19.2 kW
// setup. Four scores per run:
//   * makespan — queue completion time;
//   * energy — exact meter joules;
//   * overshoot — cap-violation watt-seconds: sum over the 2 s cluster
//     timeline of max(0, draw - bound) * dt (how badly the bound leaked);
//   * fairness — per-job slowdown spread (max - min of runtime vs the
//     unconstrained FCFS baseline, keyed by submission index): a policy
//     that starves one job to speed the rest scores wide.
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "experiments/scenario.hpp"
#include "util/stats.hpp"

using namespace fluxpower;
using namespace fluxpower::experiments;

namespace {

constexpr int kNodes = 16;
constexpr double kBoundW = 16 * 1200.0;

std::vector<apps::WorkloadJob> mix_queue(const std::string& archetype,
                                         std::uint64_t seed) {
  using apps::AppKind;
  std::vector<AppKind> kinds;
  if (archetype == "compute-heavy") {
    kinds = {AppKind::Gemm, AppKind::Gemm, AppKind::Lammps, AppKind::Lammps,
             AppKind::Gemm};
  } else if (archetype == "mixed") {
    kinds = {AppKind::Gemm, AppKind::Lammps, AppKind::Quicksilver,
             AppKind::Laghos, AppKind::Kripke, AppKind::Sw4lite};
  } else {  // cpu-heavy
    kinds = {AppKind::Laghos, AppKind::NQueens, AppKind::Laghos,
             AppKind::Quicksilver, AppKind::NQueens};
  }
  return apps::random_queue(seed, 10, 8, kinds);
}

/// One tournament entry: a scheduler policy (by plane name) plus a node
/// policy, and optional eco-mode enrollment of every submitted job.
struct Entrant {
  const char* label;
  const char* sched;  ///< scheduler policy name
  manager::NodePolicy node;
  double eco_tolerance;  ///< > 0: every job enrolls with this tolerance
  bool report_progress;  ///< progress/pi-bound need job.progress events
};

struct Score {
  double makespan_s = 0.0;
  double energy_mj = 0.0;
  double overshoot_ws = 0.0;  ///< cap-violation watt-seconds
  double slowdown_spread = 0.0;
  double mean_slowdown = 0.0;
};

Score run(const std::string& archetype, const Entrant& e,
          const std::map<std::size_t, double>& baseline_runtimes,
          std::map<std::size_t, double>* record_runtimes) {
  // record_runtimes != nullptr marks the unconstrained baseline run (no
  // manager, plain FCFS); otherwise the entrant's full configuration runs.
  ScenarioConfig cfg;
  cfg.nodes = kNodes;
  if (record_runtimes == nullptr) {
    cfg.load_manager = true;
    cfg.manager.cluster_power_bound_w = kBoundW;
    cfg.manager.static_node_cap_w = 1950.0;
    cfg.manager.node_policy = e.node;
    cfg.sched_policy = e.sched;
    cfg.report_progress = e.report_progress;
  }
  Scenario s(cfg);
  double t = 0.0;
  std::size_t index = 0;
  std::map<flux::JobId, std::size_t> by_index;
  for (const apps::WorkloadJob& job : mix_queue(archetype, 777)) {
    t += job.submit_delay_s;
    JobRequest req;
    req.kind = job.kind;
    req.nnodes = job.nnodes;
    req.work_scale = job.work_scale;
    req.submit_time_s = t;
    if (record_runtimes == nullptr) req.eco_tolerance = e.eco_tolerance;
    by_index[s.submit(req)] = index++;
  }
  ScenarioResult res = s.run();

  Score score;
  score.makespan_s = res.makespan_s;
  score.energy_mj = res.total_energy_j / 1e6;
  double prev_t = -1.0;
  for (const auto& [ts, watts] : res.cluster_timeline) {
    if (prev_t >= 0.0 && watts > kBoundW) {
      score.overshoot_ws += (watts - kBoundW) * (ts - prev_t);
    }
    prev_t = ts;
  }
  util::RunningStats slow;
  for (const JobResult& j : res.jobs) {
    const std::size_t k = by_index.at(j.id);
    if (record_runtimes != nullptr) (*record_runtimes)[k] = j.runtime_s;
    if (!baseline_runtimes.empty()) {
      slow.add(j.runtime_s / baseline_runtimes.at(k));
    }
  }
  score.mean_slowdown = slow.count() ? slow.mean() : 1.0;
  score.slowdown_spread = slow.count() ? slow.max() - slow.min() : 0.0;
  return score;
}

}  // namespace

int main() {
  bench::banner("Extension: policy tournament",
                "every policy through the plane — makespan / energy / "
                "overshoot / fairness (16 nodes, 19.2 kW bound)");

  const std::vector<Entrant> entrants = {
      {"fcfs + prop", "fcfs", manager::NodePolicy::DirectGpuBudget, 0.0, false},
      {"easy-backfill + prop", "easy-backfill",
       manager::NodePolicy::DirectGpuBudget, 0.0, false},
      {"power-aware + prop", "power-aware",
       manager::NodePolicy::DirectGpuBudget, 0.0, false},
      {"power-aware-easy + prop", "power-aware-easy",
       manager::NodePolicy::DirectGpuBudget, 0.0, false},
      {"eco-mode 20% + prop", "eco-mode", manager::NodePolicy::DirectGpuBudget,
       0.2, false},
      {"fcfs + fpp", "fcfs", manager::NodePolicy::Fpp, 0.0, false},
      {"fcfs + progress", "fcfs", manager::NodePolicy::ProgressBased, 0.0,
       true},
      {"fcfs + pi-bound", "fcfs", manager::NodePolicy::PiBound, 0.0, true},
  };

  util::TextTable table({"queue archetype", "policy", "makespan s",
                         "energy MJ", "overshoot Ws", "slowdown spread",
                         "mean slowdown"});
  for (const char* archetype : {"compute-heavy", "mixed", "cpu-heavy"}) {
    // Unconstrained FCFS baseline: reference runtimes for the slowdown
    // scores (keyed by submission index — job ids match across runs).
    std::map<std::size_t, double> baseline;
    Entrant base{"baseline", "fcfs", manager::NodePolicy::None, 0.0, false};
    run(archetype, base, {}, &baseline);

    for (const Entrant& e : entrants) {
      const Score s = run(archetype, e, baseline, nullptr);
      table.add_row({archetype, e.label, bench::num(s.makespan_s, 0),
                     bench::num(s.energy_mj, 2), bench::num(s.overshoot_ws, 0),
                     bench::num(s.slowdown_spread, 3),
                     bench::num(s.mean_slowdown, 3)});
    }
  }
  table.print(std::cout);
  bench::note(
      "shape: admission policies (power-aware, power-aware-easy) keep "
      "overshoot near zero and slowdowns near 1.0 by queueing longer; "
      "throttling policies start sooner but spread slowdown unevenly; "
      "eco-mode trades a bounded per-job slowdown for fleet headroom.");
  return 0;
}
