// Tests for the progress-guarded dynamic policy (NodePolicy::ProgressBased).
#include <gtest/gtest.h>

#include "experiments/scenario.hpp"
#include "manager/power_manager.hpp"

namespace fluxpower::manager {
namespace {

class ProgressPolicyTest : public ::testing::Test {
 protected:
  std::unique_ptr<experiments::Scenario> make(double bound,
                                              NodePolicy policy) {
    experiments::ScenarioConfig cfg;
    cfg.nodes = 2;
    cfg.load_manager = true;
    cfg.manager.cluster_power_bound_w = bound;
    cfg.manager.static_node_cap_w = 1950.0;
    cfg.manager.node_policy = policy;
    cfg.report_progress = true;
    return std::make_unique<experiments::Scenario>(cfg);
  }

  static const ProgressNodePlugin& plugin_on(experiments::Scenario& s,
                                             int rank) {
    auto* mod = dynamic_cast<PowerManagerModule*>(
        s.instance().broker(rank).find_module("power-manager"));
    return dynamic_cast<const ProgressNodePlugin&>(mod->node_plugin());
  }
};

TEST_F(ProgressPolicyTest, InsensitiveAppGetsCappedToFloor) {
  // Quicksilver barely reacts to GPU caps: the probing walks the cap all
  // the way down to the NVML floor and holds there.
  auto s = make(2 * 1950.0, NodePolicy::ProgressBased);
  experiments::JobRequest req;
  req.kind = apps::AppKind::Quicksilver;
  req.nnodes = 2;
  req.work_scale = 40.0;  // ~500 s, many control rounds
  const flux::JobId id = s->submit(req);
  s->sim().run_until(400.0);
  EXPECT_GT(plugin_on(*s, 0).rate(), 0.0);
  // Probing reached well below the initial budget.
  const auto cap = s->cluster().node(0).gpu_power_cap(0);
  ASSERT_TRUE(cap.has_value());
  EXPECT_LE(*cap, 200.0);
  auto res = s->run();
  // And the job barely slowed down (tolerance-guarded).
  EXPECT_LT(res.job(id).runtime_s, 1.10 * 500.0 * 12.0 / 12.0);
}

TEST_F(ProgressPolicyTest, ComputeBoundAppKeepsItsPower) {
  // GEMM degrades immediately when capped below its demand: the controller
  // probes once, sees the rate drop, restores, and holds near the budget.
  auto s = make(2 * 1950.0, NodePolicy::ProgressBased);
  experiments::JobRequest req;
  req.kind = apps::AppKind::Gemm;
  req.nnodes = 2;
  req.work_scale = 1.5;  // ~411 s
  const flux::JobId id = s->submit(req);
  auto res = s->run();
  // Total slowdown vs nominal stays small: the guard restored power.
  EXPECT_LT(res.job(id).runtime_s, 1.12 * 411.0);
  EXPECT_TRUE(plugin_on(*s, 0).holding());
}

TEST_F(ProgressPolicyTest, SavesEnergyOnInsensitiveApp) {
  auto run = [this](NodePolicy policy) {
    auto s = make(2 * 1950.0, policy);
    experiments::JobRequest req;
    req.kind = apps::AppKind::Quicksilver;
    req.nnodes = 2;
    req.work_scale = 40.0;
    const flux::JobId id = s->submit(req);
    auto res = s->run();
    return std::pair(res.job(id).runtime_s,
                     res.job(id).exact_avg_node_energy_j);
  };
  const auto [t_budget, e_budget] = run(NodePolicy::DirectGpuBudget);
  const auto [t_prog, e_prog] = run(NodePolicy::ProgressBased);
  EXPECT_LT(e_prog, e_budget);            // energy saved
  EXPECT_LT(t_prog, 1.08 * t_budget);     // within the progress tolerance
}

TEST_F(ProgressPolicyTest, NoProgressSignalFallsBackToBudget) {
  // Without progress reporting the policy degrades to plain budget
  // enforcement (no probing, no crash).
  experiments::ScenarioConfig cfg;
  cfg.nodes = 2;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 2 * 1200.0;
  cfg.manager.node_policy = NodePolicy::ProgressBased;
  cfg.report_progress = false;  // <- no job.progress events
  experiments::Scenario s(cfg);
  experiments::JobRequest req;
  req.kind = apps::AppKind::Gemm;
  req.nnodes = 2;
  req.work_scale = 0.5;
  const flux::JobId id = s.submit(req);
  s.sim().run_until(60.0);
  EXPECT_LT(plugin_on(s, 0).rate(), 0.0);  // never saw a signal
  const auto cap = s.cluster().node(0).gpu_power_cap(0);
  ASSERT_TRUE(cap.has_value());
  EXPECT_GT(*cap, 100.0);  // budget-level, not floor
  auto res = s.run();
  EXPECT_GT(res.job(id).runtime_s, 0.0);
}

}  // namespace
}  // namespace fluxpower::manager
