// Tests for the emergency power response: measured-draw enforcement that
// catches what silent capping failures break (§V closing-the-loop).
#include <gtest/gtest.h>

#include "experiments/scenario.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "manager/power_manager.hpp"

namespace fluxpower::manager {
namespace {

class EmergencyTest : public ::testing::Test {
 protected:
  PowerManagerModule* root_manager(experiments::Scenario& s) {
    return dynamic_cast<PowerManagerModule*>(
        s.instance().broker(0).find_module("power-manager"));
  }
};

TEST_F(EmergencyTest, EngagesWhenMeasuredDrawExceedsBound) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.load_manager = true;
  // Bound set deliberately below what the (uncapped) workload draws, with
  // NO enforcement policy — allocation arithmetic alone cannot hold it.
  cfg.manager.cluster_power_bound_w = 4 * 900.0;
  cfg.manager.node_policy = NodePolicy::None;
  cfg.manager.emergency_response = true;
  cfg.manager.emergency_check_period_s = 10.0;
  experiments::Scenario s(cfg);

  int engaged_events = 0;
  s.instance().root().subscribe_event(
      "power-manager.emergency", [&](const flux::Message& m) {
        if (m.payload.bool_or("engaged", false)) ++engaged_events;
      });

  experiments::JobRequest req;
  req.kind = apps::AppKind::Gemm;  // ~1400 W/node >> 900 W share
  req.nnodes = 4;
  req.work_scale = 1.0;
  s.submit(req);
  s.sim().run_until(60.0);

  EXPECT_TRUE(root_manager(s)->cluster()->emergency_active());
  EXPECT_EQ(engaged_events, 1);
  // Deep limits were pushed to every node-level-manager.
  for (int r = 0; r < 4; ++r) {
    auto* mod = dynamic_cast<PowerManagerModule*>(
        s.instance().broker(r).find_module("power-manager"));
    EXPECT_NEAR(mod->node_limit_w(), 900.0 * 0.9, 1.0) << "rank " << r;
  }
}

TEST_F(EmergencyTest, DoesNotEngageWithinBound) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 4 * 1200.0;
  cfg.manager.node_policy = NodePolicy::DirectGpuBudget;
  cfg.manager.emergency_response = true;
  cfg.manager.emergency_check_period_s = 10.0;
  experiments::Scenario s(cfg);
  experiments::JobRequest req;
  req.kind = apps::AppKind::Gemm;
  req.nnodes = 4;
  req.work_scale = 1.0;
  s.submit(req);
  auto res = s.run();
  EXPECT_FALSE(root_manager(s)->cluster()->emergency_active());
  EXPECT_GT(res.makespan_s, 0.0);
}

TEST_F(EmergencyTest, ReleasesWhenDrawSubsides) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 2;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 2 * 900.0;
  cfg.manager.node_policy = NodePolicy::None;
  cfg.manager.emergency_response = true;
  cfg.manager.emergency_check_period_s = 10.0;
  experiments::Scenario s(cfg);

  std::vector<bool> transitions;
  s.instance().root().subscribe_event(
      "power-manager.emergency", [&](const flux::Message& m) {
        transitions.push_back(m.payload.bool_or("engaged", false));
      });

  experiments::JobRequest req;
  req.kind = apps::AppKind::Gemm;
  req.nnodes = 2;
  req.work_scale = 0.5;  // ~137 s
  s.submit(req);
  auto res = s.run();
  s.sim().run_until(res.jobs[0].t_end + 40.0);

  // Engaged during the hot job, released after it ended (idle 400 W/node
  // is far below the bound).
  ASSERT_GE(transitions.size(), 2u);
  EXPECT_TRUE(transitions.front());
  EXPECT_FALSE(transitions.back());
  EXPECT_FALSE(root_manager(s)->cluster()->emergency_active());
}

// Site coordination can set the bound to 0 ("unconstrained") at runtime.
// There is then no bound to defend: no check may engage an emergency (the
// deep limit would be 0 W), and a standing one is released.
void set_bound(experiments::Scenario& s, double bound_w) {
  util::Json payload = util::Json::object();
  payload["bound_w"] = bound_w;
  int errnum = -1;
  s.instance().root().rpc(flux::kRootRank, kSetClusterBoundTopic,
                          std::move(payload),
                          [&](const flux::Message& m) { errnum = m.errnum; });
  s.sim().run_until(s.sim().now() + 1.0);
  ASSERT_EQ(errnum, 0);
}

TEST_F(EmergencyTest, UnconstrainedBoundNeverEngages) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 4 * 1200.0;
  cfg.manager.node_policy = NodePolicy::DirectGpuBudget;
  cfg.manager.emergency_response = true;
  cfg.manager.emergency_check_period_s = 10.0;
  experiments::Scenario s(cfg);
  int engaged_events = 0;
  s.instance().root().subscribe_event(
      "power-manager.emergency", [&](const flux::Message& m) {
        if (m.payload.bool_or("engaged", false)) ++engaged_events;
      });
  experiments::JobRequest req;
  req.kind = apps::AppKind::Gemm;
  req.nnodes = 4;
  req.work_scale = 1.0;
  s.submit(req);
  s.sim().run_until(30.0);
  set_bound(s, 0.0);
  s.sim().run_until(120.0);
  EXPECT_EQ(engaged_events, 0);
  EXPECT_FALSE(root_manager(s)->cluster()->emergency_active());
  EXPECT_EQ(root_manager(s)->cluster()->emergency_strike_count(), 0);
}

TEST_F(EmergencyTest, UnconstrainedBoundReleasesEmergency) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 4 * 900.0;
  cfg.manager.node_policy = NodePolicy::None;
  cfg.manager.emergency_response = true;
  cfg.manager.emergency_check_period_s = 10.0;
  experiments::Scenario s(cfg);
  std::vector<bool> transitions;
  s.instance().root().subscribe_event(
      "power-manager.emergency", [&](const flux::Message& m) {
        transitions.push_back(m.payload.bool_or("engaged", false));
      });
  experiments::JobRequest req;
  req.kind = apps::AppKind::Gemm;
  req.nnodes = 4;
  req.work_scale = 1.0;
  s.submit(req);
  s.sim().run_until(60.0);
  ASSERT_TRUE(root_manager(s)->cluster()->emergency_active());
  set_bound(s, 0.0);
  s.sim().run_until(90.0);
  EXPECT_FALSE(root_manager(s)->cluster()->emergency_active());
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_FALSE(transitions.back());
  // The release restored the unconstrained shares.
  for (int r = 0; r < 4; ++r) {
    auto* mod = dynamic_cast<PowerManagerModule*>(
        s.instance().broker(r).find_module("power-manager"));
    EXPECT_DOUBLE_EQ(mod->node_limit_w(), 3050.0) << "rank " << r;
  }
}

TEST_F(EmergencyTest, CheckArmedWhenBoundStartsUnconstrained) {
  // A bound raised after load is defended like one set at load.
  experiments::ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.load_manager = true;
  cfg.manager.node_policy = NodePolicy::None;
  cfg.manager.emergency_response = true;
  cfg.manager.emergency_check_period_s = 10.0;
  experiments::Scenario s(cfg);
  experiments::JobRequest req;
  req.kind = apps::AppKind::Gemm;
  req.nnodes = 4;
  req.work_scale = 1.0;
  s.submit(req);
  s.sim().run_until(30.0);
  EXPECT_FALSE(root_manager(s)->cluster()->emergency_active());
  set_bound(s, 4 * 900.0);
  s.sim().run_until(80.0);
  EXPECT_TRUE(root_manager(s)->cluster()->emergency_active());
}

TEST_F(EmergencyTest, CatchesWedgedGpusUnderFailureInjection) {
  // The §V scenario end-to-end: silent NVML failures push real draw above
  // the ledger; the emergency response reins it back in.
  sim::Simulation sim;
  hwsim::IbmAc922Config hw;
  hw.nvml_failure_rate = 0.6;
  hwsim::Cluster cluster;
  for (int i = 0; i < 4; ++i) {
    cluster.add_node(std::make_unique<hwsim::IbmAc922Node>(
        sim, "flaky" + std::to_string(i), hw));
  }
  std::vector<hwsim::Node*> nodes;
  for (int i = 0; i < 4; ++i) nodes.push_back(&cluster.node(i));
  flux::Instance instance(sim, std::move(nodes));
  instance.jobs().set_launcher(apps::make_launcher(
      {.platform = hwsim::Platform::LassenIbmAc922}));
  PowerManagerConfig mcfg;
  mcfg.cluster_power_bound_w = 4 * 1150.0;
  mcfg.node_policy = NodePolicy::DirectGpuBudget;
  mcfg.control_period_s = 10.0;
  mcfg.emergency_response = true;
  mcfg.emergency_check_period_s = 10.0;
  instance.load_module_on_all<PowerManagerModule>(mcfg);
  // Put the NVML layer into its failure regime.
  for (int i = 0; i < 4; ++i) cluster.node(i).set_node_power_cap(1200.0);

  flux::JobSpec spec;
  spec.name = "gemm";
  spec.app = "gemm";
  spec.nnodes = 4;
  const flux::JobId id = instance.jobs().submit(spec);
  sim.run_until(200.0);
  // Whatever the failures did, the emergency loop must have kept (or
  // brought) the cluster near its bound by now.
  EXPECT_LT(cluster.total_draw_w(), 4 * 1150.0 * 1.15);
  (void)id;
}

}  // namespace
}  // namespace fluxpower::manager
