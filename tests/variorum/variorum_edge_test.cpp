// Edge cases for the Variorum layer and policy interplay not covered by
// the main suites.
#include <gtest/gtest.h>

#include "experiments/scenario.hpp"
#include "hwsim/arm_grace.hpp"
#include "hwsim/intel_xeon.hpp"
#include "variorum/variorum.hpp"

namespace fluxpower::variorum {
namespace {

TEST(VariorumEdge, ParseToleratesMinimalJson) {
  const auto s = parse_node_power_json(util::Json::parse("{}"));
  EXPECT_TRUE(s.hostname.empty());
  EXPECT_FALSE(s.node_w.has_value());
  EXPECT_TRUE(s.cpu_w.empty());
  EXPECT_TRUE(s.gpu_w.empty());
  EXPECT_DOUBLE_EQ(s.best_node_w(), 0.0);
}

TEST(VariorumEdge, ParseStopsAtFirstMissingSocketIndex) {
  // Holes in the socket sequence terminate the scan (no silent skipping).
  util::Json j = util::Json::object();
  j["power_cpu_watts_socket_0"] = 100.0;
  j["power_cpu_watts_socket_2"] = 300.0;  // socket_1 missing
  const auto s = parse_node_power_json(j);
  ASSERT_EQ(s.cpu_w.size(), 1u);
  EXPECT_DOUBLE_EQ(s.cpu_w[0], 100.0);
}

TEST(VariorumEdge, GpuKeysPreferredOverOam) {
  util::Json j = util::Json::object();
  j["power_gpu_watts_gpu_0"] = 111.0;
  j["power_gpu_watts_oam_0"] = 999.0;  // ignored when gpu_* present
  const auto s = parse_node_power_json(j);
  ASSERT_EQ(s.gpu_w.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gpu_w[0], 111.0);
  EXPECT_FALSE(s.gpu_is_oam);
}

TEST(VariorumEdge, BestEffortSingleSocketClampsAtRaplCeiling) {
  sim::Simulation sim;
  hwsim::ArmGraceNode node(sim, "arm0");
  // A huge node budget clamps at the firmware's 500 W socket ceiling.
  const auto r = cap_best_effort_node_power_limit(node, 5000.0);
  EXPECT_EQ(r.status, hwsim::CapStatus::Clamped);
  EXPECT_DOUBLE_EQ(*node.socket_power_cap(0), 500.0);
  // A tiny budget clamps at the floor.
  const auto r2 = cap_best_effort_node_power_limit(node, 50.0);
  EXPECT_EQ(r2.status, hwsim::CapStatus::Clamped);
  EXPECT_DOUBLE_EQ(*node.socket_power_cap(0), 150.0);
}

TEST(VariorumEdge, BestEffortReservesGpuIdleOnAcceleratedPlatforms) {
  sim::Simulation sim;
  hwsim::IntelXeonConfig cfg;
  cfg.gpus = 2;
  hwsim::IntelXeonNode node(sim, "intel-gpu", cfg);
  cap_best_effort_node_power_limit(node, 600.0);
  // (600 - mem 35 - 2x30 GPU idle) / 2 sockets = 252.5 each.
  ASSERT_TRUE(node.socket_power_cap(0).has_value());
  EXPECT_NEAR(*node.socket_power_cap(0), 252.5, 0.1);
}

TEST(VariorumEdge, CapEachGpuOnGpulessNodeIsEmpty) {
  sim::Simulation sim;
  hwsim::ArmGraceNode node(sim, "arm0");
  EXPECT_TRUE(cap_each_gpu_power_limit(node, 200.0).empty());
}

TEST(SchedulerInterplay, PowerAwareRespectsDrains) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 4 * 2000.0;
  experiments::Scenario s(cfg);
  s.instance().scheduler().set_policy("power-aware");
  s.instance().scheduler().drain(0);
  s.instance().scheduler().drain(1);

  experiments::JobRequest req;
  req.kind = apps::AppKind::Laghos;
  req.nnodes = 3;  // only 2 healthy nodes -> must wait forever
  const flux::JobId id = s.submit(req);
  s.sim().run_until(30.0);
  EXPECT_EQ(s.instance().jobs().job(id).state, flux::JobState::Sched);
  s.instance().scheduler().undrain(0);
  s.sim().run_until(31.0);
  EXPECT_EQ(s.instance().jobs().job(id).state, flux::JobState::Run);
  // The drained rank stayed out of the allocation.
  for (flux::Rank r : s.instance().jobs().job(id).ranks) EXPECT_NE(r, 1);
  s.run();
}

TEST(SchedulerInterplay, GreenJobUnderPowerAwareAdmission) {
  // A job's self-imposed power request also shrinks its admission
  // footprint when the estimate attribute reflects it.
  experiments::ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 3000.0;
  experiments::Scenario s(cfg);
  s.instance().scheduler().set_policy("power-aware");

  flux::JobSpec big;
  big.name = "gemm";
  big.app = "gemm";
  big.nnodes = 2;
  big.attributes = util::Json::object();
  big.attributes["work_scale"] = 0.3;
  big.attributes["power_estimate_w_per_node"] = 1500.0;  // 3000 W total
  const flux::JobId a = s.instance().jobs().submit(big);

  flux::JobSpec green = big;
  green.attributes["power_estimate_w_per_node"] = 700.0;
  green.attributes["power_limit_w_per_node"] = 700.0;
  const flux::JobId b = s.instance().jobs().submit(green);

  s.sim().run_until(1.0);
  // The big job consumed the whole 3000 W budget; the green job waits even
  // though nodes are free...
  EXPECT_EQ(s.instance().jobs().job(a).state, flux::JobState::Run);
  EXPECT_EQ(s.instance().jobs().job(b).state, flux::JobState::Sched);
  // ...and starts once the budget frees.
  while (!s.instance().jobs().job(b).done() && s.sim().step()) {
  }
  EXPECT_GE(s.instance().jobs().job(b).t_start,
            s.instance().jobs().job(a).t_end - 1e-6);
}

}  // namespace
}  // namespace fluxpower::variorum
