// Tests for per-job power requests ("green" jobs, water-filling) and the
// idle-node low-power policy.
#include <gtest/gtest.h>

#include "experiments/scenario.hpp"
#include "manager/power_manager.hpp"

namespace fluxpower::manager {
namespace {

class GreenJobTest : public ::testing::Test {
 protected:
  void build(double bound) {
    cfg_.nodes = 8;
    cfg_.load_manager = true;
    cfg_.manager.cluster_power_bound_w = bound;
    cfg_.manager.node_policy = NodePolicy::DirectGpuBudget;
    scenario_ = std::make_unique<experiments::Scenario>(cfg_);
  }

  flux::JobId submit(const char* app, int nnodes, double scale,
                     double power_limit = 0.0) {
    flux::JobSpec spec;
    spec.name = app;
    spec.app = app;
    spec.nnodes = nnodes;
    spec.attributes = util::Json::object();
    spec.attributes["work_scale"] = scale;
    if (power_limit > 0.0) {
      spec.attributes["power_limit_w_per_node"] = power_limit;
    }
    return scenario_->instance().jobs().submit(spec);
  }

  PowerManagerModule* root_manager() {
    return dynamic_cast<PowerManagerModule*>(
        scenario_->instance().broker(0).find_module("power-manager"));
  }

  experiments::ScenarioConfig cfg_;
  std::unique_ptr<experiments::Scenario> scenario_;
};

TEST_F(GreenJobTest, RequestCapsUnconstrainedAllocation) {
  build(0.0);  // unconstrained
  const flux::JobId id = submit("gemm", 4, 2.0, 900.0);
  scenario_->sim().run_until(10.0);
  const auto& alloc = root_manager()->cluster()->allocations().at(id);
  EXPECT_DOUBLE_EQ(alloc.node_power_w, 900.0);
  EXPECT_DOUBLE_EQ(alloc.job_power_w, 3600.0);
}

TEST_F(GreenJobTest, WaterFillingRedistributesSurplus) {
  build(9600.0);
  // Green job (2 nodes @ 600 W request) + normal job (6 nodes).
  const flux::JobId green = submit("quicksilver", 2, 27.5, 600.0);
  const flux::JobId big = submit("gemm", 6, 2.0);
  scenario_->sim().run_until(10.0);
  const auto& allocs = root_manager()->cluster()->allocations();
  // Uniform share would be 1200; the green job pins at 600 and frees
  // 2 x 600 W, raising the big job to (9600 - 1200) / 6 = 1400.
  EXPECT_DOUBLE_EQ(allocs.at(green).node_power_w, 600.0);
  EXPECT_DOUBLE_EQ(allocs.at(big).node_power_w, 1400.0);
  EXPECT_LE(root_manager()->cluster()->allocated_power_w(), 9600.0 + 1e-6);
}

TEST_F(GreenJobTest, RequestAboveShareIsIgnored) {
  build(9600.0);
  // Requesting more than the fair share changes nothing: shares stay 1200.
  const flux::JobId a = submit("quicksilver", 2, 27.5, 2000.0);
  const flux::JobId b = submit("gemm", 6, 2.0);
  scenario_->sim().run_until(10.0);
  const auto& allocs = root_manager()->cluster()->allocations();
  EXPECT_DOUBLE_EQ(allocs.at(a).node_power_w, 1200.0);
  EXPECT_DOUBLE_EQ(allocs.at(b).node_power_w, 1200.0);
}

TEST_F(GreenJobTest, GreenJobActuallyDrawsLess) {
  build(9600.0);
  const flux::JobId green = submit("gemm", 2, 1.0, 800.0);
  scenario_->sim().run_until(60.0);
  // Node draw respects the self-imposed 800 W limit (within enforcement
  // tolerance of the budget loop).
  const flux::Job& job = scenario_->instance().jobs().job(green);
  for (flux::Rank r : job.ranks) {
    EXPECT_LE(scenario_->instance().node(r)->node_draw_w(), 800.0 + 80.0);
  }
}

TEST(IdleLowPower, UnallocatedNodesPark) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.load_manager = true;
  cfg.manager.idle_low_power = true;
  experiments::Scenario s(cfg);
  s.sim().run_until(5.0);
  // All four nodes parked: idle draw drops by the low-power factor.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.cluster().node(i).low_power_state()) << i;
    EXPECT_NEAR(s.cluster().node(i).node_draw_w(),
                100.0 + 0.62 * 300.0, 10.0);  // base + parked components
  }
}

TEST(IdleLowPower, NodesWakeForJobsAndReparkAfter) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.load_manager = true;
  cfg.manager.idle_low_power = true;
  experiments::Scenario s(cfg);
  experiments::JobRequest req;
  req.kind = apps::AppKind::Laghos;
  req.nnodes = 2;
  req.work_scale = 4.0;
  req.submit_time_s = 10.0;
  const flux::JobId id = s.submit(req);

  s.sim().schedule_at(30.0, [&s] {
    int awake = 0, parked = 0;
    for (int i = 0; i < 4; ++i) {
      if (s.cluster().node(i).low_power_state()) ++parked;
      else ++awake;
    }
    EXPECT_EQ(awake, 2);
    EXPECT_EQ(parked, 2);
  });
  auto res = s.run();
  EXPECT_GT(res.job(id).runtime_s, 0.0);
  // After completion everything re-parks.
  s.sim().run_until(s.sim().now() + 5.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.cluster().node(i).low_power_state()) << i;
  }
}

TEST(IdleLowPower, SavesIdleEnergy) {
  auto run_idle = [](bool park) {
    experiments::ScenarioConfig cfg;
    cfg.nodes = 4;
    cfg.load_manager = true;
    cfg.manager.idle_low_power = park;
    experiments::Scenario s(cfg);
    s.sim().run_until(1000.0);
    return s.cluster().total_energy_joules();
  };
  const double parked = run_idle(true);
  const double unparked = run_idle(false);
  EXPECT_LT(parked, 0.85 * unparked);
}

TEST(NodeLowPower, StateChangesAreIdempotentAndReversible) {
  sim::Simulation sim;
  hwsim::Cluster c = hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, 1);
  auto& node = c.node(0);
  const double normal = node.node_draw_w();
  node.set_low_power_state(true);
  const double parked = node.node_draw_w();
  EXPECT_LT(parked, normal);
  node.set_low_power_state(true);  // idempotent
  EXPECT_DOUBLE_EQ(node.node_draw_w(), parked);
  node.set_low_power_state(false);
  EXPECT_NEAR(node.node_draw_w(), normal, 1e-9);

  // Load requests override the parked floor (the node "wakes" under load).
  node.set_low_power_state(true);
  hwsim::LoadDemand d;
  d.cpu_w = {150, 150};
  d.gpu_w = {200, 200, 200, 200};
  d.mem_w = 70;
  node.set_demand(d);
  EXPECT_GT(node.node_draw_w(), 1000.0);
  node.idle();
  EXPECT_DOUBLE_EQ(node.node_draw_w(), parked);
}

}  // namespace
}  // namespace fluxpower::manager
