// Tests for flux-power-manager: cluster/job/node managers (§III-B).
#include "manager/power_manager.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "apps/launcher.hpp"
#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "hwsim/ibm_ac922.hpp"

namespace fluxpower::manager {
namespace {

using hwsim::Platform;

class ManagerTest : public ::testing::Test {
 protected:
  void build(int nodes, PowerManagerConfig cfg) {
    cluster_ = hwsim::make_cluster(sim_, Platform::LassenIbmAc922, nodes);
    std::vector<hwsim::Node*> ptrs;
    for (int i = 0; i < nodes; ++i) ptrs.push_back(&cluster_.node(i));
    instance_ = std::make_unique<flux::Instance>(sim_, std::move(ptrs));
    apps::LauncherOptions lopts;
    lopts.platform = Platform::LassenIbmAc922;
    instance_->jobs().set_launcher(apps::make_launcher(lopts));
    instance_->load_module_on_all<PowerManagerModule>(cfg);
  }

  PowerManagerModule* module(int rank) {
    return dynamic_cast<PowerManagerModule*>(
        instance_->broker(rank).find_module("power-manager"));
  }

  const FppNodePlugin& fpp_of(int rank) {
    return dynamic_cast<const FppNodePlugin&>(module(rank)->node_plugin());
  }

  flux::JobId submit(const char* app, int nnodes, double work_scale = 1.0) {
    flux::JobSpec spec;
    spec.name = app;
    spec.app = app;
    spec.nnodes = nnodes;
    spec.attributes = util::Json::object();
    spec.attributes["work_scale"] = work_scale;
    return instance_->jobs().submit(spec);
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<flux::Instance> instance_;
};

TEST_F(ManagerTest, UnconstrainedAllocatesPeakAndSetsNoCaps) {
  PowerManagerConfig cfg;  // bound 0 = unconstrained
  build(4, cfg);
  submit("gemm", 2);
  sim_.run_until(5.0);
  const auto& allocs = module(0)->cluster()->allocations();
  ASSERT_EQ(allocs.size(), 1u);
  EXPECT_DOUBLE_EQ(allocs.begin()->second.node_power_w, 3050.0);
  EXPECT_DOUBLE_EQ(allocs.begin()->second.job_power_w, 6100.0);
  EXPECT_FALSE(cluster_.node(0).node_power_cap().has_value());
  EXPECT_FALSE(cluster_.node(0).gpu_power_cap(0).has_value());
}

TEST_F(ManagerTest, ProportionalSharingArithmetic) {
  // §III-B1 worked example: P_G = 9600 W over 8 allocated nodes →
  // P_n = 1200 W; the 6-node job gets 7200 W, the 2-node job 2400 W.
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  build(8, cfg);
  const flux::JobId a = submit("gemm", 6, 2.0);
  const flux::JobId b = submit("quicksilver", 2, 27.5);
  sim_.run_until(15.0);
  const auto& allocs = module(0)->cluster()->allocations();
  ASSERT_EQ(allocs.size(), 2u);
  EXPECT_DOUBLE_EQ(allocs.at(a).node_power_w, 1200.0);
  EXPECT_DOUBLE_EQ(allocs.at(a).job_power_w, 7200.0);
  EXPECT_DOUBLE_EQ(allocs.at(b).node_power_w, 1200.0);
  EXPECT_DOUBLE_EQ(allocs.at(b).job_power_w, 2400.0);
  EXPECT_DOUBLE_EQ(module(0)->cluster()->allocated_power_w(), 9600.0);
}

TEST_F(ManagerTest, PowerReclaimedWhenJobFinishes) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  build(8, cfg);
  const flux::JobId a = submit("gemm", 6, 2.0);       // ~548 s
  const flux::JobId b = submit("quicksilver", 2, 4.0); // ~50 s
  sim_.run_until(20.0);
  EXPECT_DOUBLE_EQ(module(0)->cluster()->allocations().at(a).node_power_w, 1200.0);
  // Run past Quicksilver's completion: GEMM's 6 nodes now share 9600 W.
  while (!instance_->jobs().job(b).done() && sim_.step()) {
  }
  sim_.run_until(sim_.now() + 15.0);
  const auto& allocs = module(0)->cluster()->allocations();
  ASSERT_EQ(allocs.size(), 1u);
  EXPECT_DOUBLE_EQ(allocs.at(a).node_power_w, 1600.0);
}

TEST_F(ManagerTest, SmallJobGetsPeakWhenBoundAllows) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  build(8, cfg);
  const flux::JobId a = submit("quicksilver", 2, 27.5);
  sim_.run_until(10.0);
  // 2 nodes x 3050 W = 6100 < 9600: peak per node.
  EXPECT_DOUBLE_EQ(module(0)->cluster()->allocations().at(a).node_power_w, 3050.0);
}

TEST_F(ManagerTest, NodeLimitPushedToNodeManagers) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  build(8, cfg);
  submit("gemm", 6, 2.0);
  submit("quicksilver", 2, 27.5);
  sim_.run_until(15.0);
  for (int r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(module(r)->node_limit_w(), 1200.0) << "rank " << r;
  }
}

TEST_F(ManagerTest, DirectGpuBudgetCapsGpus) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  cfg.control_period_s = 5.0;
  build(8, cfg);
  submit("gemm", 6, 2.0);
  submit("quicksilver", 2, 27.5);
  sim_.run_until(30.0);
  // Node limit 1200 W minus measured non-GPU draw (~400 W loaded) over 4
  // GPUs ≈ 190-210 W per GPU.
  const auto cap = cluster_.node(0).gpu_power_cap(0);
  ASSERT_TRUE(cap.has_value());
  EXPECT_GT(*cap, 150.0);
  EXPECT_LT(*cap, 240.0);
  // The node respects its limit.
  EXPECT_LE(cluster_.node(0).node_draw_w(), 1200.0 + 25.0);
}

TEST_F(ManagerTest, IbmDefaultPolicyUsesNodeDial) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::IbmDefaultNodeCap;
  build(8, cfg);
  submit("gemm", 6, 2.0);
  submit("quicksilver", 2, 27.5);
  sim_.run_until(15.0);
  ASSERT_TRUE(cluster_.node(0).node_power_cap().has_value());
  EXPECT_DOUBLE_EQ(*cluster_.node(0).node_power_cap(), 1200.0);
  // IBM's conservative derivation caps GPUs at 100 W (Table III).
  auto& node = dynamic_cast<hwsim::IbmAc922Node&>(cluster_.node(0));
  EXPECT_NEAR(node.derived_gpu_cap(1200.0), 100.0, 0.01);
  EXPECT_NEAR(node.grants().gpu_w[0], 100.0, 1.0);
}

TEST_F(ManagerTest, StaticNodeCapAppliedAtLoad) {
  PowerManagerConfig cfg;
  cfg.static_node_cap_w = 1950.0;
  build(4, cfg);
  for (int r = 0; r < 4; ++r) {
    ASSERT_TRUE(cluster_.node(r).node_power_cap().has_value());
    EXPECT_DOUBLE_EQ(*cluster_.node(r).node_power_cap(), 1950.0);
  }
}

TEST_F(ManagerTest, FppControllersCreatedPerGpu) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::Fpp;
  build(8, cfg);
  EXPECT_EQ(fpp_of(3).controllers().size(), 4u);
}

TEST_F(ManagerTest, FppEventuallyCapsBelowBudgetForPhaseStableApp) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::Fpp;
  build(8, cfg);
  submit("quicksilver", 2, 40.0);  // long periodic job on ranks 0-1
  sim_.run_until(400.0);           // several 90 s control rounds
  // The exploratory probe reduced at least one GPU cap below the budget.
  const auto& ctrls = fpp_of(0).controllers();
  ASSERT_FALSE(ctrls.empty());
  int reduced = 0;
  for (const auto& c : ctrls) {
    if (c->reductions() > 0) ++reduced;
  }
  EXPECT_GT(reduced, 0);
}

TEST_F(ManagerTest, NodeStatusService) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  build(8, cfg);
  submit("gemm", 8, 2.0);
  sim_.run_until(10.0);
  util::Json got;
  instance_->root().rpc(2, kNodeStatusTopic, util::Json::object(),
                        [&](const flux::Message& m) { got = m.payload; });
  sim_.run_until(11.0);
  EXPECT_DOUBLE_EQ(got.number_or("node_limit_w", 0.0), 1200.0);
  EXPECT_EQ(got.string_or("policy", ""), "gpu-budget");
}

TEST_F(ManagerTest, ClusterStatusService) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  build(8, cfg);
  submit("gemm", 6, 2.0);
  sim_.run_until(10.0);
  util::Json got;
  instance_->root().rpc(flux::kRootRank, kClusterStatusTopic,
                        util::Json::object(),
                        [&](const flux::Message& m) { got = m.payload; });
  sim_.run_until(11.0);
  EXPECT_DOUBLE_EQ(got.number_or("cluster_power_bound_w", 0.0), 9600.0);
  EXPECT_EQ(got.at("jobs").size(), 1u);
}

TEST_F(ManagerTest, RejectsNegativeNodeLimit) {
  PowerManagerConfig cfg;
  build(2, cfg);
  util::Json payload = util::Json::object();
  payload["limit_w"] = -5.0;
  int errnum = 0;
  instance_->root().rpc(1, kSetNodeLimitTopic, std::move(payload),
                        [&](const flux::Message& m) { errnum = m.errnum; });
  sim_.run_until(1.0);
  EXPECT_EQ(errnum, flux::kEInval);
}

TEST_F(ManagerTest, ClusterDrawNeverExceedsBoundUnderProportionalSharing) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  cfg.control_period_s = 5.0;
  build(8, cfg);
  submit("gemm", 6, 1.0);
  submit("quicksilver", 2, 20.0);
  double peak = 0.0;
  sim::PeriodicTask probe(sim_, 2.0, [&] {
    peak = std::max(peak, cluster_.total_draw_w());
    return true;
  });
  sim_.run_until(320.0);
  // Small transient excess is allowed while budgets settle (first control
  // period); steady state respects the bound.
  EXPECT_LE(peak, 9600.0 * 1.2);
  EXPECT_LE(cluster_.total_draw_w(), 9600.0 + 50.0);
}

TEST_F(ManagerTest, UnloadRemovesServicesAndTasks) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 9600.0;
  cfg.node_policy = NodePolicy::Fpp;
  build(2, cfg);
  instance_->broker(0).unload_module("power-manager");
  EXPECT_FALSE(instance_->broker(0).has_service(kSetNodeLimitTopic));
  EXPECT_FALSE(instance_->broker(0).has_service(kClusterStatusTopic));
  // Events from jobs no longer crash anything.
  submit("laghos", 1);
  sim_.run_until(30.0);
}

// The broker keeps each push's response handler until the ack or the
// timeout arrives, so unloading the root's manager mid-wave leaves handlers
// pointing at a destroyed module. They must notice and do nothing.
TEST_F(ManagerTest, UnloadWithLimitPushesInFlight) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 4 * 1200.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  build(4, cfg);
  submit("gemm", 4, 2.0);
  PowerManagerModule* root = module(0);
  while (root->cluster()->allocations().empty() && sim_.step()) {
  }
  flux::Broker& broker = instance_->broker(0);
  const auto pushes =
      broker.metrics().value("fluxpower_manager_limit_pushes_total");
  ASSERT_EQ(pushes, 4.0);
  broker.unload_module("power-manager");
  ASSERT_EQ(broker.find_module("power-manager"), nullptr);

  sim_.run_until(sim_.now() + 2.0 * cfg.push_timeout_s);
  EXPECT_EQ(broker.metrics().value("fluxpower_manager_limit_pushes_total"),
            pushes);
  EXPECT_EQ(broker.metrics().value("fluxpower_manager_push_strikes_total"),
            0.0);
}

// Same for the engine's timers: a strike re-push armed before the unload
// fires after it and must not re-push from the destroyed module.
TEST_F(ManagerTest, UnloadWithStrikeRetryArmed) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 4 * 1200.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  build(4, cfg);
  // Rank 3 has no node-level manager, so its push fails with ENOSYS.
  instance_->broker(3).unload_module("power-manager");
  submit("gemm", 4, 2.0);
  PowerManagerModule* root = module(0);
  while (!root->cluster()->push_strikes().contains(3) && sim_.step()) {
  }
  ASSERT_TRUE(root->cluster()->push_strikes().contains(3));
  flux::Broker& broker = instance_->broker(0);
  const auto pushes =
      broker.metrics().value("fluxpower_manager_limit_pushes_total");
  broker.unload_module("power-manager");

  sim_.run_until(sim_.now() + 2.0 * cfg.push_timeout_s);
  EXPECT_EQ(broker.metrics().value("fluxpower_manager_limit_pushes_total"),
            pushes);
}

// A quarantined rank's recovery probe is a timer that captures the root's
// cluster manager, which the unload destroys.
TEST_F(ManagerTest, UnloadWithQuarantineProbeArmed) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 4 * 1200.0;
  cfg.node_policy = NodePolicy::DirectGpuBudget;
  build(4, cfg);
  instance_->broker(3).unload_module("power-manager");
  submit("gemm", 4, 2.0);
  PowerManagerModule* root = module(0);
  while (!root->cluster()->quarantined().contains(3) && sim_.step()) {
  }
  ASSERT_TRUE(root->cluster()->quarantined().contains(3));
  flux::Broker& broker = instance_->broker(0);
  const auto pushes =
      broker.metrics().value("fluxpower_manager_limit_pushes_total");
  broker.unload_module("power-manager");

  sim_.run_until(sim_.now() + 2.0 * cfg.quarantine_probe_s);
  EXPECT_EQ(broker.metrics().value("fluxpower_manager_limit_pushes_total"),
            pushes);
}

// The emergency check's node-status round holds one response handler per
// rank; unloading the root's manager while they are outstanding must leave
// them inert: no engagement, no deep-limit wave.
TEST_F(ManagerTest, UnloadWithEmergencyRoundInFlight) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 4 * 900.0;  // below the uncapped draw
  cfg.emergency_response = true;
  cfg.emergency_check_period_s = 10.0;
  cfg.emergency_consecutive = 1;  // this round alone would engage
  build(4, cfg);
  submit("gemm", 4, 2.0);
  int emergency_events = 0;
  instance_->broker(1).subscribe_event(
      "power-manager.emergency",
      [&](const flux::Message&) { ++emergency_events; });
  flux::Broker& broker = instance_->broker(0);
  while (!(sim_.now() >= cfg.emergency_check_period_s &&
           broker.pending_rpc_count() > 0) &&
         sim_.step()) {
  }
  ASSERT_GT(broker.pending_rpc_count(), 0u);
  const auto pushes =
      broker.metrics().value("fluxpower_manager_limit_pushes_total");
  broker.unload_module("power-manager");

  sim_.run_until(sim_.now() + 10.0);
  EXPECT_EQ(broker.pending_rpc_count(), 0u);
  EXPECT_EQ(emergency_events, 0);
  EXPECT_EQ(broker.metrics().value("fluxpower_manager_limit_pushes_total"),
            pushes);
}

// The cluster- and job-level manager lives on the root only.
TEST_F(ManagerTest, ClusterManagerOnlyOnRoot) {
  PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 4 * 1200.0;
  build(4, cfg);
  ASSERT_NE(module(0)->cluster(), nullptr);
  EXPECT_TRUE(instance_->broker(0).has_service(kClusterStatusTopic));
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(module(r)->cluster(), nullptr) << "rank " << r;
    EXPECT_FALSE(instance_->broker(r).has_service(kClusterStatusTopic));
    EXPECT_TRUE(instance_->broker(r).has_service(kSetNodeLimitTopic));
  }
  instance_->broker(0).unload_module("power-manager");
  EXPECT_FALSE(instance_->broker(0).has_service(kHistoryTopic));
}

TEST(ManagerConfig, RejectsQuarantineThresholdBelowOne) {
  PowerManagerConfig cfg;
  cfg.quarantine_threshold = 0;
  EXPECT_THROW(PowerManagerModule module(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace fluxpower::manager
