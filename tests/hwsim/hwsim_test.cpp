// Tests for hwsim: vendor node models and their capping semantics.
#include <gtest/gtest.h>

#include "hwsim/arm_grace.hpp"
#include "hwsim/cluster.hpp"
#include "hwsim/cray_ex235a.hpp"
#include "hwsim/energy_meter.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "hwsim/intel_xeon.hpp"

namespace fluxpower::hwsim {
namespace {

// ---------------------------------------------------------------------------
// EnergyMeter
// ---------------------------------------------------------------------------

TEST(EnergyMeter, IntegratesConstantPower) {
  EnergyMeter m;
  m.update(0.0, 100.0);
  EXPECT_DOUBLE_EQ(m.joules(10.0), 1000.0);
}

TEST(EnergyMeter, IntegratesSteps) {
  EnergyMeter m;
  m.update(0.0, 100.0);
  m.update(5.0, 200.0);
  EXPECT_DOUBLE_EQ(m.joules(10.0), 500.0 + 1000.0);
}

TEST(EnergyMeter, ResetClearsAccumulator) {
  EnergyMeter m;
  m.update(0.0, 100.0);
  m.reset(5.0);
  EXPECT_DOUBLE_EQ(m.joules(7.0), 200.0);
}

TEST(EnergyMeter, BackwardsTimeThrows) {
  EnergyMeter m;
  m.update(5.0, 10.0);
  EXPECT_THROW(m.update(4.0, 10.0), std::logic_error);
  EXPECT_THROW(m.joules(4.0), std::logic_error);
  // reset() shares the monotonicity contract: rewinding the clock would
  // re-bill the rewound interval at the current wattage on the next update.
  EXPECT_THROW(m.reset(4.0), std::logic_error);
  m.reset(5.0);  // equal time is fine
  m.reset(6.0);
  EXPECT_DOUBLE_EQ(m.joules(7.0), 10.0);
}

// ---------------------------------------------------------------------------
// IBM AC922 (Lassen)
// ---------------------------------------------------------------------------

class IbmNodeTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  IbmAc922Node node{sim, "lassen0"};
};

TEST_F(IbmNodeTest, Topology) {
  EXPECT_EQ(node.socket_count(), 2);
  EXPECT_EQ(node.gpu_count(), 4);
  EXPECT_STREQ(node.vendor_name(), "ibm_power9");
}

TEST_F(IbmNodeTest, IdleDrawIs400W) {
  // The paper measures ~400 W idle on Lassen nodes (§IV-C).
  EXPECT_NEAR(node.node_draw_w(), 400.0, 1.0);
}

TEST_F(IbmNodeTest, DemandRaisesDraw) {
  LoadDemand d;
  d.cpu_w = {110, 110};
  d.gpu_w = {285, 285, 285, 285};
  d.mem_w = 70;
  node.set_demand(d);
  // 220 + 1140 + 70 + 100 base = 1530.
  EXPECT_NEAR(node.node_draw_w(), 1530.0, 1.0);
}

TEST_F(IbmNodeTest, DemandBelowIdleIsFloored) {
  LoadDemand d;
  d.cpu_w = {0, 0};
  d.gpu_w = {0, 0, 0, 0};
  d.mem_w = 0;
  node.set_demand(d);
  EXPECT_NEAR(node.node_draw_w(), 400.0, 1.0);
}

TEST_F(IbmNodeTest, DerivedGpuCapMatchesTableIII) {
  // Paper-measured anchors (Table III).
  EXPECT_NEAR(node.derived_gpu_cap(1200.0), 100.0, 0.01);
  EXPECT_NEAR(node.derived_gpu_cap(1800.0), 216.0, 0.01);
  EXPECT_NEAR(node.derived_gpu_cap(1950.0), 253.0, 0.01);
  EXPECT_NEAR(node.derived_gpu_cap(3050.0), 300.0, 0.01);
}

TEST_F(IbmNodeTest, DerivedGpuCapInterpolatesMonotonically) {
  double prev = 0.0;
  for (double cap = 1000.0; cap <= 3050.0; cap += 50.0) {
    const double d = node.derived_gpu_cap(cap);
    EXPECT_GE(d, prev - 1e-9) << "at " << cap;
    prev = d;
  }
}

TEST_F(IbmNodeTest, NodeCapClampsToSoftMinimum) {
  const CapResult r = node.set_node_power_cap(100.0);
  EXPECT_EQ(r.status, CapStatus::Clamped);
  EXPECT_DOUBLE_EQ(*r.applied_watts, 500.0);
}

TEST_F(IbmNodeTest, NodeCapClampsToMaximum) {
  const CapResult r = node.set_node_power_cap(5000.0);
  EXPECT_EQ(r.status, CapStatus::Clamped);
  EXPECT_DOUBLE_EQ(*r.applied_watts, 3050.0);
}

TEST_F(IbmNodeTest, NodeCapAt1200CapsGpusConservatively) {
  LoadDemand d;
  d.cpu_w = {110, 110};
  d.gpu_w = {285, 285, 285, 285};
  d.mem_w = 70;
  node.set_demand(d);
  node.set_node_power_cap(1200.0);
  // IBM's algorithm caps each GPU at 100 W even though the node cap would
  // allow more — the paper's core criticism of the default policy.
  for (double g : node.grants().gpu_w) EXPECT_NEAR(g, 100.0, 0.01);
  EXPECT_LT(node.node_draw_w(), 1200.0);
}

TEST_F(IbmNodeTest, ClearNodeCapRestoresFullPower) {
  LoadDemand d;
  d.cpu_w = {110, 110};
  d.gpu_w = {285, 285, 285, 285};
  d.mem_w = 70;
  node.set_demand(d);
  node.set_node_power_cap(1200.0);
  node.clear_node_power_cap();
  EXPECT_NEAR(node.node_draw_w(), 1530.0, 1.0);
}

TEST_F(IbmNodeTest, NvmlCapClampsToRange) {
  EXPECT_EQ(node.set_gpu_power_cap(0, 50.0).status, CapStatus::Clamped);
  EXPECT_DOUBLE_EQ(*node.gpu_power_cap(0), 100.0);
  EXPECT_EQ(node.set_gpu_power_cap(0, 400.0).status, CapStatus::Clamped);
  EXPECT_DOUBLE_EQ(*node.gpu_power_cap(0), 300.0);
  EXPECT_EQ(node.set_gpu_power_cap(0, 250.0).status, CapStatus::Ok);
  EXPECT_DOUBLE_EQ(*node.gpu_power_cap(0), 250.0);
}

TEST_F(IbmNodeTest, NvmlCapBadIndex) {
  EXPECT_EQ(node.set_gpu_power_cap(-1, 200.0).status, CapStatus::OutOfRange);
  EXPECT_EQ(node.set_gpu_power_cap(4, 200.0).status, CapStatus::OutOfRange);
  EXPECT_FALSE(node.gpu_power_cap(7).has_value());
}

TEST_F(IbmNodeTest, PerGpuCapsAreIndependent) {
  LoadDemand d;
  d.cpu_w = {110, 110};
  d.gpu_w = {285, 285, 285, 285};
  d.mem_w = 70;
  node.set_demand(d);
  node.set_gpu_power_cap(1, 150.0);
  const Grants& g = node.grants();
  EXPECT_NEAR(g.gpu_w[0], 285.0, 0.01);
  EXPECT_NEAR(g.gpu_w[1], 150.0, 0.01);
  EXPECT_NEAR(g.gpu_w[2], 285.0, 0.01);
}

TEST_F(IbmNodeTest, OccThrottlesCpuWhenGpuCapsInsufficient) {
  // At a deep soft cap (500 W) the derived GPU caps bottom out at the GPU
  // idle floor and the remaining excess must come out of CPU DVFS.
  LoadDemand d;
  d.cpu_w = {190, 190};
  d.gpu_w = {285, 285, 285, 285};
  d.mem_w = 100;
  node.set_demand(d);
  node.set_node_power_cap(500.0);
  EXPECT_LE(node.node_draw_w(), 500.0 + 1e-6);
  // CPUs were squeezed toward idle; GPUs sit at their idle floor.
  for (double c : node.grants().cpu_w) EXPECT_LT(c, 190.0);
  for (double g : node.grants().gpu_w) EXPECT_NEAR(g, 35.0, 0.01);
}

TEST_F(IbmNodeTest, CapNeverDropsBelowAggregateIdle) {
  node.set_node_power_cap(500.0);  // soft minimum, below idle total
  node.idle();
  EXPECT_NEAR(node.node_draw_w(), 400.0, 1.0);
}

TEST_F(IbmNodeTest, SampleReportsAllDomains) {
  const PowerSample s = node.sample();
  EXPECT_TRUE(s.node_w.has_value());
  EXPECT_FALSE(s.node_estimate_w.has_value());
  EXPECT_EQ(s.cpu_w.size(), 2u);
  EXPECT_EQ(s.gpu_w.size(), 4u);
  EXPECT_TRUE(s.mem_w.has_value());
  EXPECT_FALSE(s.gpu_is_oam);
  EXPECT_EQ(s.hostname, "lassen0");
}

TEST_F(IbmNodeTest, SampleNoiseIsBounded) {
  node.set_sensor_noise(0.01);
  node.reseed_sensor_noise(7);
  for (int i = 0; i < 100; ++i) {
    const PowerSample s = node.sample();
    EXPECT_NEAR(*s.node_w, 400.0, 400.0 * 0.08);
  }
}

TEST_F(IbmNodeTest, EnergyAccumulatesOverSimTime) {
  sim.run_until(10.0);
  LoadDemand d;
  d.cpu_w = {110, 110};
  d.gpu_w = {285, 285, 285, 285};
  d.mem_w = 70;
  node.set_demand(d);  // 400 W for 10 s so far
  sim.run_until(20.0);
  node.idle();
  EXPECT_NEAR(node.energy_joules(), 400.0 * 10 + 1530.0 * 10, 5.0);
}

TEST_F(IbmNodeTest, StolenTimeAccumulatesAndDrains) {
  node.add_stolen_time(0.008);
  node.add_stolen_time(0.008);
  EXPECT_DOUBLE_EQ(node.drain_stolen_time(), 0.016);
  EXPECT_DOUBLE_EQ(node.drain_stolen_time(), 0.0);
}

TEST(IbmNvmlFailure, InjectedFailuresKeepOrResetCaps) {
  sim::Simulation sim;
  IbmAc922Config cfg;
  cfg.nvml_failure_rate = 1.0;  // always fail at low node caps
  IbmAc922Node node(sim, "flaky0", cfg);
  node.set_node_power_cap(1200.0);
  int resets = 0, keeps = 0;
  for (int i = 0; i < 50; ++i) {
    node.set_gpu_power_cap(0, 150.0);
    const double cap = node.gpu_power_cap(0).value_or(-1.0);
    if (cap == 300.0) ++resets;
    else ++keeps;
    EXPECT_NE(cap, 150.0) << "silent failure must not apply the request";
  }
  EXPECT_EQ(node.nvml_silent_failures(), 50);
  EXPECT_GT(resets, 0);
  EXPECT_GT(keeps, 0);
}

TEST(IbmNvmlFailure, NoFailuresAboveThreshold) {
  sim::Simulation sim;
  IbmAc922Config cfg;
  cfg.nvml_failure_rate = 1.0;
  IbmAc922Node node(sim, "flaky1", cfg);
  node.set_node_power_cap(1950.0);  // above the 1200 W failure regime
  node.set_gpu_power_cap(0, 150.0);
  EXPECT_DOUBLE_EQ(*node.gpu_power_cap(0), 150.0);
  EXPECT_EQ(node.nvml_silent_failures(), 0);
}

TEST(IbmCapLatency, WriteTakesEffectAfterFirmwareSettles) {
  sim::Simulation sim;
  IbmAc922Config cfg;
  cfg.node_cap_latency_s = 1.5;
  cfg.gpu_cap_latency_s = 0.3;
  IbmAc922Node node(sim, "slowfw", cfg);
  LoadDemand d;
  d.cpu_w = {110, 110};
  d.gpu_w = {280, 280, 280, 280};
  d.mem_w = 70;
  node.set_demand(d);
  const double before = node.node_draw_w();

  node.set_node_power_cap(1200.0);
  // Not yet in effect.
  sim.run_until(1.0);
  EXPECT_DOUBLE_EQ(node.node_draw_w(), before);
  EXPECT_FALSE(node.node_power_cap().has_value());
  // In effect after the latency.
  sim.run_until(2.0);
  ASSERT_TRUE(node.node_power_cap().has_value());
  EXPECT_LT(node.node_draw_w(), 1200.0 + 1e-6);

  // GPU cap: last writer wins across overlapping in-flight writes.
  node.set_gpu_power_cap(0, 150.0);
  sim.run_until(2.1);
  node.set_gpu_power_cap(0, 250.0);  // supersedes the 150 W write
  sim.run_until(3.0);
  ASSERT_TRUE(node.gpu_power_cap(0).has_value());
  EXPECT_DOUBLE_EQ(*node.gpu_power_cap(0), 250.0);
}

TEST(IbmPsr, LowerPsrReducesDerivedGpuCap) {
  sim::Simulation sim;
  IbmAc922Config cfg;
  cfg.psr = 50.0;
  IbmAc922Node half(sim, "psr50", cfg);
  IbmAc922Node full(sim, "psr100");
  EXPECT_LT(half.derived_gpu_cap(1950.0), full.derived_gpu_cap(1950.0));
}

// ---------------------------------------------------------------------------
// Cray EX235a (Tioga)
// ---------------------------------------------------------------------------

class CrayNodeTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  CrayEx235aNode node{sim, "tioga0"};
};

TEST_F(CrayNodeTest, Topology) {
  EXPECT_EQ(node.socket_count(), 1);
  EXPECT_EQ(node.gpu_count(), 8);
  EXPECT_EQ(node.oam_count(), 4);
}

TEST_F(CrayNodeTest, NoNodeOrMemorySensor) {
  const PowerSample s = node.sample();
  EXPECT_FALSE(s.node_w.has_value());
  EXPECT_FALSE(s.mem_w.has_value());
  EXPECT_TRUE(s.node_estimate_w.has_value());
  EXPECT_TRUE(s.gpu_is_oam);
  EXPECT_EQ(s.gpu_w.size(), 4u);  // per OAM, not per GCD
}

TEST_F(CrayNodeTest, OamSensorSumsGcdPairs) {
  LoadDemand d;
  d.cpu_w = {150};
  d.gpu_w = {100, 120, 60, 60, 60, 60, 60, 60};
  d.mem_w = 40;
  node.set_demand(d);
  const PowerSample s = node.sample();
  EXPECT_NEAR(s.gpu_w[0], 220.0, 0.01);
  EXPECT_NEAR(s.gpu_w[1], 120.0, 0.01);
}

TEST_F(CrayNodeTest, NodeEstimateIsConservative) {
  // The estimate excludes memory and base power, so it under-reports the
  // true draw — exactly the Tioga caveat in §IV-A.
  const PowerSample s = node.sample();
  EXPECT_LT(*s.node_estimate_w, node.node_draw_w());
}

TEST_F(CrayNodeTest, CappingPermissionDeniedForUsers) {
  EXPECT_EQ(node.set_gpu_power_cap(0, 200.0).status,
            CapStatus::PermissionDenied);
  EXPECT_EQ(node.set_socket_power_cap(0, 200.0).status,
            CapStatus::PermissionDenied);
  EXPECT_EQ(node.set_node_power_cap(2000.0).status, CapStatus::Unsupported);
}

TEST_F(CrayNodeTest, CapBadIndexStillOutOfRange) {
  EXPECT_EQ(node.set_gpu_power_cap(8, 200.0).status, CapStatus::OutOfRange);
}

TEST(CrayNodeEnabled, PostGaFirmwareAllowsCapping) {
  sim::Simulation sim;
  CrayEx235aConfig cfg;
  cfg.capping_enabled_for_users = true;
  CrayEx235aNode node(sim, "tioga-ga", cfg);
  EXPECT_TRUE(node.set_gpu_power_cap(0, 200.0).ok());
  LoadDemand d;
  d.cpu_w = {150};
  d.gpu_w.assign(8, 250.0);
  d.mem_w = 40;
  node.set_demand(d);
  EXPECT_NEAR(node.grants().gpu_w[0], 200.0, 0.01);
  EXPECT_NEAR(node.grants().gpu_w[1], 250.0, 0.01);
}

// ---------------------------------------------------------------------------
// Intel Xeon (generic RAPL platform)
// ---------------------------------------------------------------------------

class IntelNodeTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  IntelXeonNode node{sim, "intel0"};
};

TEST_F(IntelNodeTest, NoNodeDial) {
  EXPECT_EQ(node.set_node_power_cap(800.0).status, CapStatus::Unsupported);
}

TEST_F(IntelNodeTest, RaplClampsToPl1Floor) {
  const CapResult r = node.set_socket_power_cap(0, 10.0);
  EXPECT_EQ(r.status, CapStatus::Clamped);
  EXPECT_DOUBLE_EQ(*r.applied_watts, 75.0);
}

TEST_F(IntelNodeTest, SocketCapLimitsGrant) {
  LoadDemand d;
  d.cpu_w = {300, 300};
  d.mem_w = 50;
  node.set_demand(d);
  node.set_socket_power_cap(0, 150.0);
  EXPECT_NEAR(node.grants().cpu_w[0], 150.0, 0.01);
  EXPECT_NEAR(node.grants().cpu_w[1], 300.0, 0.01);
}

TEST_F(IntelNodeTest, SampleHasEstimateOnly) {
  const PowerSample s = node.sample();
  EXPECT_FALSE(s.node_w.has_value());
  EXPECT_TRUE(s.node_estimate_w.has_value());
  EXPECT_TRUE(s.mem_w.has_value());  // DRAM RAPL domain exists
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

TEST(Cluster, FactoryBuildsNamedNodes) {
  sim::Simulation sim;
  Cluster c = make_cluster(sim, Platform::LassenIbmAc922, 4);
  EXPECT_EQ(c.size(), 4);
  EXPECT_EQ(c.node(0).hostname(), "lassen0");
  EXPECT_EQ(c.node(3).hostname(), "lassen3");
  EXPECT_NO_THROW(c.node_by_hostname("lassen2"));
  EXPECT_THROW(c.node_by_hostname("nope"), std::out_of_range);
  EXPECT_THROW(c.node(4), std::out_of_range);
}

TEST(Cluster, HostnameIndexResolvesRanks) {
  sim::Simulation sim;
  Cluster c = make_cluster(sim, Platform::LassenIbmAc922, 6);
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(c.rank_by_hostname("lassen" + std::to_string(r)), r);
    EXPECT_EQ(&c.node_by_hostname("lassen" + std::to_string(r)), &c.node(r));
  }
  EXPECT_EQ(c.rank_by_hostname("lassen6"), -1);
  EXPECT_EQ(c.rank_by_hostname(""), -1);
  EXPECT_EQ(c.rank_by_hostname("LASSEN0"), -1);  // lookup is case-sensitive
}

TEST(Cluster, HostnameIndexFirstRegistrationWinsOnDuplicate) {
  sim::Simulation sim;
  Cluster c;
  c.add_node(make_node(sim, Platform::LassenIbmAc922, "twin"));
  c.add_node(make_node(sim, Platform::LassenIbmAc922, "twin"));
  c.add_node(make_node(sim, Platform::LassenIbmAc922, "solo"));
  ASSERT_EQ(c.size(), 3);
  // Matches the historical linear scan: the first "twin" is returned.
  EXPECT_EQ(c.rank_by_hostname("twin"), 0);
  EXPECT_EQ(&c.node_by_hostname("twin"), &c.node(0));
  EXPECT_EQ(c.rank_by_hostname("solo"), 2);
}

TEST(Cluster, FactoryRejectsNonPositive) {
  sim::Simulation sim;
  EXPECT_THROW(make_cluster(sim, Platform::LassenIbmAc922, 0),
               std::invalid_argument);
}

TEST(Cluster, TotalDrawSumsNodes) {
  sim::Simulation sim;
  Cluster c = make_cluster(sim, Platform::LassenIbmAc922, 8);
  EXPECT_NEAR(c.total_draw_w(), 8 * 400.0, 8.0);
}

TEST(Cluster, TotalEnergySums) {
  sim::Simulation sim;
  Cluster c = make_cluster(sim, Platform::LassenIbmAc922, 2);
  sim.run_until(10.0);
  EXPECT_NEAR(c.total_energy_joules(), 2 * 400.0 * 10.0, 10.0);
}

TEST(Cluster, PlatformNames) {
  EXPECT_STREQ(platform_name(Platform::LassenIbmAc922), "lassen");
  EXPECT_STREQ(platform_name(Platform::TiogaCrayEx235a), "tioga");
  EXPECT_STREQ(platform_name(Platform::GenericIntelXeon), "intel");
}

// ---------------------------------------------------------------------------
// FixedWattsVec and device-count limits
// ---------------------------------------------------------------------------

TEST(FixedWattsVec, BraceAssignmentSetsSize) {
  PowerSample s;
  s.cpu_w = {1.0, 2.0};
  EXPECT_EQ(s.cpu_w.size(), 2u);
  EXPECT_DOUBLE_EQ(s.cpu_w[1], 2.0);
  LoadDemand d;
  d.gpu_w = {280, 280, 280, 280};
  EXPECT_EQ(d.gpu_w.size(), 4u);
  d.gpu_w = {};
  EXPECT_TRUE(d.gpu_w.empty());
}

TEST(FixedWattsVec, OverCapacityThrowsExceptOnPushBack) {
  PowerSample s;
  EXPECT_THROW((s.cpu_w = {1, 2, 3, 4, 5}), std::length_error);
  EXPECT_THROW(s.gpu_w.assign(kMaxGpuSensors + 1, 1.0), std::length_error);
  EXPECT_THROW(s.gpu_w.resize(kMaxGpuSensors + 1), std::length_error);
  for (std::size_t i = 0; i <= kMaxSockets; ++i) s.cpu_w.push_back(1.0);
  EXPECT_EQ(s.cpu_w.size(), kMaxSockets);  // a sweep only under-reports
}

TEST(FixedWattsVec, ResizeKeepsPrefixAndFillsTail) {
  FixedWattsVec<kMaxGpuSensors> v = {5.0, 6.0};
  v.resize(4, 9.0);
  EXPECT_EQ(v, (FixedWattsVec<kMaxGpuSensors>{5.0, 6.0, 9.0, 9.0}));
  v.resize(1);
  EXPECT_EQ(v, (FixedWattsVec<kMaxGpuSensors>{5.0}));
  v.assign(3, 2.5);
  EXPECT_EQ(v, (FixedWattsVec<kMaxGpuSensors>{2.5, 2.5, 2.5}));
}

TEST(DeviceCountGuard, VendorsRejectMoreDevicesThanTheInlineCapacity) {
  sim::Simulation sim;
  IntelXeonConfig xeon;
  xeon.gpus = 9;
  EXPECT_THROW(IntelXeonNode(sim, "x", xeon), std::invalid_argument);
  xeon.gpus = 0;
  xeon.sockets = 5;
  EXPECT_THROW(IntelXeonNode(sim, "x", xeon), std::invalid_argument);
  IbmAc922Config ibm;
  ibm.gpus = 9;
  EXPECT_THROW(IbmAc922Node(sim, "l", ibm), std::invalid_argument);
  CrayEx235aConfig cray;
  cray.gcds = 10;
  EXPECT_THROW(CrayEx235aNode(sim, "t", cray), std::invalid_argument);
  ArmGraceConfig grace;
  grace.sockets = 5;
  EXPECT_THROW(ArmGraceNode(sim, "g", grace), std::invalid_argument);

  xeon.sockets = 4;
  xeon.gpus = 8;  // exactly at capacity
  IntelXeonNode full(sim, "x", xeon);
  EXPECT_EQ(full.idle_demand().cpu_w.size(), 4u);
  EXPECT_EQ(full.idle_demand().gpu_w.size(), 8u);
  EXPECT_EQ(full.sample().gpu_w.size(), 8u);
}

}  // namespace
}  // namespace fluxpower::hwsim
