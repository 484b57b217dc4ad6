// Cross-vendor integration tests: the monitor and manager running
// unmodified on every platform surface — the paper's core vendor-neutrality
// claim — plus the §V NVML-failure behaviour under the manager, and
// socket-domain FPP on CPU-only platforms.
#include <gtest/gtest.h>

#include "experiments/scenario.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "manager/power_manager.hpp"
#include "monitor/client.hpp"

namespace fluxpower {
namespace {

using namespace fluxpower::experiments;
using hwsim::Platform;

class VendorNeutralMonitor : public ::testing::TestWithParam<Platform> {};

TEST_P(VendorNeutralMonitor, MonitorWorksUnmodified) {
  const Platform platform = GetParam();
  ScenarioConfig cfg;
  cfg.platform = platform;
  cfg.nodes = 2;
  Scenario s(cfg);
  JobRequest req;
  req.kind = apps::AppKind::Laghos;
  req.nnodes = 2;
  req.work_scale = 4.0;
  const flux::JobId id = s.submit(req);
  auto res = s.run();
  const JobResult& job = res.job(id);
  EXPECT_GT(job.runtime_s, 0.0);
  EXPECT_TRUE(job.telemetry_complete);
  EXPECT_GT(job.avg_node_power_w, 0.0);
  EXPECT_GT(job.avg_node_energy_j, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Platforms, VendorNeutralMonitor,
                         ::testing::Values(Platform::LassenIbmAc922,
                                           Platform::TiogaCrayEx235a,
                                           Platform::GenericIntelXeon,
                                           Platform::GenericArmGrace),
                         [](const auto& info) {
                           return hwsim::platform_name(info.param);
                         });

TEST(VendorNeutralManager, SocketBudgetEnforcementOnIntel) {
  // CPU-only platform: the node-level-manager enforces its limit through
  // per-socket RAPL caps instead of GPU caps.
  ScenarioConfig cfg;
  cfg.platform = Platform::GenericIntelXeon;
  cfg.nodes = 4;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 4 * 500.0;
  cfg.manager.node_peak_w = 900.0;
  cfg.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  cfg.manager.control_period_s = 5.0;
  Scenario s(cfg);
  JobRequest req;
  req.kind = apps::AppKind::Gemm;  // folded onto sockets on this platform
  req.nnodes = 4;
  req.work_scale = 1.0;
  s.submit(req);
  s.sim().schedule_at(60.0, [&s] {
    for (int i = 0; i < 4; ++i) {
      auto cap0 = s.cluster().node(i).socket_power_cap(0);
      ASSERT_TRUE(cap0.has_value()) << "node " << i;
      EXPECT_LE(*cap0, 350.0);
      // No node sensor exists on this platform, so the budget derivation
      // cannot see the ~80 W base draw: enforcement systematically
      // overshoots by exactly the unmeasurable power — the same
      // conservative-estimate caveat the paper notes for Tioga (§IV-A).
      EXPECT_LE(s.cluster().node(i).node_draw_w(), 500.0 + 80.0 + 15.0);
    }
  });
  s.run();
}

TEST(VendorNeutralManager, SocketFppOnArm) {
  // FPP's controller is device-agnostic: on a GPU-less ARM node it manages
  // CPU sockets within the socket cap range.
  ScenarioConfig cfg;
  cfg.platform = Platform::GenericArmGrace;
  cfg.nodes = 2;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 2 * 420.0;
  cfg.manager.node_peak_w = 650.0;
  cfg.manager.node_policy = manager::NodePolicy::Fpp;
  cfg.manager.fpp.max_socket_cap_w = 500.0;
  cfg.manager.fpp.min_socket_cap_w = 150.0;
  Scenario s(cfg);
  JobRequest req;
  req.kind = apps::AppKind::Quicksilver;  // periodic, CPU-folded
  req.nnodes = 2;
  req.work_scale = 30.0;
  const flux::JobId id = s.submit(req);

  bool saw_controllers = false;
  s.sim().schedule_at(200.0, [&] {
    auto* mod = dynamic_cast<manager::PowerManagerModule*>(
        s.instance().broker(0).find_module("power-manager"));
    ASSERT_NE(mod, nullptr);
    const auto& fpp =
        dynamic_cast<const manager::FppNodePlugin&>(mod->node_plugin());
    ASSERT_EQ(fpp.controllers().size(), 1u);  // one per socket
    saw_controllers = true;
    const auto cap = s.cluster().node(0).socket_power_cap(0);
    ASSERT_TRUE(cap.has_value());
    EXPECT_GE(*cap, 150.0);
    EXPECT_LE(*cap, 500.0);
  });
  auto res = s.run();
  EXPECT_TRUE(saw_controllers);
  EXPECT_GT(res.job(id).runtime_s, 0.0);
}

TEST(VendorNeutralManager, TiogaCappingDeniedButTelemetryWorks) {
  // On the early-access Tioga surface the manager cannot enforce anything
  // (PermissionDenied) but must not break the run or the telemetry.
  ScenarioConfig cfg;
  cfg.platform = Platform::TiogaCrayEx235a;
  cfg.nodes = 2;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 2 * 800.0;
  cfg.manager.node_peak_w = 2000.0;
  cfg.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  Scenario s(cfg);
  JobRequest req;
  req.kind = apps::AppKind::Lammps;
  req.nnodes = 2;
  const flux::JobId id = s.submit(req);
  auto res = s.run();
  const JobResult& job = res.job(id);
  // Caps were denied, so the job ran at full power & nominal speed.
  EXPECT_NEAR(job.runtime_s, 93.7, 4.0);  // LAMMPS Tioga fit at 2 nodes
  EXPECT_FALSE(s.cluster().node(0).gpu_power_cap(0).has_value());
}

TEST(Section5Reliability, WedgedGpuEscapesDerivedCapUntilSuccessfulWrite) {
  sim::Simulation sim;
  hwsim::IbmAc922Config hw;
  hw.nvml_failure_rate = 1.0;
  hwsim::IbmAc922Node node(sim, "flaky", hw);
  node.set_node_power_cap(1150.0);
  hwsim::LoadDemand d;
  d.cpu_w = {110, 110};
  d.gpu_w = {280, 280, 280, 280};
  d.mem_w = 70;
  node.set_demand(d);

  // Write caps until at least one GPU wedges at max.
  int wedged = -1;
  for (int attempt = 0; attempt < 64 && wedged < 0; ++attempt) {
    for (int g = 0; g < 4; ++g) {
      node.set_gpu_power_cap(g, 190.0);
      if (node.gpu_cap_wedged(g)) wedged = g;
    }
  }
  ASSERT_GE(wedged, 0);
  // The wedged GPU's grant escapes the ~90 W derived cap...
  EXPECT_GT(node.grants().gpu_w[static_cast<std::size_t>(wedged)], 150.0);
  // ...but OPAL still bounds the node total.
  EXPECT_LE(node.node_draw_w(), 1150.0 + 1e-6);

  // A successful write (failure regime off once the cap is raised) fixes it.
  node.set_node_power_cap(1500.0);
  node.set_gpu_power_cap(wedged, 190.0);
  EXPECT_FALSE(node.gpu_cap_wedged(wedged));
  EXPECT_NEAR(node.grants().gpu_w[static_cast<std::size_t>(wedged)], 158.0,
              35.0);  // min(190 NVML, derived(1500))
}

TEST(MonitorReconfig, SetConfigRpcChangesSamplingAndBuffer) {
  ScenarioConfig cfg;
  cfg.nodes = 1;
  Scenario s(cfg);
  auto& root = s.instance().root();

  s.sim().run_until(10.0);
  util::Json req = util::Json::object();
  req["sample_period_s"] = 0.5;
  req["buffer_capacity"] = 16;
  bool acked = false;
  root.rpc(0, monitor::kSetConfigTopic, std::move(req),
           [&](const flux::Message& resp) {
             acked = !resp.is_error();
           });
  s.sim().run_until(11.0);
  ASSERT_TRUE(acked);

  // After 20 more seconds the 16-slot buffer holds 0.5 s-spaced samples.
  s.sim().run_until(31.0);
  util::Json status_req = util::Json::object();
  util::Json status;
  root.rpc(0, monitor::kStatusTopic, std::move(status_req),
           [&](const flux::Message& resp) { status = resp.payload; });
  s.sim().run_until(32.0);
  EXPECT_EQ(status.int_or("buffer_capacity", 0), 16);
  EXPECT_EQ(status.int_or("buffer_size", 0), 16);
  EXPECT_DOUBLE_EQ(status.number_or("sample_period_s", 0.0), 0.5);
  EXPECT_GT(status.int_or("evicted", 0), 0);
}

TEST(MonitorReconfig, RejectsInvalidConfig) {
  ScenarioConfig cfg;
  cfg.nodes = 1;
  Scenario s(cfg);
  util::Json req = util::Json::object();
  req["sample_period_s"] = -1.0;
  int errnum = 0;
  s.instance().root().rpc(0, monitor::kSetConfigTopic, std::move(req),
                          [&](const flux::Message& resp) {
                            errnum = resp.errnum;
                          });
  s.sim().run_until(1.0);
  EXPECT_EQ(errnum, flux::kEInval);
}

}  // namespace
}  // namespace fluxpower
