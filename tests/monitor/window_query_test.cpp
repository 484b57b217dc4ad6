// Tests for the ad-hoc window query and adjacent operator surfaces.
#include <gtest/gtest.h>

#include "experiments/scenario.hpp"
#include "manager/power_manager.hpp"
#include "monitor/client.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower::monitor {
namespace {

TEST(WindowQuery, ReturnsRequestedRanksAndWindow) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 6;
  experiments::Scenario s(cfg);
  experiments::JobRequest req;
  req.kind = apps::AppKind::Laghos;
  req.nnodes = 6;
  req.work_scale = 6.0;  // ~75 s
  s.submit(req);
  s.run();

  MonitorClient client(s.instance());
  auto data = client.query_window_blocking({1, 3, 5}, 20.0, 60.0);
  ASSERT_TRUE(data.has_value());
  ASSERT_EQ(data->nodes.size(), 3u);
  EXPECT_EQ(data->nodes[0].rank, 1);
  EXPECT_EQ(data->nodes[2].rank, 5);
  for (const auto& n : data->nodes) {
    // 2 s grid over [20, 60] inclusive -> 21 samples.
    EXPECT_EQ(n.samples.size(), 21u);
    EXPECT_GE(n.samples.front().timestamp_s, 20.0);
    EXPECT_LE(n.samples.back().timestamp_s, 60.0);
    EXPECT_TRUE(n.complete);
  }
  // Laghos is running in that window: power above idle.
  EXPECT_GT(data->average_node_power_w(), 430.0);
}

TEST(WindowQuery, DecimationHonored) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 2;
  experiments::Scenario s(cfg);
  s.sim().run_until(200.0);
  MonitorClient client(s.instance());
  // {window end, max_samples}: the thinned run always ends on the newest
  // in-window sample, and a single sample is that one.
  for (const auto& [end, max_samples] :
       {std::pair{200.0, 7}, std::pair{100.0, 2}, std::pair{100.0, 1}}) {
    auto data = client.query_window_blocking({0, 1}, 0.0, end, max_samples);
    ASSERT_TRUE(data.has_value());
    for (const auto& n : data->nodes) {
      ASSERT_EQ(n.samples.size(), static_cast<std::size_t>(max_samples))
          << "max_samples " << max_samples;
      EXPECT_EQ(n.samples.back().timestamp_s, end);
    }
  }
}

TEST(WindowQuery, EmptyWindowYieldsNoSamples) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 1;
  experiments::Scenario s(cfg);
  s.sim().run_until(50.0);
  MonitorClient client(s.instance());
  // A window in the future has no samples but the node still answers.
  auto data = client.query_window_blocking({0}, 1000.0, 2000.0);
  ASSERT_TRUE(data.has_value());
  ASSERT_EQ(data->nodes.size(), 1u);
  EXPECT_TRUE(data->nodes[0].samples.empty());
}

TEST(ClusterBoundRpc, GuestDeniedOwnerAccepted) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 2;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 4000.0;
  experiments::Scenario s(cfg);

  util::Json payload = util::Json::object();
  payload["bound_w"] = 3000.0;
  s.instance().root().set_userid(flux::kGuestUserid);
  int errnum = -1;
  s.instance().root().rpc(flux::kRootRank, manager::kSetClusterBoundTopic,
                          payload, [&](const flux::Message& m) {
                            errnum = m.errnum;
                          });
  s.sim().run_until(1.0);
  EXPECT_EQ(errnum, flux::kEPerm);

  s.instance().root().set_userid(flux::kOwnerUserid);
  util::Json payload2 = util::Json::object();
  payload2["bound_w"] = 3000.0;
  errnum = -1;
  s.instance().root().rpc(flux::kRootRank, manager::kSetClusterBoundTopic,
                          std::move(payload2), [&](const flux::Message& m) {
                            errnum = m.errnum;
                          });
  s.sim().run_until(2.0);
  EXPECT_EQ(errnum, 0);

  // Negative bound rejected.
  util::Json payload3 = util::Json::object();
  payload3["bound_w"] = -1.0;
  errnum = -1;
  s.instance().root().rpc(flux::kRootRank, manager::kSetClusterBoundTopic,
                          std::move(payload3), [&](const flux::Message& m) {
                            errnum = m.errnum;
                          });
  s.sim().run_until(3.0);
  EXPECT_EQ(errnum, flux::kEInval);
}

TEST(NodeStatus, ReportsMeasuredDraw) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 1;
  cfg.load_manager = true;
  experiments::Scenario s(cfg);
  s.sim().run_until(5.0);
  util::Json got;
  s.instance().root().rpc(0, manager::kNodeStatusTopic, util::Json::object(),
                          [&](const flux::Message& m) { got = m.payload; });
  s.sim().run_until(6.0);
  EXPECT_NEAR(got.number_or("node_draw_w", 0.0), 400.0, 5.0);  // idle Lassen
}

TEST(MetricsText, TiogaUsesEstimateDomain) {
  experiments::ScenarioConfig cfg;
  cfg.platform = hwsim::Platform::TiogaCrayEx235a;
  cfg.nodes = 1;
  experiments::Scenario s(cfg);
  s.sim().run_until(5.0);
  auto* mod = dynamic_cast<PowerMonitorModule*>(
      s.instance().broker(0).find_module("power-monitor"));
  ASSERT_NE(mod, nullptr);
  const std::string text = mod->metrics_text();
  EXPECT_NE(text.find("domain=\"node_estimate\""), std::string::npos) << text;
  EXPECT_NE(text.find("domain=\"gpu_watts_oam_0\""), std::string::npos);
  EXPECT_EQ(text.find("domain=\"mem_watts\""), std::string::npos);  // no sensor
}

TEST(FppWelchIntegration, WelchEstimatorDrivesFpp) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 2;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = 2 * 1950.0;
  cfg.manager.node_policy = manager::NodePolicy::Fpp;
  cfg.manager.fpp.period_method = dsp::PeriodMethod::WelchPeriodogram;
  experiments::Scenario s(cfg);
  experiments::JobRequest req;
  req.kind = apps::AppKind::Quicksilver;
  req.nnodes = 2;
  req.work_scale = 30.0;
  const flux::JobId id = s.submit(req);
  auto res = s.run();
  // Runs to completion with the alternative estimator; FPP probed.
  EXPECT_GT(res.job(id).runtime_s, 300.0);
  auto* mod = dynamic_cast<manager::PowerManagerModule*>(
      s.instance().broker(0).find_module("power-manager"));
  int reductions = 0;
  const auto& fpp =
      dynamic_cast<const manager::FppNodePlugin&>(mod->node_plugin());
  for (const auto& c : fpp.controllers()) reductions += c->reductions();
  EXPECT_GT(reductions, 0);
}

}  // namespace
}  // namespace fluxpower::monitor
