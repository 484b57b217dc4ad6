// Tests for the SW4lite and Kripke models plus monitor decimation.
#include <gtest/gtest.h>

#include "experiments/scenario.hpp"
#include "flux/telemetry.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower::apps {
namespace {

using hwsim::Platform;

TEST(NewApps, NamesRoundTrip) {
  EXPECT_STREQ(app_kind_name(AppKind::Sw4lite), "sw4lite");
  EXPECT_STREQ(app_kind_name(AppKind::Kripke), "kripke");
  EXPECT_EQ(app_kind_from_name("sw4lite"), AppKind::Sw4lite);
  EXPECT_EQ(app_kind_from_name("kripke"), AppKind::Kripke);
}

TEST(NewApps, Sw4liteIsMemoryBound) {
  const AppProfile p = make_profile(AppKind::Sw4lite, Platform::LassenIbmAc922, 4);
  // Weak GPU power sensitivity: stalls, not flops, dominate.
  EXPECT_LT(p.phases[0].gpu_weight, 0.6);
  EXPECT_GT(p.phases[0].mem_w, 100.0);
}

TEST(NewApps, KripkeHasSweepPeriodicity) {
  const AppProfile p = make_profile(AppKind::Kripke, Platform::LassenIbmAc922, 4);
  ASSERT_EQ(p.phases.size(), 2u);
  EXPECT_GT(p.phases[0].gpu_w / p.phases[1].gpu_w, 2.5);  // sweep vs scatter
  EXPECT_GT(p.iteration_s, 4.0);  // FPP-detectable at 2 s sampling
}

TEST(NewApps, TiogaPortingGapsThrow) {
  // §V: no HIP SW4lite; Kripke fails on Tioga.
  EXPECT_THROW(make_profile(AppKind::Sw4lite, Platform::TiogaCrayEx235a, 4),
               std::invalid_argument);
  EXPECT_THROW(make_profile(AppKind::Kripke, Platform::TiogaCrayEx235a, 4),
               std::invalid_argument);
}

TEST(NewApps, BothRunEndToEndOnLassen) {
  for (AppKind kind : {AppKind::Sw4lite, AppKind::Kripke}) {
    auto out = experiments::run_single_job(Platform::LassenIbmAc922, kind, 2);
    EXPECT_GT(out.result.runtime_s, 10.0) << app_kind_name(kind);
    EXPECT_TRUE(out.result.telemetry_complete);
    EXPECT_GT(out.result.avg_node_power_w, 400.0);
  }
}

TEST(NewApps, KripkeRespondsToGpuCapsLikeASweepCode) {
  // Capping GPUs hurts Kripke's sweep phase but not scattering.
  auto base = experiments::run_single_job(Platform::LassenIbmAc922,
                                          AppKind::Kripke, 1);
  experiments::ScenarioConfig cfg;
  cfg.nodes = 1;
  cfg.load_manager = true;
  cfg.manager.static_node_cap_w = 1200.0;  // IBM derives 100 W GPU caps
  experiments::Scenario s(cfg);
  experiments::JobRequest req;
  req.kind = AppKind::Kripke;
  req.nnodes = 1;
  const flux::JobId id = s.submit(req);
  auto res = s.run();
  const double slowdown = res.job(id).runtime_s / base.result.runtime_s;
  EXPECT_GT(slowdown, 1.15);
  EXPECT_LT(slowdown, 2.0);
}

TEST(MonitorDecimation, MaxSamplesThinsUniformly) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 1;
  experiments::Scenario s(cfg);
  experiments::JobRequest req;
  req.kind = AppKind::Quicksilver;
  req.nnodes = 1;
  req.work_scale = 27.5;  // ~345 s -> ~172 samples
  s.submit(req);
  s.run();

  util::Json window = util::Json::object();
  window["start"] = 0.0;
  window["end"] = 340.0;
  window["max_samples"] = 20;
  util::Json got;
  s.instance().root().rpc(0, monitor::kGetDataTopic, std::move(window),
                          [&](const flux::Message& resp) {
                            got = flux::render_telemetry_payload(
                                resp.payload, *resp.telemetry);
                          });
  s.sim().run_until(s.sim().now() + 1.0);
  ASSERT_TRUE(got.is_object());
  EXPECT_TRUE(got.bool_or("decimated", false));
  ASSERT_EQ(got.at("samples").size(), 20u);
  // First and last retained samples bracket the window.
  const auto& samples = got.at("samples").as_array();
  EXPECT_LE(samples.front().number_or("timestamp", 1e9), 4.0);
  EXPECT_GE(samples.back().number_or("timestamp", 0.0), 330.0);
}

TEST(MonitorDecimation, NoThinningWhenUnderLimit) {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 1;
  experiments::Scenario s(cfg);
  s.sim().run_until(20.0);
  util::Json window = util::Json::object();
  window["start"] = 0.0;
  window["end"] = 20.0;
  window["max_samples"] = 100;
  util::Json got;
  s.instance().root().rpc(0, monitor::kGetDataTopic, std::move(window),
                          [&](const flux::Message& resp) {
                            got = flux::render_telemetry_payload(
                                resp.payload, *resp.telemetry);
                          });
  s.sim().run_until(21.0);
  EXPECT_FALSE(got.bool_or("decimated", true));
  EXPECT_EQ(got.at("samples").size(), 10u);
}

}  // namespace
}  // namespace fluxpower::apps
