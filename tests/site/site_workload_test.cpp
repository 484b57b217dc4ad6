// Tests for the multi-week site scenario ingredients: the diurnal load
// model, the time-of-use price signal, the deterministic arrival generator,
// and a short end-to-end federation run through run_site_ops.
#include "experiments/site_workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "experiments/site_ops.hpp"
#include "manager/site_policy.hpp"

namespace fluxpower::experiments {
namespace {

constexpr double kHour = 3600.0;
constexpr double kDay = 86400.0;

TEST(DiurnalModel, FollowsTheWeeklyShape) {
  const apps::DiurnalModel m;
  // Monday 03:00 — night floor; 08:00 — mid-ramp; noon — plateau;
  // 19:30 — mid-decline; Saturday noon — weekend-scaled plateau.
  EXPECT_DOUBLE_EQ(m.level_at(3.0 * kHour), m.night_level);
  EXPECT_DOUBLE_EQ(m.level_at(8.0 * kHour),
                   m.night_level + (m.day_level - m.night_level) * 0.5);
  EXPECT_DOUBLE_EQ(m.level_at(12.0 * kHour), m.day_level);
  EXPECT_DOUBLE_EQ(m.level_at(19.5 * kHour),
                   m.day_level + (m.night_level - m.day_level) * 0.5);
  EXPECT_DOUBLE_EQ(m.level_at(5.0 * kDay + 12.0 * kHour),
                   m.day_level * m.weekend_factor);
  // Week-periodic: the second Wednesday looks like the first.
  EXPECT_DOUBLE_EQ(m.level_at(2.0 * kDay + 10.0 * kHour),
                   m.level_at(9.0 * kDay + 10.0 * kHour));
}

TEST(DiurnalModel, MakeDiurnalTraceScalesThePeakDemand) {
  apps::DiurnalModel m;
  hwsim::LoadDemand peak;
  peak.cpu_w = {200.0, 200.0};
  peak.gpu_w = {250.0};
  peak.mem_w = 60.0;
  const apps::PowerTrace trace =
      apps::make_diurnal_trace(m, 2.0 * kDay, 600.0, peak);
  ASSERT_EQ(trace.points.size(), static_cast<std::size_t>(2 * 144) + 1);
  // Every point is peak x level(t).
  for (const apps::TracePoint& p : trace.points) {
    const double level = m.level_at(p.t_s);
    EXPECT_DOUBLE_EQ(p.demand.cpu_w[0], 200.0 * level);
    EXPECT_DOUBLE_EQ(p.demand.gpu_w[0], 250.0 * level);
    EXPECT_DOUBLE_EQ(p.demand.mem_w, 60.0 * level);
  }
  EXPECT_THROW(apps::make_diurnal_trace(m, 0.0, 600.0, peak),
               std::invalid_argument);
  EXPECT_THROW(apps::make_diurnal_trace(m, 100.0, 0.0, peak),
               std::invalid_argument);
}

TEST(PriceSignal, TiersAndNextOffpeak) {
  const manager::PriceSignal price{manager::TariffConfig{}};
  using Tier = manager::PriceSignal::Tier;
  const double tue = kDay;  // t=0 is midnight Monday
  EXPECT_EQ(price.tier_at(tue + 3.0 * kHour), Tier::OffPeak);
  EXPECT_EQ(price.tier_at(tue + 10.0 * kHour), Tier::Shoulder);
  EXPECT_EQ(price.tier_at(tue + 18.0 * kHour), Tier::Peak);
  EXPECT_EQ(price.tier_at(tue + 22.0 * kHour), Tier::Shoulder);
  // Weekend is off-peak throughout, even at 18:00.
  EXPECT_EQ(price.tier_at(6.0 * kDay + 18.0 * kHour), Tier::OffPeak);
  EXPECT_DOUBLE_EQ(price.price_usd_per_mwh(tue + 18.0 * kHour), 145.0);
  EXPECT_DOUBLE_EQ(price.price_usd_per_ws(tue + 3.0 * kHour), 42.0 / 3.6e9);
  // next_offpeak: identity outside peak, end-of-window inside it.
  EXPECT_DOUBLE_EQ(price.next_offpeak_s(tue + 10.0 * kHour),
                   tue + 10.0 * kHour);
  EXPECT_DOUBLE_EQ(price.next_offpeak_s(tue + 18.0 * kHour),
                   tue + 21.0 * kHour);
}

std::vector<MemberWorkload> trio_shapes() {
  std::vector<SiteMemberSpec> specs = default_site_members();
  std::vector<MemberWorkload> shapes;
  for (const SiteMemberSpec& s : specs) {
    MemberWorkload w = s.workload;
    w.platform = s.platform;
    shapes.push_back(w);
  }
  return shapes;
}

TEST(SiteWorkload, DeterministicSortedAndInRange) {
  SiteWorkloadConfig cfg;
  cfg.duration_s = 3.0 * kDay;
  cfg.jobs_per_hour_peak = 12.0;
  const std::vector<MemberWorkload> shapes = trio_shapes();
  const std::vector<SiteJobSpec> a = make_site_workload(cfg, shapes);
  const std::vector<SiteJobSpec> b = make_site_workload(cfg, shapes);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].member, b[i].member);
    EXPECT_DOUBLE_EQ(a[i].submit_time_s, b[i].submit_time_s);
    EXPECT_DOUBLE_EQ(a[i].work_scale, b[i].work_scale);
  }
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end(),
                             [](const SiteJobSpec& x, const SiteJobSpec& y) {
                               return x.submit_time_s < y.submit_time_s;
                             }));
  int deferrable = 0, eco = 0;
  for (const SiteJobSpec& j : a) {
    ASSERT_GE(j.member, 0);
    ASSERT_LT(j.member, static_cast<int>(shapes.size()));
    const MemberWorkload& shape = shapes[static_cast<std::size_t>(j.member)];
    EXPECT_GE(j.nnodes, 1);
    EXPECT_LE(j.nnodes, shape.max_nodes);
    EXPECT_GT(j.work_scale, 0.0);
    EXPECT_LT(j.submit_time_s, cfg.duration_s);
    EXPECT_TRUE(std::find(shape.kinds.begin(), shape.kinds.end(), j.kind) !=
                shape.kinds.end());
    EXPECT_DOUBLE_EQ(j.start_deadline_s, j.deferrable
                                             ? cfg.deferrable_deadline_s
                                             : cfg.start_deadline_s);
    if (j.deferrable) ++deferrable;
    if (j.eco_tolerance > 0.0) ++eco;
  }
  // The enrolled fractions land near their configured rates.
  const double n = static_cast<double>(a.size());
  EXPECT_NEAR(deferrable / n, cfg.deferrable_frac, 0.1);
  EXPECT_NEAR(eco / n, cfg.eco_frac, 0.1);
}

TEST(SiteWorkload, ArrivalsFollowTheDiurnalCurve) {
  SiteWorkloadConfig cfg;
  cfg.duration_s = 7.0 * kDay;
  cfg.jobs_per_hour_peak = 30.0;
  const std::vector<SiteJobSpec> jobs =
      make_site_workload(cfg, trio_shapes());
  // Weekday plateau hours (Mon-Fri 10:00-16:00) vs night hours
  // (00:00-06:00): the plateau rate is day_level/night_level higher.
  int plateau = 0, night = 0;
  for (const SiteJobSpec& j : jobs) {
    const double day = std::fmod(j.submit_time_s, kDay) / kHour;
    const int dow = static_cast<int>(j.submit_time_s / kDay) % 7;
    if (dow < 5 && day >= 10.0 && day < 16.0) ++plateau;
    if (dow < 5 && day < 6.0) ++night;
  }
  ASSERT_GT(night, 0);
  // Expected ratio 1/0.35 ≈ 2.9; allow generous sampling slack.
  EXPECT_GT(static_cast<double>(plateau) / night, 1.8);
}

TEST(SiteWorkload, Validation) {
  SiteWorkloadConfig cfg;
  EXPECT_THROW(make_site_workload(cfg, {}), std::invalid_argument);
  std::vector<MemberWorkload> no_kinds(1);
  EXPECT_THROW(make_site_workload(cfg, no_kinds), std::invalid_argument);
  std::vector<MemberWorkload> zero_weight = trio_shapes();
  for (MemberWorkload& m : zero_weight) m.arrival_weight = 0.0;
  EXPECT_THROW(make_site_workload(cfg, zero_weight), std::invalid_argument);
  SiteWorkloadConfig bad = cfg;
  bad.duration_s = 0.0;
  EXPECT_THROW(make_site_workload(bad, trio_shapes()), std::invalid_argument);
}

TEST(SiteOps, ShortFederationRunCompletesJobsOnAllMembers) {
  SiteOpsConfig cfg;
  cfg.workload.duration_s = 6.0 * kHour;
  cfg.workload.jobs_per_hour_peak = 10.0;
  cfg.rebalance_period_s = 60.0;
  const SiteOpsResult r = run_site_ops(cfg);
  ASSERT_GT(r.jobs_total, 0);
  EXPECT_EQ(r.jobs_completed, r.jobs_total);
  EXPECT_EQ(r.jobs_started, r.jobs_total);
  EXPECT_GT(r.slo_attainment, 0.0);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_GT(r.energy_cost_usd, 0.0);
  EXPECT_GT(r.rounds_completed, 0);
  EXPECT_EQ(r.member_misses, 0u);
  ASSERT_EQ(r.members.size(), 3u);
  int members_with_jobs = 0;
  for (const SiteMemberStats& m : r.members) {
    if (m.jobs > 0) ++members_with_jobs;
    EXPECT_EQ(m.completed, m.jobs);
    EXPECT_GT(m.energy_j, 0.0);
  }
  EXPECT_EQ(members_with_jobs, 3);

  // Same config, same seed: the scorecard is deterministic.
  const SiteOpsResult again = run_site_ops(cfg);
  EXPECT_DOUBLE_EQ(again.energy_cost_usd, r.energy_cost_usd);
  EXPECT_EQ(again.slo_met, r.slo_met);
  EXPECT_DOUBLE_EQ(again.end_s, r.end_s);
}

TEST(SiteOps, TariffPolicyDefersDeferrableSubmissionsAtPeak) {
  SiteOpsConfig cfg;
  // Cover one weekday evening peak window (Monday 16:00-23:00 would span
  // it; we run a full day to keep the clock anchored at midnight Monday).
  cfg.workload.duration_s = 1.0 * kDay;
  cfg.workload.jobs_per_hour_peak = 12.0;
  cfg.rebalance_period_s = 120.0;
  cfg.site_policy = "tariff-aware-dr";
  const SiteOpsResult r = run_site_ops(cfg);
  EXPECT_GT(r.jobs_deferred, 0);
  EXPECT_EQ(r.jobs_completed, r.jobs_total);

  SiteOpsConfig base = cfg;
  base.site_policy = "demand-proportional";
  const SiteOpsResult b = run_site_ops(base);
  EXPECT_EQ(b.jobs_deferred, 0);
  EXPECT_EQ(b.jobs_total, r.jobs_total);  // same arrival skeleton
}

TEST(SiteOps, Validation) {
  SiteOpsConfig cfg;
  cfg.site_bound_w = 0.0;
  EXPECT_THROW(run_site_ops(cfg), std::invalid_argument);
  SiteOpsConfig unknown;
  unknown.site_policy = "nope";
  EXPECT_THROW(run_site_ops(unknown), std::invalid_argument);
}

TEST(SiteOps, NonFiniteAppStepIsRejected) {
  for (double step : {std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    SiteOpsConfig cfg;
    cfg.workload.duration_s = 6.0 * kHour;
    cfg.workload.jobs_per_hour_peak = 10.0;
    cfg.app_step_s = step;
    try {
      run_site_ops(cfg);
      ADD_FAILURE() << "app_step_s " << step << " ran";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("AppRuntime: step"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace fluxpower::experiments
