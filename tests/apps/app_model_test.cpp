// Tests for apps/app_model: profiles, perf curves, phase speeds.
#include "apps/app_model.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace fluxpower::apps {
namespace {

using hwsim::Platform;

TEST(AppKind, Names) {
  EXPECT_STREQ(app_kind_name(AppKind::Lammps), "lammps");
  EXPECT_STREQ(app_kind_name(AppKind::Quicksilver), "quicksilver");
  EXPECT_EQ(app_kind_from_name("gemm"), AppKind::Gemm);
  EXPECT_EQ(app_kind_from_name("laghos"), AppKind::Laghos);
  EXPECT_EQ(app_kind_from_name("nqueens"), AppKind::NQueens);
  EXPECT_THROW(app_kind_from_name("hpl"), std::invalid_argument);
}

TEST(PerfCurve, EmptyCurveIsIdentity) {
  EXPECT_DOUBLE_EQ(eval_perf_curve({}, 0.3), 0.3);
  EXPECT_DOUBLE_EQ(eval_perf_curve({}, 1.5), 1.0);
  EXPECT_DOUBLE_EQ(eval_perf_curve({}, -0.5), 0.0);
}

TEST(PerfCurve, InterpolatesAnchors) {
  PerfCurve c{{0.0, 0.0}, {0.5, 0.6}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(eval_perf_curve(c, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(eval_perf_curve(c, 0.5), 0.6);
  EXPECT_DOUBLE_EQ(eval_perf_curve(c, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(eval_perf_curve(c, 0.25), 0.3);
  EXPECT_DOUBLE_EQ(eval_perf_curve(c, 0.75), 0.8);
}

TEST(PerfCurve, ClampsOutOfRange) {
  PerfCurve c{{0.2, 0.1}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(eval_perf_curve(c, 0.0), 0.1);
  EXPECT_DOUBLE_EQ(eval_perf_curve(c, 2.0), 1.0);
}

TEST(Profiles, InvalidArgsRejected) {
  EXPECT_THROW(make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 0),
               std::invalid_argument);
  EXPECT_THROW(make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 4, 0.0),
               std::invalid_argument);
  // A non-finite scale would simulate a job that never runs.
  for (double scale : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 4, scale),
                 std::invalid_argument)
        << scale;
  }
}

TEST(Profiles, PhaseWorkFractionsSumToOne) {
  for (AppKind kind : {AppKind::Lammps, AppKind::Gemm, AppKind::Quicksilver,
                       AppKind::Laghos, AppKind::NQueens}) {
    for (Platform p : {Platform::LassenIbmAc922, Platform::TiogaCrayEx235a,
                       Platform::GenericIntelXeon}) {
      const AppProfile prof = make_profile(kind, p, 4);
      double total = 0.0;
      for (const AppPhase& ph : prof.phases) total += ph.work_frac;
      EXPECT_NEAR(total, 1.0, 1e-9)
          << app_kind_name(kind) << " on " << hwsim::platform_name(p);
      EXPECT_GT(prof.iteration_s, 0.0);
      EXPECT_GT(prof.runtime_s, 0.0);
    }
  }
}

TEST(Profiles, WeightsAreSane) {
  for (AppKind kind : {AppKind::Lammps, AppKind::Gemm, AppKind::Quicksilver,
                       AppKind::Laghos, AppKind::NQueens}) {
    const AppProfile prof = make_profile(kind, Platform::LassenIbmAc922, 4);
    for (const AppPhase& ph : prof.phases) {
      EXPECT_GE(ph.gpu_weight, 0.0);
      EXPECT_GE(ph.cpu_weight, 0.0);
      EXPECT_LE(ph.gpu_weight + ph.cpu_weight, 1.0 + 1e-9);
    }
  }
}

TEST(Profiles, LammpsStrongScalingMatchesPaperRuntimes) {
  // Table II anchors.
  EXPECT_NEAR(make_profile(AppKind::Lammps, Platform::LassenIbmAc922, 4).runtime_s,
              77.17, 1.5);
  EXPECT_NEAR(make_profile(AppKind::Lammps, Platform::LassenIbmAc922, 8).runtime_s,
              46.33, 1.5);
  EXPECT_NEAR(make_profile(AppKind::Lammps, Platform::TiogaCrayEx235a, 4).runtime_s,
              51.0, 1.5);
  EXPECT_NEAR(make_profile(AppKind::Lammps, Platform::TiogaCrayEx235a, 8).runtime_s,
              29.67, 1.5);
}

TEST(Profiles, LammpsRuntimeDecreasesWithNodes) {
  double prev = 1e9;
  for (int n : {1, 2, 4, 8, 16, 32}) {
    const double t =
        make_profile(AppKind::Lammps, Platform::LassenIbmAc922, n).runtime_s;
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST(Profiles, LammpsPowerDecreasesWithStrongScaling) {
  // Fig 2 / Table II: per-node (and per-GPU) power falls as the strongly
  // scaled problem shrinks.
  const auto p4 = make_profile(AppKind::Lammps, Platform::LassenIbmAc922, 4);
  const auto p32 = make_profile(AppKind::Lammps, Platform::LassenIbmAc922, 32);
  EXPECT_GT(p4.phases[0].gpu_w, p32.phases[0].gpu_w);
}

TEST(Profiles, WeakScaledRuntimesRoughlyFlat) {
  for (AppKind kind : {AppKind::Gemm, AppKind::Laghos}) {
    const double t1 =
        make_profile(kind, Platform::LassenIbmAc922, 1).runtime_s;
    const double t32 =
        make_profile(kind, Platform::LassenIbmAc922, 32).runtime_s;
    EXPECT_NEAR(t32 / t1, 1.0, 0.15) << app_kind_name(kind);
  }
}

TEST(Profiles, QuicksilverHipAnomalyOnTioga) {
  // Table II: expected ~26 s, observed ~102-106 s.
  const double t4 =
      make_profile(AppKind::Quicksilver, Platform::TiogaCrayEx235a, 4).runtime_s;
  const double t8 =
      make_profile(AppKind::Quicksilver, Platform::TiogaCrayEx235a, 8).runtime_s;
  EXPECT_NEAR(t4, 102.0, 6.0);
  EXPECT_NEAR(t8, 106.0, 6.0);
}

TEST(Profiles, QuicksilverHasStrongPeriodicPhases) {
  const auto p = make_profile(AppKind::Quicksilver, Platform::LassenIbmAc922, 2,
                              27.5);
  ASSERT_EQ(p.phases.size(), 2u);
  // Square-wave amplitude: GPU demand swings by > 3x between phases.
  EXPECT_GT(p.phases[0].gpu_w / p.phases[1].gpu_w, 3.0);
  // Period sits in FPP's detectable band at 2 s sampling.
  EXPECT_GT(p.iteration_s, 5.0);
  EXPECT_LT(p.iteration_s, 30.0);
}

TEST(Profiles, NQueensIsCpuOnly) {
  const auto p = make_profile(AppKind::NQueens, Platform::LassenIbmAc922, 2);
  for (const AppPhase& ph : p.phases) {
    EXPECT_DOUBLE_EQ(ph.gpu_weight, 0.0);
    EXPECT_LE(ph.gpu_w, 35.0);  // GPUs stay at idle
  }
}

TEST(Profiles, WorkScaleMultipliesRuntime) {
  const double base =
      make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 6, 1.0).runtime_s;
  const double doubled =
      make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 6, 2.0).runtime_s;
  EXPECT_NEAR(doubled, 2.0 * base, 1e-9);
  // Table IV: 2x GEMM runs ~548 s unconstrained.
  EXPECT_NEAR(doubled, 548.0, 10.0);
}

TEST(Profiles, IntelVariantHasNoGpuDemand) {
  const auto p = make_profile(AppKind::Gemm, Platform::GenericIntelXeon, 2);
  for (const AppPhase& ph : p.phases) {
    EXPECT_DOUBLE_EQ(ph.gpu_w, 0.0);
    EXPECT_DOUBLE_EQ(ph.gpu_weight, 0.0);
    EXPECT_GT(ph.cpu_weight, 0.0);
  }
}

TEST(RuntimeSigma, MatchesPaperVariabilityPattern) {
  // Lassen Laghos/QS at 1-2 nodes: >20% swings (we model sigma=10%);
  // larger scales and Tioga are quiet.
  EXPECT_GT(runtime_sigma(AppKind::Laghos, Platform::LassenIbmAc922, 1), 0.05);
  EXPECT_GT(runtime_sigma(AppKind::Quicksilver, Platform::LassenIbmAc922, 2), 0.05);
  EXPECT_LT(runtime_sigma(AppKind::Laghos, Platform::LassenIbmAc922, 8), 0.03);
  EXPECT_LT(runtime_sigma(AppKind::Lammps, Platform::LassenIbmAc922, 1), 0.03);
  EXPECT_LT(runtime_sigma(AppKind::Laghos, Platform::TiogaCrayEx235a, 1), 0.01);
}

TEST(PhaseSpeed, FullPowerIsFullSpeed) {
  const auto prof = make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 6);
  const AppPhase& compute = prof.phases[1];
  hwsim::LoadDemand demand;
  demand.gpu_w.assign(4, compute.gpu_w);
  demand.cpu_w.assign(2, compute.cpu_w);
  hwsim::Grants grants;
  grants.gpu_w = demand.gpu_w;
  grants.cpu_w = demand.cpu_w;
  EXPECT_NEAR(phase_speed(prof, compute, demand, grants), 1.0, 1e-9);
}

TEST(PhaseSpeed, GpuCapSlowsComputePhase) {
  const auto prof = make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 6);
  const AppPhase& compute = prof.phases[1];
  hwsim::LoadDemand demand;
  demand.gpu_w.assign(4, compute.gpu_w);
  demand.cpu_w.assign(2, compute.cpu_w);
  hwsim::Grants grants;
  grants.gpu_w.assign(4, 100.0);  // IBM-default 1200 W cap
  grants.cpu_w = demand.cpu_w;
  const double speed = phase_speed(prof, compute, demand, grants);
  // Table IV implies ~0.48x on the dominant phase (548 s -> 1145 s).
  EXPECT_GT(speed, 0.30);
  EXPECT_LT(speed, 0.60);
}

TEST(PhaseSpeed, CpuOnlyPhaseIgnoresGpuCap) {
  const auto prof = make_profile(AppKind::NQueens, Platform::LassenIbmAc922, 2);
  const AppPhase& solve = prof.phases[0];
  hwsim::LoadDemand demand;
  demand.gpu_w.assign(4, solve.gpu_w);
  demand.cpu_w.assign(2, solve.cpu_w);
  hwsim::Grants grants;
  grants.gpu_w.assign(4, 0.0);  // fully starved GPUs
  grants.cpu_w = demand.cpu_w;
  EXPECT_NEAR(phase_speed(prof, solve, demand, grants), 1.0, 0.06);
}

TEST(PhaseSpeed, MonotoneInGrantedPower) {
  const auto prof = make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 6);
  const AppPhase& compute = prof.phases[1];
  hwsim::LoadDemand demand;
  demand.gpu_w.assign(4, compute.gpu_w);
  demand.cpu_w.assign(2, compute.cpu_w);
  double prev = 0.0;
  for (double cap = 50.0; cap <= 300.0; cap += 25.0) {
    hwsim::Grants grants;
    grants.gpu_w.assign(4, std::min(cap, compute.gpu_w));
    grants.cpu_w = demand.cpu_w;
    const double s = phase_speed(prof, compute, demand, grants);
    EXPECT_GE(s, prev - 1e-12);
    prev = s;
  }
}

}  // namespace
}  // namespace fluxpower::apps
