// Tests for apps/app_runtime: workload execution against node models.
#include "apps/app_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "hwsim/arm_grace.hpp"
#include "hwsim/cluster.hpp"
#include "hwsim/cray_ex235a.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "hwsim/intel_xeon.hpp"
#include "variorum/variorum.hpp"

namespace fluxpower::apps {
namespace {

using hwsim::Platform;

class AppRuntimeTest : public ::testing::Test {
 protected:
  std::vector<hwsim::Node*> make_nodes(int n) {
    cluster_ = hwsim::make_cluster(sim_, Platform::LassenIbmAc922, n);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < n; ++i) nodes.push_back(&cluster_.node(i));
    return nodes;
  }

  double run_to_completion(AppRuntime& rt) {
    double finished_at = -1.0;
    rt.start([&] { finished_at = sim_.now(); });
    while (finished_at < 0.0 && sim_.step()) {
    }
    return finished_at;
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
};

TEST_F(AppRuntimeTest, ConstructionValidation) {
  auto prof = make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 1);
  EXPECT_THROW(AppRuntime(sim_, {}, prof), std::invalid_argument);
  auto nodes = make_nodes(1);
  AppProfile empty = prof;
  empty.phases.clear();
  EXPECT_THROW(AppRuntime(sim_, nodes, empty), std::invalid_argument);
  AppProfile badfrac = prof;
  badfrac.phases[0].work_frac = 0.9;
  EXPECT_THROW(AppRuntime(sim_, nodes, badfrac), std::invalid_argument);
  AppRuntimeOptions opts;
  for (double step : {0.0, -0.5, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    opts.step_s = step;
    EXPECT_THROW(AppRuntime(sim_, nodes, prof, opts), std::invalid_argument)
        << "step_s " << step;
  }
}

TEST_F(AppRuntimeTest, UnconstrainedRunMatchesNominalRuntime) {
  auto nodes = make_nodes(2);
  auto prof = make_profile(AppKind::Laghos, Platform::LassenIbmAc922, 2);
  AppRuntime rt(sim_, nodes, prof);
  const double t = run_to_completion(rt);
  EXPECT_NEAR(t, prof.runtime_s, 1.0);
  EXPECT_DOUBLE_EQ(rt.work_done(), prof.total_work());
  EXPECT_FALSE(rt.running());
}

TEST_F(AppRuntimeTest, NodesReturnToIdleAfterCompletion) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Laghos, Platform::LassenIbmAc922, 1);
  AppRuntime rt(sim_, nodes, prof);
  run_to_completion(rt);
  EXPECT_NEAR(nodes[0]->node_draw_w(), 400.0, 1.0);
}

TEST_F(AppRuntimeTest, DrawRisesWhileRunning) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 1);
  AppRuntime rt(sim_, nodes, prof);
  rt.start([] {});
  sim_.run_until(30.0);
  EXPECT_GT(nodes[0]->node_draw_w(), 800.0);
  rt.cancel();
}

TEST_F(AppRuntimeTest, GpuCapSlowsGemm) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 1);
  // IBM default at 1200 W: each GPU capped to 100 W.
  variorum::cap_best_effort_node_power_limit(*nodes[0], 1200.0);
  AppRuntime rt(sim_, nodes, prof);
  const double t = run_to_completion(rt);
  // Paper: 548 -> 1145 s (2.09x) for the 2x problem; same factor applies.
  EXPECT_GT(t, 1.7 * prof.runtime_s);
  EXPECT_LT(t, 2.6 * prof.runtime_s);
}

TEST_F(AppRuntimeTest, GpuCapBarelyAffectsQuicksilver) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Quicksilver, Platform::LassenIbmAc922, 1,
                           27.5);
  variorum::cap_each_gpu_power_limit(*nodes[0], 100.0);
  AppRuntime rt(sim_, nodes, prof);
  const double t = run_to_completion(rt);
  // Table IV: 348 -> 359 s (~3%).
  EXPECT_LT(t, 1.12 * prof.runtime_s);
}

TEST_F(AppRuntimeTest, JobRunsAtSlowestNodeSpeed) {
  auto nodes = make_nodes(2);
  auto prof = make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 2);
  // Cap only the second node: bulk-synchronous MPI drags both.
  variorum::cap_each_gpu_power_limit(*nodes[1], 100.0);
  AppRuntime rt(sim_, nodes, prof);
  const double t = run_to_completion(rt);
  EXPECT_GT(t, 1.6 * prof.runtime_s);
}

TEST_F(AppRuntimeTest, SpeedFactorScalesRuntime) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Laghos, Platform::LassenIbmAc922, 1);
  AppRuntimeOptions opts;
  opts.speed_factor = 0.5;
  AppRuntime rt(sim_, nodes, prof, opts);
  const double t = run_to_completion(rt);
  EXPECT_NEAR(t, 2.0 * prof.runtime_s, 2.0);
}

TEST_F(AppRuntimeTest, StolenTimeSlowsProgress) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Laghos, Platform::LassenIbmAc922, 1);
  // Steal 10% of every step via a periodic thief (telemetry-like).
  sim::PeriodicTask thief(sim_, 0.5, [&] {
    nodes[0]->add_stolen_time(0.05);
    return true;
  });
  AppRuntime rt(sim_, nodes, prof);
  const double t = run_to_completion(rt);
  EXPECT_NEAR(t, prof.runtime_s / 0.9, 2.5);
}

TEST_F(AppRuntimeTest, CancelStopsAndIdles) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 1);
  bool completed = false;
  AppRuntime rt(sim_, nodes, prof);
  rt.start([&] { completed = true; });
  sim_.run_until(20.0);
  rt.cancel();
  sim_.run_until(2000.0);
  EXPECT_FALSE(completed);
  EXPECT_FALSE(rt.running());
  EXPECT_NEAR(nodes[0]->node_draw_w(), 400.0, 1.0);
}

TEST_F(AppRuntimeTest, DoubleStartThrows) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Laghos, Platform::LassenIbmAc922, 1);
  AppRuntime rt(sim_, nodes, prof);
  rt.start([] {});
  EXPECT_THROW(rt.start([] {}), std::logic_error);
  rt.cancel();
}

TEST_F(AppRuntimeTest, PhaseAtWalksIterationStructure) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Gemm, Platform::LassenIbmAc922, 1);
  AppRuntime rt(sim_, nodes, prof);
  // GEMM: staging is the first 15% of each iteration.
  const double iter = prof.iteration_s;
  EXPECT_EQ(rt.phase_at(0.0).name, "staging");
  EXPECT_EQ(rt.phase_at(0.10 * iter).name, "staging");
  EXPECT_EQ(rt.phase_at(0.50 * iter).name, "dgemm");
  EXPECT_EQ(rt.phase_at(iter + 0.05 * iter).name, "staging");  // wraps
}

TEST_F(AppRuntimeTest, QuicksilverPowerSignalIsPeriodic) {
  auto nodes = make_nodes(1);
  auto prof = make_profile(AppKind::Quicksilver, Platform::LassenIbmAc922, 1,
                           27.5);
  AppRuntime rt(sim_, nodes, prof);
  rt.start([] {});
  std::vector<double> series;
  sim::PeriodicTask sampler(sim_, 2.0, [&] {
    series.push_back(nodes[0]->node_draw_w());
    return series.size() < 60;
  });
  sim_.run_until(125.0);
  rt.cancel();
  const double lo = *std::min_element(series.begin(), series.end());
  const double hi = *std::max_element(series.begin(), series.end());
  EXPECT_GT(hi - lo, 300.0);  // visible square wave (Fig 1b)
}

// ---------------------------------------------------------------------------
// Work shared across identical nodes
// ---------------------------------------------------------------------------

std::uint64_t bits(double w) { return std::bit_cast<std::uint64_t>(w); }

template <std::size_t N>
void expect_same_bits(const hwsim::FixedWattsVec<N>& a,
                      const hwsim::FixedWattsVec<N>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i]), bits(b[i])) << "index " << i;
  }
}

// The runtime's step loops with nothing shared across nodes: every node
// gets its own demand, want and phase_speed call. Bulk-synchronous, no
// stolen time (nothing here steals), speed factor 1.
struct PerNodeReference {
  std::vector<hwsim::Node*> nodes;
  const AppProfile& profile;
  const AppRuntime& phases;  ///< phase_at() only
  double step_s;
  double work = 0.0;
  double last_speed = 1.0;

  void step() {
    const AppPhase& phase = phases.phase_at(work);
    const double follow =
        1.0 - profile.cpu_coupling + profile.cpu_coupling * last_speed;
    for (hwsim::Node* n : nodes) {
      const hwsim::LoadDemand& floor = n->idle_demand();
      hwsim::LoadDemand d;
      d.cpu_w.resize(floor.cpu_w.size());
      for (std::size_t i = 0; i < d.cpu_w.size(); ++i) {
        d.cpu_w[i] = floor.cpu_w[i] + (phase.cpu_w - floor.cpu_w[i]) * follow;
      }
      d.gpu_w.assign(floor.gpu_w.size(), phase.gpu_w);
      d.mem_w = floor.mem_w + (phase.mem_w - floor.mem_w) * follow;
      n->set_demand(d);
    }
    double speed = 1.0;
    for (hwsim::Node* n : nodes) {
      const hwsim::LoadDemand& floor = n->idle_demand();
      hwsim::LoadDemand want;
      want.cpu_w.assign(floor.cpu_w.size(), phase.cpu_w);
      want.gpu_w.assign(floor.gpu_w.size(), phase.gpu_w);
      want.mem_w = phase.mem_w;
      speed = std::min(speed, phase_speed(profile, phase, want, n->grants()));
    }
    speed = std::clamp(speed, 1e-3, 2.0);
    last_speed = std::min(speed, 1.0);
    const double remaining = profile.total_work() - work;
    work = step_s * speed >= remaining ? profile.total_work()
                                       : work + step_s * speed;
  }
};

// Two copies of one allocation, built by `make` with identical devices and
// caps: an AppRuntime drives the first, the per-node reference the second.
// After every step both report the same work done, and every node the same
// demand and grants, bit for bit.
template <typename Make>
void expect_runtime_matches_per_node_reference(Make make) {
  sim::Simulation sim;
  std::vector<std::unique_ptr<hwsim::Node>> owned;
  std::vector<hwsim::Node*> shared = make(sim, owned, "rt");
  std::vector<hwsim::Node*> per_node = make(sim, owned, "ref");
  ASSERT_EQ(shared.size(), per_node.size());
  sim.run();  // let any delayed cap store land

  const auto profile =
      make_profile(AppKind::Gemm, Platform::LassenIbmAc922,
                   static_cast<int>(shared.size()), 0.05);
  AppRuntimeOptions opts;
  opts.step_s = 0.5;
  AppRuntime rt(sim, shared, profile, opts);
  PerNodeReference ref{per_node, profile, rt, opts.step_s};
  rt.start([] {});
  int steps = 0;
  while (rt.running()) {
    ASSERT_TRUE(sim.step());
    if (!rt.running()) break;  // the completion event, not a step
    ref.step();
    ++steps;
    SCOPED_TRACE("step " + std::to_string(steps));
    ASSERT_EQ(bits(rt.work_done()), bits(ref.work));
    for (std::size_t i = 0; i < shared.size(); ++i) {
      SCOPED_TRACE("node " + std::to_string(i));
      expect_same_bits(shared[i]->demand().cpu_w, per_node[i]->demand().cpu_w);
      expect_same_bits(shared[i]->demand().gpu_w, per_node[i]->demand().gpu_w);
      EXPECT_EQ(bits(shared[i]->demand().mem_w),
                bits(per_node[i]->demand().mem_w));
      EXPECT_TRUE(hwsim::same_bits(shared[i]->grants(), per_node[i]->grants()));
    }
  }
  EXPECT_GT(steps, 20);
  EXPECT_DOUBLE_EQ(rt.work_done(), profile.total_work());
}

using Owned = std::vector<std::unique_ptr<hwsim::Node>>;

hwsim::Node* add_lassen(sim::Simulation& sim, Owned& owned,
                        const std::string& name) {
  owned.push_back(std::make_unique<hwsim::IbmAc922Node>(sim, name));
  return owned.back().get();
}

TEST(SharedAppStep, IdenticalNodesMatchPerNodeSteps) {
  expect_runtime_matches_per_node_reference(
      [](sim::Simulation& sim, Owned& owned, const std::string& tag) {
        std::vector<hwsim::Node*> nodes;
        for (int i = 0; i < 4; ++i) {
          nodes.push_back(add_lassen(sim, owned, tag + std::to_string(i)));
          variorum::cap_each_gpu_power_limit(*nodes.back(), 200.0);
        }
        return nodes;
      });
}

TEST(SharedAppStep, OneNodeCappedLowerSetsTheSpeed) {
  // The lower cap sits between equal neighbours, so a speed reused from
  // the node before it would skip the slowest rank.
  expect_runtime_matches_per_node_reference(
      [](sim::Simulation& sim, Owned& owned, const std::string& tag) {
        std::vector<hwsim::Node*> nodes;
        for (int i = 0; i < 4; ++i) {
          nodes.push_back(add_lassen(sim, owned, tag + std::to_string(i)));
          variorum::cap_each_gpu_power_limit(*nodes.back(),
                                             i == 2 ? 110.0 : 230.0);
        }
        return nodes;
      });
}

TEST(SharedAppStep, MixedPlatformsKeepTheirOwnFloors) {
  // Lassen and a 4-GPU Xeon have the same device counts but different idle
  // floors; Grace has no GPUs and Tioga eight GCDs. A demand or want reused
  // across any two of them would land on the wrong node.
  expect_runtime_matches_per_node_reference(
      [](sim::Simulation& sim, Owned& owned, const std::string& tag) {
        std::vector<hwsim::Node*> nodes;
        nodes.push_back(add_lassen(sim, owned, tag + "0"));
        hwsim::IntelXeonConfig xeon;
        xeon.gpus = 4;
        owned.push_back(
            std::make_unique<hwsim::IntelXeonNode>(sim, tag + "1", xeon));
        nodes.push_back(owned.back().get());
        nodes.push_back(add_lassen(sim, owned, tag + "2"));
        variorum::cap_each_gpu_power_limit(*nodes.back(), 120.0);
        owned.push_back(std::make_unique<hwsim::ArmGraceNode>(sim, tag + "3"));
        nodes.push_back(owned.back().get());
        owned.push_back(
            std::make_unique<hwsim::CrayEx235aNode>(sim, tag + "4"));
        nodes.push_back(owned.back().get());
        nodes.push_back(add_lassen(sim, owned, tag + "5"));
        return nodes;
      });
}

}  // namespace
}  // namespace fluxpower::apps
