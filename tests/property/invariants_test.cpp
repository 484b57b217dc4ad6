// Cross-cutting property tests: invariants that must hold for *any* input,
// exercised with seeded random generation across vendors, schedulers and
// controllers.
#include <gtest/gtest.h>

#include <cmath>

#include "experiments/scenario.hpp"
#include "hwsim/cluster.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "manager/fpp.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fluxpower {
namespace {

using hwsim::Platform;

// ---------------------------------------------------------------------------
// Hardware grant invariants: for any demand and any cap configuration,
// grants stay between the idle floor and min(demand, active caps), and an
// IBM node cap is never exceeded (when above the aggregate idle floor).
// ---------------------------------------------------------------------------

class GrantInvariants
    : public ::testing::TestWithParam<std::tuple<Platform, std::uint64_t>> {};

TEST_P(GrantInvariants, GrantsBoundedForRandomDemandsAndCaps) {
  const auto [platform, seed] = GetParam();
  util::Rng rng(seed);
  sim::Simulation sim;
  auto node = hwsim::make_node(sim, platform, "prop0");
  const hwsim::LoadDemand floor = node->idle_demand();

  for (int round = 0; round < 50; ++round) {
    // Random demand.
    hwsim::LoadDemand d;
    d.cpu_w.resize(floor.cpu_w.size());
    for (double& w : d.cpu_w) w = rng.uniform(0.0, 600.0);
    d.gpu_w.resize(floor.gpu_w.size());
    for (double& w : d.gpu_w) w = rng.uniform(0.0, 400.0);
    d.mem_w = rng.uniform(0.0, 150.0);
    node->set_demand(d);

    // Random cap actions (any of them may be unsupported/denied — fine).
    if (rng.chance(0.4)) {
      node->set_node_power_cap(rng.uniform(400.0, 3500.0));
    }
    if (rng.chance(0.4) && node->gpu_count() > 0) {
      node->set_gpu_power_cap(
          static_cast<int>(rng.uniform_int(0, node->gpu_count() - 1)),
          rng.uniform(50.0, 350.0));
    }
    if (rng.chance(0.4)) {
      node->set_socket_power_cap(
          static_cast<int>(rng.uniform_int(0, node->socket_count() - 1)),
          rng.uniform(50.0, 600.0));
    }
    if (rng.chance(0.2)) node->clear_node_power_cap();

    const hwsim::Grants& g = node->grants();
    // Floors.
    for (std::size_t i = 0; i < g.cpu_w.size(); ++i) {
      EXPECT_GE(g.cpu_w[i], floor.cpu_w[i] - 1e-9);
    }
    for (std::size_t i = 0; i < g.gpu_w.size(); ++i) {
      EXPECT_GE(g.gpu_w[i], floor.gpu_w[i] - 1e-9);
    }
    EXPECT_GE(g.mem_w, floor.mem_w - 1e-9);
    // Never more than demanded (demand itself is floored at idle).
    for (std::size_t i = 0; i < g.cpu_w.size(); ++i) {
      EXPECT_LE(g.cpu_w[i], std::max(node->demand().cpu_w[i], floor.cpu_w[i]) + 1e-9);
    }
    for (std::size_t i = 0; i < g.gpu_w.size(); ++i) {
      EXPECT_LE(g.gpu_w[i], std::max(node->demand().gpu_w[i], floor.gpu_w[i]) + 1e-9);
    }
    // An active IBM node cap above the idle total bounds the node draw.
    if (auto cap = node->node_power_cap()) {
      const double idle_total =
          [&] {
            hwsim::LoadDemand f = node->idle_demand();
            double t = 0.0;
            for (double w : f.cpu_w) t += w;
            for (double w : f.gpu_w) t += w;
            return t + f.mem_w + 150.0;  // generous base allowance
          }();
      if (*cap >= idle_total) {
        EXPECT_LE(node->node_draw_w(), *cap + 1e-6) << "round " << round;
      }
    }
    // Draw is always finite and positive.
    EXPECT_GT(node->node_draw_w(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GrantInvariants,
    ::testing::Combine(::testing::Values(Platform::LassenIbmAc922,
                                         Platform::TiogaCrayEx235a,
                                         Platform::GenericIntelXeon,
                                         Platform::GenericArmGrace),
                       ::testing::Values(1u, 2u, 3u)));

// ---------------------------------------------------------------------------
// Scheduler invariants on random queues.
// ---------------------------------------------------------------------------

// A scoped enum keeps the instantiation names in their established form.
enum class SchedCase { Fcfs, EasyBackfill, PowerAware };

const char* sched_policy_name(SchedCase c) {
  switch (c) {
    case SchedCase::Fcfs: return "fcfs";
    case SchedCase::EasyBackfill: return "easy-backfill";
    case SchedCase::PowerAware: return "power-aware";
  }
  return "fcfs";
}

class SchedulerInvariants
    : public ::testing::TestWithParam<std::tuple<SchedCase, std::uint64_t>> {
};

TEST_P(SchedulerInvariants, NoDoubleAllocationAndAllJobsFinish) {
  const auto [policy, seed] = GetParam();
  util::Rng rng(seed);

  experiments::ScenarioConfig cfg;
  cfg.nodes = 8;
  cfg.load_monitor = false;  // speed
  experiments::Scenario s(cfg);
  s.instance().scheduler().set_policy(sched_policy_name(policy));
  if (policy == SchedCase::PowerAware) {
    s.instance().scheduler().set_power_budget(8 * 1500.0, 3050.0);
  }

  const int njobs = static_cast<int>(rng.uniform_int(3, 10));
  double t = 0.0;
  for (int i = 0; i < njobs; ++i) {
    experiments::JobRequest req;
    req.kind = rng.chance(0.5) ? apps::AppKind::Laghos : apps::AppKind::Quicksilver;
    req.nnodes = static_cast<int>(rng.uniform_int(1, 8));
    req.work_scale = rng.uniform(0.5, 3.0);
    req.submit_time_s = t;
    t += rng.uniform(0.0, 20.0);
    s.submit(req);
  }

  // Track allocation overlap through job state events.
  std::vector<std::pair<double, double>> windows[8];  // per rank
  s.instance().root().subscribe_event(
      "job.state-inactive", [&](const flux::Message& m) {
        const double t_start = m.payload.number_or("t_start", -1.0);
        const double t_end = m.payload.number_or("t_end", -1.0);
        for (const util::Json& r : m.payload.at("ranks").as_array()) {
          windows[r.as_int()].emplace_back(t_start, t_end);
        }
      });

  auto res = s.run();
  ASSERT_EQ(res.jobs.size(), static_cast<std::size_t>(njobs));
  for (const experiments::JobResult& j : res.jobs) {
    EXPECT_GE(j.t_start, j.t_submit);
    EXPECT_GT(j.t_end, j.t_start);
  }
  // Per-rank windows never overlap.
  for (auto& w : windows) {
    std::sort(w.begin(), w.end());
    for (std::size_t i = 1; i < w.size(); ++i) {
      EXPECT_GE(w[i].first, w[i - 1].second - 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerInvariants,
    ::testing::Combine(::testing::Values(SchedCase::Fcfs,
                                         SchedCase::EasyBackfill,
                                         SchedCase::PowerAware),
                       ::testing::Values(11u, 22u, 33u, 44u)));

// ---------------------------------------------------------------------------
// FPP controller: caps remain inside [floor, ceiling] for any period
// sequence, and a converged controller never changes again.
// ---------------------------------------------------------------------------

class FppInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FppInvariants, CapStaysInRangeForRandomSignals) {
  util::Rng rng(GetParam());
  manager::FppConfig cfg;
  cfg.exploratory_first_reduce = rng.chance(0.5);
  manager::FppController ctrl(cfg, 300.0);

  double last_converged_cap = -1.0;
  for (int round = 0; round < 30; ++round) {
    // Random power signal: sometimes periodic, sometimes flat.
    const double period = rng.uniform(4.0, 40.0);
    const bool periodic = rng.chance(0.7);
    for (double t = 0.0; t < 90.0; t += 2.0) {
      const double base = 200.0;
      const double wave =
          periodic ? (std::fmod(t, period) < 0.4 * period ? 80.0 : -40.0)
                   : rng.uniform(-2.0, 2.0);
      ctrl.add_power_sample(base + wave);
    }
    const double ceiling = rng.uniform(120.0, 300.0);
    const double cap = ctrl.control(ceiling);
    EXPECT_GE(cap, cfg.min_gpu_cap_w - 1e-9);
    EXPECT_LE(cap, std::min(cfg.max_gpu_cap_w, ceiling) + 1e-9);
    if (ctrl.converged()) {
      if (last_converged_cap >= 0.0 && ceiling >= last_converged_cap) {
        // Convergence latch: cap never moves once converged (except the
        // external ceiling clamp).
        EXPECT_DOUBLE_EQ(cap, std::min(last_converged_cap, ceiling));
      }
      last_converged_cap = cap;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FppInvariants,
                         ::testing::Range<std::uint64_t>(100, 110));

// ---------------------------------------------------------------------------
// Energy metering: the monitor's trapezoidal integral over 2 s samples
// tracks the exact meter within a small bound for random step signals.
// ---------------------------------------------------------------------------

class EnergyIntegration : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EnergyIntegration, TrapezoidTracksExactMeter) {
  util::Rng rng(GetParam());
  sim::Simulation sim;
  hwsim::EnergyMeter meter;

  std::vector<double> ts, ws;
  double current = 500.0;
  meter.update(0.0, current);
  double next_change = rng.uniform(3.0, 30.0);
  for (double t = 0.0; t <= 600.0; t += 2.0) {
    if (t >= next_change) {
      current = rng.uniform(400.0, 1500.0);
      meter.update(t, current);
      next_change = t + rng.uniform(5.0, 40.0);
    }
    ts.push_back(t);
    ws.push_back(current);
  }
  const double exact = meter.joules(600.0);
  const double sampled = util::trapezoid(ts, ws);
  // Step changes between samples cause bounded error; phases change every
  // >= 5 s vs the 2 s grid, so a few percent.
  EXPECT_NEAR(sampled, exact, 0.05 * exact);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnergyIntegration,
                         ::testing::Range<std::uint64_t>(200, 208));

// ---------------------------------------------------------------------------
// Proportional sharing arithmetic: for any set of running jobs the
// allocations are uniform per node and their sum never exceeds the bound
// (when the bound binds).
// ---------------------------------------------------------------------------

class ProportionalSharing : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProportionalSharing, AllocationsUniformAndBounded) {
  util::Rng rng(GetParam());
  experiments::ScenarioConfig cfg;
  cfg.nodes = 8;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = rng.uniform(5000.0, 20000.0);
  cfg.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  experiments::Scenario s(cfg);

  double t = 0.0;
  const int njobs = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < njobs; ++i) {
    experiments::JobRequest req;
    req.kind = apps::AppKind::Laghos;
    req.nnodes = static_cast<int>(rng.uniform_int(1, 4));
    req.work_scale = rng.uniform(4.0, 12.0);
    req.submit_time_s = t;
    t += rng.uniform(0.0, 10.0);
    s.submit(req);
  }

  // Probe the allocations periodically while jobs churn.
  auto* mod = dynamic_cast<manager::PowerManagerModule*>(
      s.instance().broker(0).find_module("power-manager"));
  ASSERT_NE(mod, nullptr);
  const double bound = cfg.manager.cluster_power_bound_w;
  sim::PeriodicTask probe(s.sim(), 7.0, [&] {
    const auto& allocs = mod->cluster()->allocations();
    double per_node = -1.0;
    int total_nodes = 0;
    for (const auto& [id, alloc] : allocs) {
      total_nodes += static_cast<int>(alloc.ranks.size());
      if (per_node < 0.0) per_node = alloc.node_power_w;
      EXPECT_DOUBLE_EQ(alloc.node_power_w, per_node);  // uniform per node
      EXPECT_DOUBLE_EQ(alloc.job_power_w,
                       alloc.node_power_w * alloc.ranks.size());
    }
    if (total_nodes > 0 && 3050.0 * total_nodes > bound) {
      EXPECT_LE(mod->cluster()->allocated_power_w(), bound + 1e-6);
    }
    return true;
  });
  s.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProportionalSharing,
                         ::testing::Range<std::uint64_t>(300, 306));

}  // namespace
}  // namespace fluxpower
