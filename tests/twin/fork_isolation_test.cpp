// Fork isolation: a fork's divergent future must never leak into its base
// snapshot or into sibling forks. The suite materializes forks serially and
// through the TwinServer's worker pool (the CI twin-determinism lane runs
// this binary under TSan), checking that
//   * the base snapshot's image and digest are unchanged by any number of
//     concurrent queries,
//   * the same query always returns the same typed deltas,
//   * siblings with different perturbations see independent futures, and
//   * un-perturbed forks reproduce the baseline exactly.
#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "twin/server.hpp"

namespace fluxpower::twin {
namespace {

TwinSpec serving_spec() {
  TwinSpec spec;
  spec.scenario.nodes = 4;
  spec.scenario.load_manager = true;
  spec.scenario.manager.cluster_power_bound_w = 4800.0;
  spec.scenario.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  // ~250 s and ~160 s of runtime: perturbations land at t=80..120 and must
  // hit live jobs, not an already-idle cluster.
  experiments::JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 3;
  gemm.work_scale = 0.9;
  spec.jobs.push_back(gemm);
  experiments::JobRequest lammps;
  lammps.kind = apps::AppKind::Lammps;
  lammps.nnodes = 1;
  lammps.work_scale = 1.0;
  lammps.submit_time_s = 20.0;
  spec.jobs.push_back(lammps);
  spec.max_time_s = 1500.0;
  return spec;
}

std::shared_ptr<const Snapshot> make_base(double t_snap = 60.0) {
  TwinSession session(serving_spec());
  session.advance_to(t_snap);
  return std::make_shared<const Snapshot>(Snapshot::capture(session));
}

bool same_outcome(const WhatIfResult& a, const WhatIfResult& b) {
  return a.energy_j == b.energy_j && a.makespan_s == b.makespan_s &&
         a.peak_w == b.peak_w && a.completed_jobs == b.completed_jobs &&
         a.d_energy_j == b.d_energy_j && a.d_makespan_s == b.d_makespan_s &&
         a.d_peak_w == b.d_peak_w && a.overshoot_w == b.overshoot_w;
}

TEST(ForkIsolation, ForkHandlesAreCowAndIndependent) {
  auto base = make_base();
  TwinFork parent(base);
  parent.add({.kind = Perturbation::Kind::BudgetScale,
              .at_s = 90.0,
              .value = 0.8});
  TwinFork child = parent.fork();
  child.add({.kind = Perturbation::Kind::NodeKill,
             .at_s = 100.0,
             .rank = 2,
             .down_s = 40.0});
  // The child's extra perturbation never appears in the parent's overlay.
  EXPECT_EQ(parent.overlay().size(), 1u);
  EXPECT_EQ(child.overlay().size(), 2u);
  EXPECT_EQ(&parent.base(), &child.base());
}

TEST(ForkIsolation, UnperturbedForkReproducesBaseline) {
  auto base = make_base();
  const std::uint64_t digest0 = base->state_digest();

  TwinFork a(base);
  TwinFork b(base);
  const experiments::ScenarioResult ra = a.materialize()->finish();
  const experiments::ScenarioResult rb = b.materialize()->finish();
  EXPECT_EQ(ra.total_energy_j, rb.total_energy_j);
  EXPECT_EQ(ra.makespan_s, rb.makespan_s);
  EXPECT_EQ(ra.cluster_timeline, rb.cluster_timeline);
  EXPECT_EQ(base->state_digest(), digest0);
}

TEST(ForkIsolation, PerturbedForkDoesNotTouchParentOrSibling) {
  auto base = make_base();
  const StateImage image0 = base->image();

  // Sibling futures: one heavily perturbed, one untouched, materialized
  // back-to-back from the same shared base.
  TwinFork killed(base);
  killed.add({.kind = Perturbation::Kind::NodeKill,
              .at_s = 80.0,
              .rank = 1,
              .down_s = 60.0});
  killed.add(
      {.kind = Perturbation::Kind::BudgetSet, .at_s = 80.0, .value = 3000.0});
  const experiments::ScenarioResult perturbed = killed.materialize()->finish();

  TwinFork clean(base);
  const experiments::ScenarioResult untouched = clean.materialize()->finish();

  // The perturbation had real effect on its own future...
  EXPECT_NE(perturbed.cluster_timeline, untouched.cluster_timeline);
  // ...and zero effect on the shared base.
  EXPECT_TRUE(base->image() == image0);
}

TEST(ForkIsolation, ServerParentDigestUnchangedAfterConcurrentQueries) {
  auto base = make_base();
  const std::uint64_t digest0 = base->state_digest();
  const StateImage image0 = base->image();

  TwinServer server(base, /*workers=*/4);
  std::vector<std::future<WhatIfResult>> futures;
  for (int i = 0; i < 12; ++i) {
    WhatIfQuery q;
    switch (i % 3) {
      case 0:
        q.label = "budget-drop";
        q.perturbations.push_back({.kind = Perturbation::Kind::BudgetScale,
                                   .at_s = 90.0,
                                   .value = 0.8});
        break;
      case 1:
        q.label = "node-dies";
        q.perturbations.push_back({.kind = Perturbation::Kind::NodeKill,
                                   .at_s = 100.0,
                                   .rank = 3,
                                   .down_s = 45.0});
        break;
      default:
        q.label = "deep-cap";
        q.perturbations.push_back({.kind = Perturbation::Kind::BudgetSet,
                                   .at_s = 120.0,
                                   .value = 2400.0});
        break;
    }
    futures.push_back(server.submit(std::move(q)));
  }

  std::vector<WhatIfResult> results;
  for (auto& f : futures) results.push_back(f.get());

  // Parent untouched by N concurrent materializations.
  EXPECT_EQ(base->state_digest(), digest0);
  EXPECT_TRUE(base->image() == image0);

  // Determinism through the pool: every repetition of a query agrees with
  // its first occurrence, regardless of which worker ran it.
  for (std::size_t i = 3; i < results.size(); ++i) {
    EXPECT_TRUE(same_outcome(results[i], results[i % 3]))
        << results[i].label << " diverged between workers";
  }
  EXPECT_EQ(server.queries_served(), 12u);
  // 12 queries + the shared baseline.
  EXPECT_EQ(server.forks_materialized(), 13u);

  // Latency histogram observed every query; metrics expose cleanly.
  EXPECT_EQ(server.latency_histogram().count(), 12u);
  EXPECT_NE(server.metrics_text().find("fluxpower_twin_queries_total"),
            std::string::npos);
}

TEST(ForkIsolation, ServerMatchesSerialMaterialization) {
  auto base = make_base();

  WhatIfQuery q;
  q.label = "budget-drop-20pct";
  q.perturbations.push_back(
      {.kind = Perturbation::Kind::BudgetScale, .at_s = 90.0, .value = 0.8});

  TwinServer server(base, /*workers=*/2);
  const WhatIfResult via_server = server.submit(q).get();

  // Same query materialized serially on this thread, no pool involved.
  TwinFork fork(base);
  for (const Perturbation& p : q.perturbations) fork.add(p);
  const experiments::ScenarioResult serial = fork.materialize()->finish();
  EXPECT_EQ(via_server.energy_j, serial.total_energy_j);
  EXPECT_EQ(via_server.makespan_s, serial.makespan_s);

  // Deltas are self-consistent with the server's own baseline.
  const WhatIfResult baseline = server.baseline();
  EXPECT_EQ(via_server.d_energy_j, via_server.energy_j - baseline.energy_j);
  EXPECT_EQ(via_server.d_makespan_s,
            via_server.makespan_s - baseline.makespan_s);
}

TEST(ForkIsolation, BudgetDropTightensPeak) {
  // Sanity of the typed deltas themselves: a 50% budget cut at t must not
  // RAISE the post-snapshot peak draw, and the overshoot metric stays
  // bounded by physics (peak − bound).
  auto base = make_base();
  TwinServer server(base, 2);
  WhatIfQuery q;
  q.label = "halve-budget";
  q.perturbations.push_back(
      {.kind = Perturbation::Kind::BudgetScale, .at_s = 90.0, .value = 0.5});
  const WhatIfResult r = server.submit(std::move(q)).get();
  EXPECT_LE(r.d_peak_w, 1e-6);
  EXPECT_GE(r.overshoot_w, 0.0);
  const double bound = serving_spec().scenario.manager.cluster_power_bound_w;
  EXPECT_LE(r.overshoot_w, std::max(0.0, r.peak_w - 0.5 * bound) + 1e-6);
}

// A non-finite value, time or down time is refused at submit: a NaN bound
// acts as no bound and a NaN time never fires. A time before the snapshot
// is clamped to it, as documented, and answered.
TEST(ForkIsolation, ServerRejectsNonFinitePerturbations) {
  auto base = make_base();
  TwinServer server(base, 1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using K = Perturbation::Kind;
  for (const Perturbation& p :
       {Perturbation{.kind = K::BudgetSet, .at_s = 90.0, .value = nan},
        Perturbation{.kind = K::BudgetSet, .at_s = 90.0, .value = inf},
        Perturbation{.kind = K::BudgetScale, .at_s = nan, .value = 0.8},
        Perturbation{.kind = K::BudgetScale, .at_s = -inf, .value = 0.8},
        Perturbation{.kind = K::NodeKill, .at_s = 90.0, .rank = 1,
                     .down_s = nan},
        Perturbation{.kind = K::NodeKill, .at_s = 90.0, .rank = 1,
                     .down_s = inf}}) {
    WhatIfQuery q;
    q.label = "non-finite";
    q.perturbations.push_back(p);
    EXPECT_THROW(server.submit(std::move(q)), std::invalid_argument);
  }
  EXPECT_EQ(server.queries_served(), 0u);
  WhatIfQuery past;
  past.label = "past";
  past.perturbations.push_back(
      {.kind = K::BudgetScale, .at_s = -5.0, .value = 0.8});
  WhatIfResult clamped;
  ASSERT_NO_THROW(clamped = server.submit(std::move(past)).get());
  EXPECT_EQ(clamped.completed_jobs, server.baseline().completed_jobs);
  EXPECT_EQ(server.queries_served(), 1u);
}

}  // namespace
}  // namespace fluxpower::twin
