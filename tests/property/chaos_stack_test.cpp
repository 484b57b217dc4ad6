// Chaos properties of the full stack: scheduler + monitor + manager under
// deterministic fault weather (lossy links, crash/reboot cycles, sensor
// faults, failing cap writes). Across random seeds the run must always
// terminate, report sane energies, keep the monitor's sweep accounting
// balanced, quarantine only real ranks, and drain all RPC state once the
// weather passes. A fixed seed must replay the identical fault schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "experiments/scenario.hpp"
#include "manager/power_manager.hpp"
#include "monitor/power_monitor.hpp"
#include "twin/snapshot.hpp"

namespace fluxpower {
namespace {

using experiments::JobRequest;
using experiments::Scenario;
using experiments::ScenarioConfig;
using experiments::ScenarioResult;

constexpr int kNodes = 6;
constexpr double kBoundW = 7200.0;

ScenarioConfig chaos_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.nodes = kNodes;
  cfg.seed = 42;  // workload stays fixed; only the fault seed varies
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = kBoundW;
  cfg.manager.static_node_cap_w = 1950.0;
  cfg.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  cfg.manager.limit_refresh_s = 20.0;
  faultsim::FaultPlaneConfig f;
  f.seed = seed;
  f.msg_drop_rate = 0.08;
  f.msg_dup_rate = 0.03;
  f.msg_delay_rate = 0.08;
  f.node_mtbf_s = 240.0;
  f.node_reboot_s = 25.0;
  f.sensor_dropout_rate = 0.08;
  f.sensor_stuck_rate = 0.02;
  f.sensor_stuck_duration_s = 15.0;
  f.cap_write_failure_rate = 0.20;
  cfg.faults = f;
  return cfg;
}

struct RunSummary {
  double makespan_s = 0.0;
  faultsim::FaultCounters counters;
  std::uint64_t quarantine_events = 0;
};

/// Run the chaos scenario, asserting the degradation invariants along the
/// way, and return the replay-comparable summary.
RunSummary run_and_check(std::uint64_t seed) {
  Scenario s(chaos_config(seed));
  JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 4;
  gemm.work_scale = 0.5;
  s.submit(gemm);
  JobRequest qs;
  qs.kind = apps::AppKind::Quicksilver;
  qs.nnodes = 2;
  qs.work_scale = 2.0;
  s.submit(qs);

  // Termination: run() must come back even when completion events race
  // drops and crashes — worst case the deadline fires, never a hang.
  ScenarioResult res = s.run(/*max_time_s=*/1200.0);

  EXPECT_GE(res.makespan_s, 0.0);
  EXPECT_TRUE(std::isfinite(res.total_energy_j));
  EXPECT_GE(res.total_energy_j, 0.0);
  EXPECT_TRUE(std::isfinite(res.max_cluster_power_w));
  for (const experiments::JobResult& job : res.jobs) {
    EXPECT_GE(job.t_end, job.t_start) << job.app;
    // Energies integrate forward in time only — a faulted sweep is dropped,
    // never double-counted, so no integral can come out negative.
    EXPECT_GE(job.exact_avg_node_energy_j, 0.0) << job.app;
    EXPECT_GE(job.avg_node_energy_j, 0.0) << job.app;
    EXPECT_LE(job.avg_node_power_w, job.max_node_power_w + 1e-9) << job.app;
  }

  // Quarantine only ever names real ranks, and every entry was counted.
  auto* root_pm = static_cast<manager::PowerManagerModule*>(
      s.instance().root().find_module("power-manager"));
  EXPECT_NE(root_pm, nullptr);
  if (root_pm == nullptr) return {};
  const manager::ClusterManager& cluster = *root_pm->cluster();
  for (flux::Rank r : cluster.quarantined()) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, kNodes);
  }
  EXPECT_GE(cluster.quarantine_events(), cluster.quarantined().size());

  // Calm the weather, then verify per-rank sweep accounting through the
  // status topic (loopback RPC): every sweep is in exactly one bucket.
  faultsim::FaultPlane* plane = s.fault_plane();
  EXPECT_NE(plane, nullptr);
  if (plane == nullptr) return {};
  RunSummary summary;
  summary.makespan_s = res.makespan_s;
  summary.counters = plane->counters();
  summary.quarantine_events = cluster.quarantine_events();
  plane->detach();

  for (int r = 0; r < kNodes; ++r) {
    bool got = false;
    s.instance().broker(r).rpc(
        r, monitor::kStatusTopic, util::Json::object(),
        [&got, r](const flux::Message& resp) {
          got = true;
          ASSERT_FALSE(resp.is_error());
          const auto taken = resp.payload.int_or("samples_taken", -1);
          const auto evicted = resp.payload.int_or("evicted", -1);
          const auto size = resp.payload.int_or("buffer_size", -1);
          const auto failures = resp.payload.int_or("sensor_failures", -1);
          EXPECT_EQ(taken, evicted + size + failures) << "rank " << r;
        });
    while (!got && s.sim().step()) {
    }
    EXPECT_TRUE(got) << "status rpc never answered on rank " << r;
  }

  // Drain: with faults off, every outstanding timeout fires and RPC state
  // empties out — nothing is leaked by the degraded paths.
  s.sim().run_until(s.sim().now() + 120.0);
  for (int r = 0; r < kNodes; ++r) {
    EXPECT_EQ(s.instance().broker(r).pending_rpc_count(), 0u)
        << "leaked pending rpc on rank " << r;
  }
  return summary;
}

class ChaosStack : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosStack, SurvivesFaultWeather) { run_and_check(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosStack,
                         ::testing::Range<std::uint64_t>(1, 9));

// Replay contract on the whole stack: one seed, two fresh processes'-worth
// of state, identical fault schedule and identical outcome.
TEST(ChaosStackReplay, SameSeedSameRun) {
  for (std::uint64_t seed : {3u, 7u}) {
    const RunSummary a = run_and_check(seed);
    const RunSummary b = run_and_check(seed);
    EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s) << "seed " << seed;
    EXPECT_EQ(a.quarantine_events, b.quarantine_events) << "seed " << seed;
    EXPECT_EQ(a.counters.msgs_dropped, b.counters.msgs_dropped);
    EXPECT_EQ(a.counters.msgs_blackholed, b.counters.msgs_blackholed);
    EXPECT_EQ(a.counters.msgs_duplicated, b.counters.msgs_duplicated);
    EXPECT_EQ(a.counters.msgs_delayed, b.counters.msgs_delayed);
    EXPECT_EQ(a.counters.node_crashes, b.counters.node_crashes);
    EXPECT_EQ(a.counters.node_reboots, b.counters.node_reboots);
    EXPECT_EQ(a.counters.sensor_dropouts, b.counters.sensor_dropouts);
    EXPECT_EQ(a.counters.sensor_stuck_sweeps, b.counters.sensor_stuck_sweeps);
    EXPECT_EQ(a.counters.cap_write_failures, b.counters.cap_write_failures);
  }
}

// Time travel into the fault window: snapshot the stack BEFORE the weather
// has done its worst, then replay the remainder K times from the same
// snapshot. Every replica must live through the identical storm — same
// strike/quarantine outcome, same fault counters, same makespan — because
// the snapshot carries the fault plane's RNG substream positions along
// with everything else. A single divergent replica would mean some fault
// state escaped the codec.
TEST(ChaosTimeTravel, ReplayedFaultWindowIsIdentical) {
  for (std::uint64_t seed : {3u, 7u, 11u}) {
    twin::TwinSpec spec;
    spec.scenario = chaos_config(seed);
    JobRequest gemm;
    gemm.kind = apps::AppKind::Gemm;
    gemm.nnodes = 4;
    gemm.work_scale = 0.5;
    spec.jobs.push_back(gemm);
    JobRequest qs;
    qs.kind = apps::AppKind::Quicksilver;
    qs.nnodes = 2;
    qs.work_scale = 2.0;
    spec.jobs.push_back(qs);
    spec.max_time_s = 1200.0;

    // Snapshot at t=60: crashes (MTBF 240 s) and quarantines mostly land
    // later, so the interesting part of the storm is still in the future.
    twin::TwinSession original(spec);
    original.advance_to(60.0);
    const twin::Snapshot snap = twin::Snapshot::capture(original);

    struct Outcome {
      double makespan_s;
      faultsim::FaultCounters counters;
      std::uint64_t quarantine_events;
      std::set<flux::Rank> quarantined;
    };
    auto finish_and_summarize = [](twin::TwinSession& session) {
      const ScenarioResult res = session.finish();
      Scenario& s = session.scenario();
      auto* pm = static_cast<manager::PowerManagerModule*>(
          s.instance().root().find_module("power-manager"));
      Outcome out;
      out.makespan_s = res.makespan_s;
      out.counters = s.fault_plane()->counters();
      out.quarantine_events = pm->cluster()->quarantine_events();
      const auto& q = pm->cluster()->quarantined();
      out.quarantined.insert(q.begin(), q.end());
      return out;
    };

    const Outcome truth = finish_and_summarize(original);
    for (int k = 0; k < 3; ++k) {
      std::unique_ptr<twin::TwinSession> replica = snap.restore();
      const Outcome replay = finish_and_summarize(*replica);
      EXPECT_DOUBLE_EQ(replay.makespan_s, truth.makespan_s)
          << "seed " << seed << " replica " << k;
      EXPECT_EQ(replay.quarantine_events, truth.quarantine_events)
          << "seed " << seed << " replica " << k;
      EXPECT_EQ(replay.quarantined, truth.quarantined)
          << "seed " << seed << " replica " << k;
      EXPECT_EQ(replay.counters.msgs_dropped, truth.counters.msgs_dropped);
      EXPECT_EQ(replay.counters.msgs_duplicated,
                truth.counters.msgs_duplicated);
      EXPECT_EQ(replay.counters.msgs_delayed, truth.counters.msgs_delayed);
      EXPECT_EQ(replay.counters.node_crashes, truth.counters.node_crashes);
      EXPECT_EQ(replay.counters.node_reboots, truth.counters.node_reboots);
      EXPECT_EQ(replay.counters.sensor_dropouts,
                truth.counters.sensor_dropouts);
      EXPECT_EQ(replay.counters.sensor_stuck_sweeps,
                truth.counters.sensor_stuck_sweeps);
      EXPECT_EQ(replay.counters.cap_write_failures,
                truth.counters.cap_write_failures);
    }
  }
}

}  // namespace
}  // namespace fluxpower
