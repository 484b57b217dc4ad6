// Snapshot-equivalence test plane (the digital twin's proof obligation): for
// many seeds, in calm and chaotic weather, snapshot a scenario at a
// seed-derived mid-run time, restore the snapshot into a completely fresh
// scenario, run both the original and the restored twin to completion, and
// require the rendered results to be BYTE-IDENTICAL — every job record, every
// timeline point, every energy integral, at full double precision. Restore
// itself verifies every captured state section byte-for-byte before returning,
// so a passing case certifies both halves of the contract: the probe captures
// everything observable, and replay reaches exactly the captured state.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>

#include "twin/snapshot.hpp"
#include "util/rng.hpp"

namespace fluxpower {
namespace {

using experiments::JobRequest;
using experiments::ScenarioResult;
using twin::Snapshot;
using twin::TwinSession;
using twin::TwinSpec;

/// Calm: manager + monitor under a real bound, no fault plane. Chaos: the
/// same workload under the full fault weather (lossy TBON, crash/reboot,
/// sensor faults, failing cap writes) seeded from the case seed.
TwinSpec make_spec(std::uint64_t seed, bool chaos) {
  TwinSpec spec;
  spec.scenario.nodes = 4;
  spec.scenario.seed = 42;  // workload fixed; the case seed drives faults
  spec.scenario.load_manager = true;
  spec.scenario.manager.cluster_power_bound_w = 4800.0;
  spec.scenario.manager.static_node_cap_w = 1950.0;
  spec.scenario.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  spec.scenario.manager.limit_refresh_s = 20.0;
  if (chaos) {
    faultsim::FaultPlaneConfig f;
    f.seed = seed;
    f.msg_drop_rate = 0.06;
    f.msg_dup_rate = 0.02;
    f.msg_delay_rate = 0.06;
    f.node_mtbf_s = 300.0;
    f.node_reboot_s = 20.0;
    f.sensor_dropout_rate = 0.06;
    f.sensor_stuck_rate = 0.02;
    f.sensor_stuck_duration_s = 12.0;
    f.cap_write_failure_rate = 0.15;
    spec.scenario.faults = f;
  }
  // Gemm runs ~470 s, Lammps ~280 s: the busiest part of the run comfortably
  // covers every seed-derived snapshot instant in [25, 375].
  JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 3;
  gemm.work_scale = 1.7;
  spec.jobs.push_back(gemm);
  JobRequest lammps;
  lammps.kind = apps::AppKind::Lammps;
  lammps.nnodes = 2;
  lammps.work_scale = 2.0;
  lammps.submit_time_s = 30.0;
  spec.jobs.push_back(lammps);
  spec.max_time_s = 1200.0;
  return spec;
}

void hex(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a,", v);
  out += buf;
}

/// Exact textual rendering of a ScenarioResult: doubles in hexfloat so two
/// renders are equal iff every bit of every field is equal.
std::string render(const ScenarioResult& r) {
  std::string out;
  out.reserve(1 << 16);
  for (const experiments::JobResult& j : r.jobs) {
    out += "job " + std::to_string(j.id) + " " + j.app + " " +
           std::to_string(j.nnodes) + " ";
    hex(out, j.t_submit);
    hex(out, j.t_start);
    hex(out, j.t_end);
    hex(out, j.runtime_s);
    hex(out, j.avg_node_power_w);
    hex(out, j.max_node_power_w);
    hex(out, j.max_aggregate_power_w);
    hex(out, j.avg_node_energy_j);
    hex(out, j.exact_avg_node_energy_j);
    out += j.telemetry_complete ? "complete\n" : "partial\n";
  }
  out += "makespan ";
  hex(out, r.makespan_s);
  hex(out, r.total_energy_j);
  hex(out, r.max_cluster_power_w);
  hex(out, r.avg_cluster_power_w);
  out += "\ncluster\n";
  for (const auto& [t, w] : r.cluster_timeline) {
    hex(out, t);
    hex(out, w);
    out += "\n";
  }
  for (const auto& [id, points] : r.timelines) {
    out += "timeline " + std::to_string(id) + "\n";
    for (const experiments::TimelinePoint& p : points) {
      hex(out, p.t_s);
      hex(out, p.node_w);
      hex(out, p.mem_w);
      for (double v : p.gpu_w) hex(out, v);
      for (double v : p.cpu_w) hex(out, v);
      for (double v : p.gpu_cap_w) hex(out, v);
      out += "\n";
    }
  }
  return out;
}

class SnapshotEquiv
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(SnapshotEquiv, RestoredRunIsByteIdentical) {
  const auto [seed, chaos] = GetParam();
  const TwinSpec spec = make_spec(seed, chaos);

  // Seed-derived snapshot instant, spread over the busy part of the run.
  std::uint64_t sm = seed * 2654435761ULL + (chaos ? 1 : 0);
  const double frac =
      static_cast<double>(util::splitmix64(sm) >> 11) * 0x1.0p-53;
  const double t_snap = 25.0 + frac * 350.0;

  // Original: advance to the snapshot instant, capture, keep running.
  TwinSession original(spec);
  original.advance_to(t_snap);
  Snapshot snap = Snapshot::capture(original);
  // now() == t_snap unless the whole workload finished first (possible under
  // chaos for late t_snap draws); either instant is a valid capture point.
  EXPECT_LE(snap.time(), t_snap);
  const ScenarioResult original_result = original.finish();

  // Fresh scenario: restore (internally replays and verifies every
  // section), continue to completion.
  std::unique_ptr<TwinSession> restored;
  ASSERT_NO_THROW(restored = snap.restore())
      << "seed " << seed << (chaos ? " chaos" : " calm");
  const ScenarioResult restored_result = restored->finish();

  EXPECT_EQ(render(original_result), render(restored_result))
      << "seed " << seed << (chaos ? " chaos" : " calm") << " t_snap "
      << t_snap;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SnapshotEquiv,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 51),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<SnapshotEquiv::ParamType>& info) {
      return (std::get<1>(info.param) ? std::string("chaos") : "calm") +
             std::to_string(std::get<0>(info.param));
    });

// Capture is read-only and stable: two back-to-back captures of the same
// live session produce identical images, and capturing does not perturb
// the session's future (its result still matches a never-probed control).
TEST(SnapshotEquivInvariants, CaptureIsReadOnlyAndStable) {
  const TwinSpec spec = make_spec(7, /*chaos=*/true);

  TwinSession probed(spec);
  probed.advance_to(120.0);
  const Snapshot first = Snapshot::capture(probed);
  const Snapshot second = Snapshot::capture(probed);
  EXPECT_EQ(first.time(), second.time());
  EXPECT_TRUE(first.image() == second.image())
      << twin::describe_divergence(first.image(), second.image(), "first",
                                   "second");
  const ScenarioResult probed_result = probed.finish();

  TwinSession control(spec);
  control.advance_to(120.0);
  const ScenarioResult control_result = control.finish();
  EXPECT_EQ(render(probed_result), render(control_result));
}

// A session captured before any advance_to sits at t = 0 with its t = 0
// events pending; advance_to(0) would run them, so restore replays nothing
// and the image still verifies. The clock never runs backwards.
TEST(SnapshotEquivInvariants, CaptureBeforeAnyAdvanceRestores) {
  const TwinSpec spec = make_spec(3, /*chaos=*/true);
  TwinSession fresh(spec);
  const Snapshot snap = Snapshot::capture(fresh);
  EXPECT_EQ(snap.time(), 0.0);
  std::unique_ptr<TwinSession> restored;
  ASSERT_NO_THROW(restored = snap.restore());
  EXPECT_EQ(render(restored->finish()), render(fresh.finish()));

  TwinSession advanced(spec);
  advanced.advance_to(30.0);
  EXPECT_THROW(advanced.advance_to(29.0), std::invalid_argument);
  EXPECT_THROW(advanced.advance_to(std::nan("")), std::invalid_argument);
  EXPECT_NO_THROW(advanced.advance_to(30.0));
}

// Phased execution is invisible: advancing in many small horizons reaches
// the same state (and the same completed run) as one straight shot.
TEST(SnapshotEquivInvariants, PhasedAdvanceMatchesStraightRun) {
  const TwinSpec spec = make_spec(11, /*chaos=*/true);

  TwinSession phased(spec);
  for (double t = 15.0; t <= 300.0; t += 15.0) phased.advance_to(t);
  Snapshot phased_snap = Snapshot::capture(phased);

  TwinSession straight(spec);
  straight.advance_to(300.0);
  Snapshot straight_snap = Snapshot::capture(straight);

  EXPECT_EQ(phased_snap.state_digest(), straight_snap.state_digest());
  EXPECT_EQ(phased_snap.time(), straight_snap.time());
  EXPECT_TRUE(phased_snap.image() == straight_snap.image())
      << twin::describe_divergence(phased_snap.image(), straight_snap.image(),
                                   "phased", "straight");
  EXPECT_EQ(render(phased.finish()), render(straight.finish()));
}

}  // namespace
}  // namespace fluxpower
