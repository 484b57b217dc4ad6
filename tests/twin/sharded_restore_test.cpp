// Snapshot/restore determinism under the sharded execution profile: a spec
// with shards > 1 must round-trip through capture -> restore with
// the engine's summed event-sequence counter pinned exactly, and the
// restored twin must complete the run byte-identically to the original.
// This is the regression net for the canonical SIM section: restore replays
// the spec on a fresh sharded engine and verifies every captured section
// byte-for-byte, so a single nondeterministic seq assignment anywhere in
// the window/drain machinery fails here before it can corrupt a what-if.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "twin/snapshot.hpp"

namespace fluxpower {
namespace {

using experiments::JobRequest;
using experiments::ScenarioResult;
using twin::Snapshot;
using twin::TwinSession;
using twin::TwinSpec;

TwinSpec make_sharded_spec(int shards, int workers, bool chaos) {
  TwinSpec spec;
  spec.scenario.nodes = 25;
  spec.scenario.tbon_fanout = 8;
  spec.scenario.seed = 42;
  spec.scenario.load_manager = true;
  spec.scenario.manager.cluster_power_bound_w = 30000.0;
  spec.scenario.manager.static_node_cap_w = 1950.0;
  spec.scenario.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  spec.scenario.manager.limit_refresh_s = 20.0;
  spec.scenario.shards = shards;
  spec.scenario.workers = workers;
  if (chaos) {
    faultsim::FaultPlaneConfig f;
    f.seed = 9;
    f.msg_drop_rate = 0.05;
    f.msg_delay_rate = 0.05;
    f.node_mtbf_s = 400.0;
    f.node_reboot_s = 20.0;
    f.sensor_dropout_rate = 0.05;
    f.cap_write_failure_rate = 0.10;
    spec.scenario.faults = f;
  }
  JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 3;
  gemm.work_scale = 1.5;
  spec.jobs.push_back(gemm);
  JobRequest lammps;
  lammps.kind = apps::AppKind::Lammps;
  lammps.nnodes = 2;
  lammps.work_scale = 1.8;
  lammps.submit_time_s = 25.0;
  spec.jobs.push_back(lammps);
  spec.max_time_s = 1200.0;
  return spec;
}

void hex(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a,", v);
  out += buf;
}

std::string render(const ScenarioResult& r) {
  std::string out;
  for (const experiments::JobResult& j : r.jobs) {
    out += "job " + std::to_string(j.id) + " ";
    hex(out, j.t_start);
    hex(out, j.t_end);
    hex(out, j.avg_node_energy_j);
    hex(out, j.exact_avg_node_energy_j);
    out += "\n";
  }
  hex(out, r.makespan_s);
  hex(out, r.total_energy_j);
  for (const auto& [t, w] : r.cluster_timeline) {
    hex(out, t);
    hex(out, w);
  }
  return out;
}

class ShardedRestore : public ::testing::TestWithParam<int> {};

TEST_P(ShardedRestore, SeqCounterAndRunSurviveRoundTrip) {
  const int shards = GetParam();
  const TwinSpec spec = make_sharded_spec(shards, shards, /*chaos=*/true);

  TwinSession original(spec);
  original.advance_to(140.0);
  sim::ShardedEngine* engine = original.scenario().engine();
  ASSERT_NE(engine, nullptr);
  const std::uint64_t seq_at_capture = engine->total_seq_counter();
  EXPECT_GT(seq_at_capture, 0u);

  const Snapshot snap = Snapshot::capture(original);
  EXPECT_EQ(snap.spec().scenario.shards, shards);
  EXPECT_EQ(snap.spec().scenario.workers, shards);

  // Restore replays the spec on a fresh sharded engine and verifies every
  // section byte-for-byte (a seq drift fails inside restore already).
  std::unique_ptr<TwinSession> restored;
  ASSERT_NO_THROW(restored = snap.restore()) << "shards " << shards;
  sim::ShardedEngine* rengine = restored->scenario().engine();
  ASSERT_NE(rengine, nullptr);
  EXPECT_EQ(rengine->islands(), engine->islands());
  EXPECT_EQ(rengine->total_seq_counter(), seq_at_capture)
      << "replay reached the capture instant with a different event "
         "sequence history (shards "
      << shards << ")";

  const ScenarioResult original_result = original.finish();
  const ScenarioResult restored_result = restored->finish();
  EXPECT_EQ(render(original_result), render(restored_result))
      << "shards " << shards;
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedRestore, ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "shards" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace fluxpower
