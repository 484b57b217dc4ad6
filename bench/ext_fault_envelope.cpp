// Extension: the fault envelope — how far the §III stack degrades before
// it breaks. The paper's production argument (§V) is qualitative: vendor
// interfaces fail, so the framework must keep the bound and keep reporting.
// This bench quantifies it. A 12-node power-constrained mix (GEMM +
// Quicksilver under a 14.4 kW bound) runs against increasing deterministic
// fault weather — lossy TBON links, node crash/reboot cycles, sensor
// dropouts, failing cap writes — and the table reports, per level:
//   * bound overshoot: peak exact cluster draw vs the configured bound;
//   * telemetry coverage: responding / requested nodes per job query;
//   * the degradation machinery at work: cap-write retries, quarantined
//     ranks, sensor-faulted sweeps, dropped messages.
// Everything is driven by one seed; re-running prints a byte-identical
// table (the determinism contract of the fault plane).
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "experiments/scenario.hpp"
#include "manager/power_manager.hpp"
#include "monitor/client.hpp"
#include "util/table.hpp"

using namespace fluxpower;
using namespace fluxpower::experiments;

namespace {

struct FaultLevel {
  const char* name;
  faultsim::FaultPlaneConfig faults;
};

struct Outcome {
  double overshoot_pct = 0.0;
  double makespan_s = 0.0;
  std::size_t requested = 0;
  std::size_t responding = 0;
  std::uint64_t sensor_faults = 0;
  std::uint64_t msgs_lost = 0;
  std::uint64_t cap_failures = 0;
  std::uint64_t cap_retries = 0;
  std::uint64_t quarantine_events = 0;
  std::uint64_t crashes = 0;
};

constexpr double kBoundW = 14400.0;
constexpr int kNodes = 12;

Outcome run_level(const FaultLevel& level, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.nodes = kNodes;
  cfg.seed = seed;
  cfg.load_manager = true;
  cfg.manager.cluster_power_bound_w = kBoundW;
  cfg.manager.static_node_cap_w = 1950.0;
  cfg.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  // Reconciliation on: crashed ranks are detected by their timeouts and
  // quarantined, instead of only being noticed at allocation events.
  cfg.manager.limit_refresh_s = 30.0;
  if (level.faults.msg_drop_rate > 0.0 || level.faults.node_mtbf_s > 0.0 ||
      level.faults.sensor_dropout_rate > 0.0 ||
      level.faults.cap_write_failure_rate > 0.0) {
    faultsim::FaultPlaneConfig f = level.faults;
    f.seed = seed;
    cfg.faults = f;
  }
  Scenario s(cfg);

  JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 8;
  gemm.work_scale = 2.0;
  const flux::JobId gemm_id = s.submit(gemm);
  JobRequest qs;
  qs.kind = apps::AppKind::Quicksilver;
  qs.nnodes = 4;
  qs.work_scale = 15.0;
  const flux::JobId qs_id = s.submit(qs);

  ScenarioResult res = s.run(/*max_time_s=*/3600.0);

  Outcome out;
  out.overshoot_pct =
      std::max(0.0, res.max_cluster_power_w - kBoundW) / kBoundW * 100.0;
  out.makespan_s = res.makespan_s;

  monitor::MonitorClient client(s.instance());
  for (flux::JobId id : {gemm_id, qs_id}) {
    if (auto data = client.query_blocking(id)) {
      out.requested += data->requested_nodes();
      out.responding += data->responding_nodes();
    }
  }

  if (const faultsim::FaultPlane* plane = s.fault_plane()) {
    const faultsim::FaultCounters& c = plane->counters();
    out.sensor_faults = c.sensor_dropouts + c.sensor_stuck_sweeps;
    out.msgs_lost = c.msgs_dropped + c.msgs_blackholed;
    out.cap_failures = c.cap_write_failures;
    out.crashes = c.node_crashes;
  }
  for (int r = 0; r < s.instance().size(); ++r) {
    auto* pm = static_cast<manager::PowerManagerModule*>(
        s.instance().broker(r).find_module("power-manager"));
    if (pm != nullptr) out.cap_retries += pm->cap_retries();
  }
  auto* root_pm = static_cast<manager::PowerManagerModule*>(
      s.instance().root().find_module("power-manager"));
  if (root_pm != nullptr) {
    out.quarantine_events = root_pm->cluster()->quarantine_events();
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("EXT",
                "fault envelope: bound overshoot and telemetry coverage vs "
                "injected fault intensity");

  const std::uint64_t seed = 20260806;

  std::vector<FaultLevel> levels;
  levels.push_back({"none", {}});
  {
    faultsim::FaultPlaneConfig f;
    f.msg_drop_rate = 0.01;
    f.msg_dup_rate = 0.005;
    f.msg_delay_rate = 0.02;
    f.sensor_dropout_rate = 0.01;
    f.cap_write_failure_rate = 0.02;
    levels.push_back({"light", f});
  }
  {
    faultsim::FaultPlaneConfig f;
    f.msg_drop_rate = 0.05;
    f.msg_dup_rate = 0.01;
    f.msg_delay_rate = 0.05;
    f.node_mtbf_s = 3600.0;
    f.sensor_dropout_rate = 0.05;
    f.sensor_stuck_rate = 0.01;
    f.cap_write_failure_rate = 0.10;
    levels.push_back({"moderate", f});
  }
  {
    faultsim::FaultPlaneConfig f;
    f.msg_drop_rate = 0.15;
    f.msg_dup_rate = 0.03;
    f.msg_delay_rate = 0.10;
    f.node_mtbf_s = 900.0;
    f.node_reboot_s = 60.0;
    f.sensor_dropout_rate = 0.15;
    f.sensor_stuck_rate = 0.05;
    f.cap_write_failure_rate = 0.30;
    levels.push_back({"heavy", f});
  }

  util::TextTable table({"fault level", "overshoot %", "coverage",
                         "makespan s", "crashes", "msgs lost", "sensor faults",
                         "cap fails", "cap retries", "quarantined"});
  for (const FaultLevel& level : levels) {
    const Outcome o = run_level(level, seed);
    table.add_row({level.name, bench::num(o.overshoot_pct, 2),
                   std::to_string(o.responding) + "/" +
                       std::to_string(o.requested),
                   bench::num(o.makespan_s, 0), std::to_string(o.crashes),
                   std::to_string(o.msgs_lost),
                   std::to_string(o.sensor_faults),
                   std::to_string(o.cap_failures),
                   std::to_string(o.cap_retries),
                   std::to_string(o.quarantine_events)});
  }
  table.print(std::cout);
  bench::note(
      "coverage is responding/requested nodes over one post-run query per "
      "job; overshoot compares the peak exact cluster draw against the "
      "14.4 kW bound. The degradation machinery (cap-write backoff retries, "
      "root-level quarantine, partial aggregates) keeps the bound nearly "
      "intact and the telemetry denominator honest even under heavy "
      "weather; with zero fault rates the stack is byte-identical to a "
      "build without the fault plane.");
  return 0;
}
