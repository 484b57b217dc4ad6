// scenario.hpp — end-to-end experiment runner.
//
// A Scenario assembles the full stack the paper deploys — simulated
// cluster, Flux instance, power-monitor module on every broker, optional
// power-manager with a chosen policy, application launcher — submits jobs,
// runs the simulation to completion, and reports per-job runtime/power/
// energy plus cluster-level aggregates and power timelines. Every bench
// and example builds on this runner so the measurement methodology is
// identical across tables and figures.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/launcher.hpp"
#include "apps/workload.hpp"
#include "faultsim/fault_plane.hpp"
#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "manager/power_manager.hpp"
#include "monitor/client.hpp"
#include "monitor/power_monitor.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::experiments {

struct ScenarioConfig {
  hwsim::Platform platform = hwsim::Platform::LassenIbmAc922;
  int nodes = 8;
  int tbon_fanout = 2;

  bool load_monitor = true;
  std::optional<monitor::PowerMonitorConfig> monitor;  ///< platform default if unset

  bool load_manager = false;
  manager::PowerManagerConfig manager;

  /// Scheduler policy by name ("fcfs", "easy-backfill", "power-aware",
  /// "power-aware-easy", "eco-mode"; see policy::make_sched_policy).
  /// Empty = keep the instance default (FCFS). Applied before any job is
  /// submitted.
  std::string sched_policy;

  /// Publish job.progress events from running jobs (required by
  /// manager::NodePolicy::ProgressBased).
  bool report_progress = false;

  /// Deterministic fault injection for the whole stack (crashes, lossy
  /// TBON links, sensor dropouts, cap-write failures). Unset = no fault
  /// plane attached; the stack runs byte-identically to a build without
  /// fault injection.
  std::optional<faultsim::FaultPlaneConfig> faults;

  /// Relative sensor noise (reads only; exact meters are unaffected).
  double sensor_noise = 0.004;
  /// Enable the run-to-run variability model (Fig 3/4 studies).
  bool runtime_variability = false;
  std::uint64_t seed = 42;
  double app_step_s = 0.5;
  /// Cadence of the cluster power recorder (2 s, like the monitor).
  double record_period_s = 2.0;

  /// Sharded execution profile. 0 (default) runs the classic monolithic
  /// engine, byte-identical to earlier releases. >= 1 partitions the TBON
  /// into that many per-subtree simulation islands under the conservative
  /// window barrier, and switches on the profile's partition-independent
  /// semantics (cell-confined placement, deferred scheduler kicks,
  /// per-cell recorders, island-local fault streams) — so any shard count
  /// produces byte-identical output to shards=1. See DESIGN.md, "Sharded
  /// engine and conservative window barrier".
  int shards = 0;
  /// Worker threads advancing the islands (clamped to the shard count).
  int workers = 1;
};

struct JobRequest {
  apps::AppKind kind = apps::AppKind::Gemm;
  int nnodes = 1;
  double work_scale = 1.0;
  double submit_time_s = 0.0;
  /// Eco-mode opt-in: acceptable fractional slowdown (0 = not enrolled).
  /// Lands in the jobspec as the "eco_tolerance" attribute; under the
  /// eco-mode scheduler policy the job self-caps at
  /// power_estimate_w_per_node * (1 - eco_tolerance) per node.
  double eco_tolerance = 0.0;
};

struct JobResult {
  flux::JobId id = 0;
  std::string app;
  int nnodes = 0;
  double t_submit = 0.0;
  double t_start = 0.0;
  double t_end = 0.0;
  double runtime_s = 0.0;
  /// Telemetry-derived statistics (monitor client; absent if no monitor).
  double avg_node_power_w = 0.0;
  double max_node_power_w = 0.0;
  double max_aggregate_power_w = 0.0;
  double avg_node_energy_j = 0.0;
  bool telemetry_complete = false;
  /// Exact per-node energy over the job window from the hardware meters.
  double exact_avg_node_energy_j = 0.0;
};

struct TimelinePoint {
  double t_s = 0.0;
  double node_w = 0.0;
  std::vector<double> gpu_w;
  std::vector<double> cpu_w;
  double mem_w = 0.0;
  std::vector<double> gpu_cap_w;  ///< active per-GPU caps (0 = none)
};

struct ScenarioResult {
  std::vector<JobResult> jobs;
  double makespan_s = 0.0;  ///< last end − first submit
  double total_energy_j = 0.0;
  double max_cluster_power_w = 0.0;  ///< peak of 2 s-sampled total draw
  double avg_cluster_power_w = 0.0;
  /// Exact-draw timeline of the first node of each job (Figs 1, 5, 6, 7).
  std::map<flux::JobId, std::vector<TimelinePoint>> timelines;
  /// Cluster total-draw timeline.
  std::vector<std::pair<double, double>> cluster_timeline;

  const JobResult& job(flux::JobId id) const;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);
  ~Scenario();

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Queue a job for submission at its submit_time_s.
  flux::JobId submit(const JobRequest& request);

  /// Run until every submitted job completes (or max_time_s elapses) and
  /// collect results. May be called once. Equivalent to advance_until(+inf,
  /// max_time_s) followed by finish(max_time_s): the loop condition is
  /// checked before every event, so phased execution stops on exactly the
  /// same event as a straight run — the byte-identity the twin's
  /// snapshot-equivalence suite asserts.
  ScenarioResult run(double max_time_s = 86400.0);

  /// Phased execution (digital twin): execute events with time <= horizon_s,
  /// stopping early when all jobs completed or max_time_s is reached —
  /// exactly where run() would have stopped. May be called repeatedly with
  /// nondecreasing horizons; submissions are frozen after the first call.
  void advance_until(double horizon_s, double max_time_s = 86400.0);

  /// Complete the run (advance to job completion / max_time_s) and collect
  /// results. May be called once; terminal like run().
  ScenarioResult finish(double max_time_s = 86400.0);

  /// True once the run loop's stop condition held (all jobs done, queue
  /// empty, or max_time_s reached) during an advance/finish/run.
  bool all_jobs_done() const noexcept {
    return completed_ >= static_cast<int>(tracked_.size());
  }
  int completed_jobs() const noexcept { return completed_; }
  std::size_t submitted_jobs() const noexcept { return tracked_.size(); }
  const ScenarioConfig& config() const noexcept { return config_; }
  /// Recorder output so far (twin probe: derived-but-reported state — two
  /// runs must agree on every recorded point or stdout diverges). Sharded:
  /// merged on demand from the per-cell recorders; call only between
  /// windows (after an advance_until returned).
  const std::vector<std::pair<double, double>>& cluster_timeline_so_far() {
    merge_cluster_timeline();
    return cluster_timeline_;
  }

  /// The root engine: island 0 when sharded, the single engine otherwise.
  sim::Simulation& sim() noexcept {
    return engine_ ? engine_->island(0) : sim_;
  }
  /// The sharded engine, or null when config.shards == 0.
  sim::ShardedEngine* engine() noexcept { return engine_.get(); }
  hwsim::Cluster& cluster() noexcept { return cluster_; }
  flux::Instance& instance() noexcept { return *instance_; }
  /// The attached fault plane; null when config.faults is unset.
  faultsim::FaultPlane* fault_plane() noexcept { return fault_plane_.get(); }

 private:
  void record_tick();
  void record_cell_tick(std::size_t cell);
  void build_sharded_stack(const flux::InstanceConfig& icfg);
  void merge_cluster_timeline();
  flux::Launcher wrap_launcher_sharded(flux::Launcher inner);

  ScenarioConfig config_;
  sim::Simulation sim_;  ///< the monolithic engine (idle when sharded)
  std::unique_ptr<sim::ShardedEngine> engine_;  ///< set when shards >= 1
  hwsim::Cluster cluster_;
  std::unique_ptr<flux::Instance> instance_;
  /// Declared after instance_: the plane detaches from instance/nodes in
  /// its destructor, which must run before they are torn down.
  std::unique_ptr<faultsim::FaultPlane> fault_plane_;
  std::unique_ptr<sim::PeriodicTask> recorder_;

  struct Tracked {
    JobRequest request;
    flux::JobId id = 0;
    double energy_at_start_j = 0.0;
    bool done = false;
  };
  std::vector<Tracked> tracked_;
  std::map<flux::JobId, std::size_t> by_id_;
  std::map<flux::JobId, std::vector<TimelinePoint>> timelines_;
  std::vector<std::pair<double, double>> cluster_timeline_;
  std::map<flux::JobId, double> job_energy_j_;
  int completed_ = 0;
  bool ran_ = false;      ///< terminal collection happened (run/finish)
  bool started_ = false;  ///< first advance happened; submissions frozen

  // -- Sharded execution profile state -------------------------------------
  /// Root-child TBON subtrees in child order (the placement cells).
  std::vector<std::vector<flux::Rank>> cells_;
  std::vector<int> cell_of_rank_;  ///< -1 for rank 0
  std::vector<int> island_of_rank_;
  /// Everything one cell's recorder and job executions touch, cache-line
  /// padded: written only by the owning island's worker thread.
  struct alignas(64) CellState {
    /// Jobs whose allocation lives in this cell and whose application is
    /// currently running: job id -> first rank (timeline source).
    std::map<flux::JobId, flux::Rank> running;
    /// (t, cell draw): the cell's contribution to the cluster timeline,
    /// folded over the cell's ranks in subtree order (S-invariant).
    std::vector<std::pair<double, double>> draw;
    std::map<flux::JobId, std::vector<TimelinePoint>> timelines;
  };
  std::vector<std::unique_ptr<CellState>> cell_state_;
  std::vector<std::unique_ptr<sim::PeriodicTask>> cell_recorders_;
  /// (t, node 0 draw): island 0's contribution to the cluster timeline.
  std::vector<std::pair<double, double>> node0_draw_;
  /// Per-tracked-job energy accounting, written only by the job's island
  /// (the launcher wrapper), read after the run.
  struct alignas(64) EnergySlot {
    double at_start_j = 0.0;
    double total_j = 0.0;
    bool valid = false;
  };
  std::vector<EnergySlot> energy_slots_;
};

/// Convenience: run one job alone on a fresh cluster and return its result
/// plus the first-node timeline (Fig 1 / Table II style measurements).
struct SingleJobOutcome {
  JobResult result;
  std::vector<TimelinePoint> timeline;
};
SingleJobOutcome run_single_job(hwsim::Platform platform, apps::AppKind kind,
                                int nnodes, double work_scale = 1.0,
                                bool with_monitor = true,
                                std::uint64_t seed = 42,
                                bool runtime_variability = false);

}  // namespace fluxpower::experiments
