// app_runtime.hpp — executes an application model on allocated nodes.
//
// AppRuntime is the flux::JobExecution the workload launcher hands to the
// job-manager. It advances the application in fixed simulation steps:
// each step sets the current phase's power demand on every allocated node,
// reads back the granted power under whatever caps the power manager has
// installed, converts the grant ratio into a progress speed, and advances
// the job bulk-synchronously at the *minimum* node speed (MPI semantics:
// the slowest rank gates the timestep). Telemetry-agent CPU theft recorded
// on the nodes is drained here and subtracts from progress — that is the
// monitor-overhead mechanism measured in Fig 3.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "apps/app_model.hpp"
#include "flux/broker.hpp"
#include "flux/job_manager.hpp"
#include "hwsim/node.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::apps {

struct AppRuntimeOptions {
  double step_s = 0.5;  ///< simulation step; phase boundaries are resolved
                        ///< to this granularity
  /// Multiplicative progress factor for this run (run-to-run variability /
  /// OS jitter model; 1.0 = nominal machine).
  double speed_factor = 1.0;
  /// Progress reporting: when set, the runtime publishes a `job.progress`
  /// event every `progress_period_s` with {id, ranks, work_done, total} —
  /// the "progress metrics" hook §III-B names for dynamic node policies.
  flux::Broker* progress_broker = nullptr;
  flux::JobId job_id = flux::kInvalidJob;
  std::vector<flux::Rank> ranks;
  double progress_period_s = 10.0;
};

class AppRuntime final : public flux::JobExecution {
 public:
  AppRuntime(sim::Simulation& sim, std::vector<hwsim::Node*> nodes,
             AppProfile profile, AppRuntimeOptions options = {});
  ~AppRuntime() override;

  void start(std::function<void()> on_complete) override;
  void cancel() override;

  const AppProfile& profile() const noexcept { return profile_; }
  /// Work completed so far, in nominal seconds (== runtime_s when done).
  double work_done() const noexcept { return work_done_; }
  bool running() const noexcept { return running_; }

  /// The phase active at a given work position (exposed for tests).
  const AppPhase& phase_at(double work) const;

 private:
  void step();
  void finish();
  void apply_phase_demand(const AppPhase& phase);
  double min_node_speed(const AppPhase& phase) const;

  sim::Simulation& sim_;
  std::vector<hwsim::Node*> nodes_;
  AppProfile profile_;
  AppRuntimeOptions options_;
  std::function<void()> on_complete_;
  sim::EventId pending_ = sim::kInvalidEvent;
  std::unique_ptr<sim::PeriodicTask> progress_task_;
  double work_done_ = 0.0;
  double last_speed_ = 1.0;  ///< previous step's speed, for CPU coupling
  bool running_ = false;
};

}  // namespace fluxpower::apps
