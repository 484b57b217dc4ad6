// job_manager.hpp — job lifecycle management on the root broker.
//
// Tracks every job from submission to completion, drives the scheduler,
// launches executions through a pluggable launcher (the workload layer
// provides one that runs application models on the allocated nodes), and
// publishes `job.state-*` events that the power manager consumes to stay
// state-aware. Also answers `job-info.lookup` RPCs — the monitor client
// resolves a job id to its node list and time window through this service.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "flux/jobspec.hpp"
#include "flux/message.hpp"

namespace fluxpower::flux {

class Broker;
class Instance;
class Scheduler;

/// A running job's execution, provided by the launcher. start() begins the
/// run and must invoke `on_complete` exactly once when it finishes; cancel()
/// aborts early (on_complete is then not called).
class JobExecution {
 public:
  virtual ~JobExecution() = default;
  virtual void start(std::function<void()> on_complete) = 0;
  virtual void cancel() = 0;
};

using Launcher =
    std::function<std::unique_ptr<JobExecution>(const Job&, Instance&)>;

class JobManager {
 public:
  explicit JobManager(Instance& instance);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Install the execution launcher. Must be set before the first job
  /// reaches RUN; a null launcher makes jobs complete instantly (useful for
  /// scheduler-only tests).
  void set_launcher(Launcher launcher) { launcher_ = std::move(launcher); }

  JobId submit(JobSpec spec);

  /// Cancel a pending or running job.
  void cancel(JobId id);

  const Job& job(JobId id) const;
  bool has_job(JobId id) const noexcept { return jobs_.contains(id); }

  std::vector<JobId> jobs_in_state(JobState state) const;
  std::vector<JobId> all_jobs() const;
  int running_count() const;

  /// Next JobId to be assigned (twin probe: id allocation is sim state).
  JobId next_id() const noexcept { return next_id_; }

  /// Called by the scheduler when an allocation is granted.
  void start_job(JobId id, std::vector<Rank> ranks);

  /// Register the `job-info.lookup` and `job-manager.submit` services on the
  /// root broker (done automatically by Instance bootstrap).
  void register_services(Broker& root);

 private:
  void finish_job(JobId id);
  void publish_state_event(const Job& job, const char* event);

  Instance& instance_;
  Launcher launcher_;
  std::map<JobId, Job> jobs_;
  std::map<JobId, std::unique_ptr<JobExecution>> executions_;
  JobId next_id_ = 1;
};

}  // namespace fluxpower::flux
