// scheduler.hpp — node scheduler (FCFS, backfill, power-aware admission).
//
// First-come-first-served over whole nodes (the granularity every
// experiment in the paper uses). Jobs that cannot be placed wait in
// submission order; strict FCFS (no backfill) keeps makespan results easy
// to reason about, and matches "Flux schedules these jobs as any regular
// resource manager would" (§IV-E).
//
// Admission decisions are delegated to a pluggable policy::SchedulerPolicy
// (see src/policy/policy.hpp): one admit() verdict per queued job per scan,
// plus an optional charge against the admitted-power ledger. set_policy()
// picks one by name (policy::make_sched_policy); besides "fcfs":
//   * "easy-backfill" — conservative node-count backfill (scheduling
//     ablation);
//   * "power-aware" — hardware-overprovisioning admission control (the
//     paper's future-work direction, citing Patki et al. / Sakamoto et
//     al.): a job is only started when the cluster power bound can
//     accommodate its estimated peak draw on top of the already-admitted
//     jobs. Estimates come from the jobspec attribute
//     `power_estimate_w_per_node` (the node peak is assumed when absent).
//     Trades queueing delay for running every admitted job at full power
//     instead of throttling everyone proportionally;
//   * "power-aware-easy" / "eco-mode" — PAPERS.md additions.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "flux/jobspec.hpp"
#include "policy/policy.hpp"

namespace fluxpower::sim {
class Simulation;
}

namespace fluxpower::obs {
class Counter;
class Histogram;
}

namespace fluxpower::flux {

class Instance;

class Scheduler {
 public:
  /// Starts with the "fcfs" policy.
  explicit Scheduler(Instance& instance);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  ~Scheduler();

  /// Install a policy by name (see policy::make_sched_policy); throws
  /// std::invalid_argument on unknown names. A mid-run policy change kicks
  /// the queue (deferred-kick aware): queued jobs admissible under the new
  /// policy must not wait for the next enqueue/release.
  void set_policy(std::string_view name);
  const char* policy_name() const noexcept { return policy_obj_->name(); }

  /// Add a job to the wait queue and try to place it.
  void enqueue(JobId id);

  /// Remove a job from the wait queue (cancellation before start).
  void dequeue(JobId id);

  /// Release a finished job's nodes (and its power admission) and try to
  /// place waiting jobs.
  void release(JobId id, const std::vector<Rank>& ranks);

  /// Attempt to start queued jobs; called on submit and on release.
  void kick();

  int free_node_count() const;
  std::size_t queue_length() const noexcept { return queue_.size(); }

  /// Administratively remove a node from scheduling (e.g. §V: a node whose
  /// GPU power capping is unreliable). Running jobs are unaffected; the
  /// rank is skipped for new allocations until undrained.
  void drain(Rank rank);
  void undrain(Rank rank);
  bool drained(Rank rank) const;
  int drained_count() const;

  /// Power-aware admission parameters: the cluster power bound and the
  /// per-node peak assumed for jobs without an estimate. Only consulted
  /// by power-admission policies.
  void set_power_budget(double cluster_bound_w, double node_peak_w);
  /// Peak power currently admitted (sum of running-job estimates).
  double admitted_power_w() const noexcept { return admitted_power_w_; }
  /// Power-admission ledger: running job -> charged estimate (twin probe).
  const std::map<JobId, double>& admitted() const noexcept {
    return admitted_;
  }
  /// Wait-queue contents in scan order (twin probe).
  const std::deque<JobId>& queued_jobs() const noexcept { return queue_; }

  /// Self-cap the installed policy requests for `job` (eco-mode), 0 = none;
  /// consulted by the job manager when publishing job.state-run.
  double requested_node_power_w(const Job& job) const {
    return policy_obj_->requested_node_power_w(job);
  }

  /// Sharded execution profile: confine every allocation to one TBON cell
  /// (a root-child subtree, given in child order with ranks in BFS
  /// subtree order). A job is placed first-fit within the first cell that
  /// has enough free nodes; rank 0 belongs to no cell and is never
  /// allocated. Jobs wider than the widest cell are rejected at enqueue
  /// (they could never be placed). The rule only looks at cells — never
  /// at islands — so placement is identical for every shard count.
  void set_cell_confinement(std::vector<std::vector<Rank>> cells);
  int max_cell_size() const noexcept;

  /// Sharded execution profile: coalesce kicks into one zero-delay event
  /// on `sim` instead of scheduling synchronously from enqueue/release.
  /// All same-timestamp releases then land before any placement decision,
  /// making the decision independent of their arrival order.
  void set_deferred_kick(sim::Simulation& sim);

 private:
  std::vector<Rank> try_allocate(int nnodes);
  bool start_one();
  void kick_now();
  policy::SchedView make_view() const;
  /// Lazily bind the per-policy decision instruments in the root broker's
  /// registry (root exists only after bootstrap; first scan is late
  /// enough, and the first-touch order is deterministic).
  void bind_instruments();

  Instance& instance_;
  std::unique_ptr<policy::SchedulerPolicy> policy_obj_;
  std::deque<JobId> queue_;
  std::vector<bool> busy_;     ///< per-rank allocation bit
  std::vector<bool> drained_;  ///< per-rank admin drain bit
  bool kicking_ = false;
  bool kick_requested_ = false;
  std::vector<std::vector<Rank>> cells_;  ///< sharded profile placement cells
  sim::Simulation* kick_sim_ = nullptr;   ///< non-null: defer + coalesce kicks
  bool kick_scheduled_ = false;
  double cluster_bound_w_ = 0.0;  ///< 0 = no power admission control
  double node_peak_w_ = 3050.0;
  double admitted_power_w_ = 0.0;
  std::map<JobId, double> admitted_;  ///< running job -> power estimate
  // Decision instruments (root broker registry; null until first scan).
  obs::Counter* decisions_total_ = nullptr;
  obs::Counter* starts_total_ = nullptr;
  obs::Counter* holds_total_ = nullptr;
  obs::Counter* skips_total_ = nullptr;
  obs::Histogram* queue_wait_seconds_ = nullptr;
};

}  // namespace fluxpower::flux
