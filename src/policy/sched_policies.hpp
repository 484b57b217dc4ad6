// sched_policies.hpp — built-in scheduler policies for the policy plane.
//
// A fixed name table reached through make_sched_policy() is the one way to
// construct them. fcfs, easy-backfill and power-aware are the original
// scheduler modes; the two newer ones come from PAPERS.md:
//   * power-aware-easy — EASY backfill under the cluster power budget:
//     jobs behind a blocked head may start only when the budget covers the
//     already-admitted jobs, the candidate AND the blocked head's estimate
//     (a power reservation, not just a node-count check).
//   * eco-mode — user-assisted bi-objective capping ("Run your HPC jobs in
//     Eco-Mode"): FCFS admission, but a job carrying the jobspec attribute
//     `eco_tolerance` (acceptable relative slowdown, clamped to [0, 0.6])
//     self-caps at power_estimate_w_per_node x (1 - eco_tolerance); the
//     surplus is water-filled to the other jobs by the manager.
#pragma once

#include <memory>
#include <string_view>

#include "policy/policy.hpp"

namespace fluxpower::policy {

/// Strict FCFS: only the head of the queue may start.
class FcfsPolicy final : public SchedulerPolicy {
 public:
  const char* name() const noexcept override { return "fcfs"; }
  SchedHint admit(const SchedView&, const flux::Job&,
                  const flux::Job*) override {
    return SchedHint::Start;
  }
};

/// Conservative node-count backfill: jobs behind a blocked head may start
/// when they fit in the leftover nodes.
class EasyBackfillPolicy final : public SchedulerPolicy {
 public:
  const char* name() const noexcept override { return "easy-backfill"; }
  SchedHint admit(const SchedView&, const flux::Job&,
                  const flux::Job*) override {
    return SchedHint::Start;
  }
  bool backfill() const noexcept override { return true; }
};

/// Hardware-overprovisioning admission control: a job starts only when the
/// cluster power bound can accommodate its estimated peak draw on top of
/// the already-admitted jobs; a blocked head blocks the queue.
class PowerAwarePolicy final : public SchedulerPolicy {
 public:
  const char* name() const noexcept override { return "power-aware"; }
  SchedHint admit(const SchedView& view, const flux::Job& job,
                  const flux::Job*) override;
  double admission_estimate_w(const SchedView& view,
                              const flux::Job& job) const override {
    return job_power_estimate_w(view, job);
  }
};

/// EASY backfill with power reservations: like PowerAware, but a
/// power-blocked job is skipped (not head-of-line blocking), and any job
/// admitted past a blocked head must leave room for the head's estimate.
class PowerAwareEasyPolicy final : public SchedulerPolicy {
 public:
  const char* name() const noexcept override { return "power-aware-easy"; }
  SchedHint admit(const SchedView& view, const flux::Job& job,
                  const flux::Job* blocked_head) override;
  bool backfill() const noexcept override { return true; }
  double admission_estimate_w(const SchedView& view,
                              const flux::Job& job) const override {
    return job_power_estimate_w(view, job);
  }
};

/// Eco-mode user-assisted capping: FCFS admission plus a per-job self-cap
/// derived from the `eco_tolerance` jobspec attribute.
class EcoModePolicy final : public SchedulerPolicy {
 public:
  const char* name() const noexcept override { return "eco-mode"; }
  SchedHint admit(const SchedView&, const flux::Job&,
                  const flux::Job*) override {
    return SchedHint::Start;
  }
  double requested_node_power_w(const flux::Job& job) const override;
};

/// Construct a built-in scheduler policy by name: "fcfs", "easy-backfill",
/// "power-aware", "power-aware-easy" or "eco-mode". Throws
/// std::invalid_argument on unknown names, listing the known ones.
std::unique_ptr<SchedulerPolicy> make_sched_policy(std::string_view name);

}  // namespace fluxpower::policy
