#include "policy/sched_policies.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace fluxpower::policy {

namespace {

template <typename P>
std::unique_ptr<SchedulerPolicy> make() {
  return std::make_unique<P>();
}

struct SchedEntry {
  const char* name;
  std::unique_ptr<SchedulerPolicy> (*make)();
};

constexpr SchedEntry kSchedPolicies[] = {
    {"fcfs", make<FcfsPolicy>},
    {"easy-backfill", make<EasyBackfillPolicy>},
    {"power-aware", make<PowerAwarePolicy>},
    {"power-aware-easy", make<PowerAwareEasyPolicy>},
    {"eco-mode", make<EcoModePolicy>},
};

}  // namespace

SchedHint PowerAwarePolicy::admit(const SchedView& view, const flux::Job& job,
                                  const flux::Job*) {
  if (view.cluster_bound_w <= 0.0) return SchedHint::Start;
  const double estimate = job_power_estimate_w(view, job);
  // A job whose estimate alone exceeds the bound would wait forever;
  // admit it alone (it will be throttled by the power manager instead).
  if (estimate >= view.cluster_bound_w) {
    return view.admitted_jobs == 0 ? SchedHint::Start : SchedHint::HoldQueue;
  }
  return view.admitted_power_w + estimate <= view.cluster_bound_w
             ? SchedHint::Start
             : SchedHint::HoldQueue;
}

SchedHint PowerAwareEasyPolicy::admit(const SchedView& view,
                                      const flux::Job& job,
                                      const flux::Job* blocked_head) {
  if (view.cluster_bound_w <= 0.0) return SchedHint::Start;
  const double estimate = job_power_estimate_w(view, job);
  if (estimate >= view.cluster_bound_w) {
    // Oversized job: admissible alone at an empty cluster with nothing
    // skipped ahead of it; otherwise it waits (skipped, not blocking).
    return view.admitted_jobs == 0 && blocked_head == nullptr
               ? SchedHint::Start
               : SchedHint::SkipJob;
  }
  // EASY power reservation: a job admitted past a blocked head must leave
  // room for the head's own estimate, or it could delay the head forever.
  const double reserved =
      blocked_head != nullptr ? job_power_estimate_w(view, *blocked_head) : 0.0;
  return view.admitted_power_w + reserved + estimate <= view.cluster_bound_w
             ? SchedHint::Start
             : SchedHint::SkipJob;
}

double EcoModePolicy::requested_node_power_w(const flux::Job& job) const {
  // cap = estimate x (1 - tolerance); tolerance clamped to [0, 0.6] so a
  // typo'd attribute cannot strangle a job, 0/absent means no self-cap.
  // The estimate must be explicit: without `power_estimate_w_per_node`
  // there is nothing meaningful to derive a saving from.
  const double tolerance = std::clamp(
      job.spec.attributes.number_or("eco_tolerance", 0.0), 0.0, 0.6);
  if (tolerance <= 0.0) return 0.0;
  const double estimate =
      job.spec.attributes.number_or("power_estimate_w_per_node", 0.0);
  if (estimate <= 0.0) return 0.0;
  return estimate * (1.0 - tolerance);
}

std::unique_ptr<SchedulerPolicy> make_sched_policy(std::string_view name) {
  for (const SchedEntry& e : kSchedPolicies) {
    if (name == e.name) return e.make();
  }
  std::string known;
  for (const SchedEntry& e : kSchedPolicies) {
    if (!known.empty()) known += ", ";
    known += e.name;
  }
  throw std::invalid_argument("unknown scheduler policy \"" +
                              std::string(name) + "\" (known: " + known +
                              ")");
}

}  // namespace fluxpower::policy
