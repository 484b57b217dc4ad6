#include "flux/scheduler.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "flux/instance.hpp"
#include "obs/metrics.hpp"
#include "policy/sched_policies.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::flux {

namespace {
/// Queue-wait spans an immediate start (0) through long power-blocked waits.
constexpr std::array<double, 8> kQueueWaitBounds = {
    1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 1800.0, 7200.0};
}  // namespace

Scheduler::Scheduler(Instance& instance)
    : instance_(instance), policy_obj_(policy::make_sched_policy("fcfs")) {
  busy_.assign(static_cast<std::size_t>(instance_.size()), false);
  drained_.assign(static_cast<std::size_t>(instance_.size()), false);
}

Scheduler::~Scheduler() = default;

void Scheduler::set_policy(std::string_view name) {
  policy_obj_ = policy::make_sched_policy(name);
  // A mid-run policy change must re-examine the queue: jobs inadmissible
  // under the old policy may start immediately under the new one. With an
  // empty queue this is a no-op (no event scheduled even under the
  // deferred-kick profile), so pre-run set_policy calls leave the event
  // sequence untouched.
  if (!queue_.empty()) kick();
}

void Scheduler::drain(Rank rank) {
  if (rank >= 0 && static_cast<std::size_t>(rank) < drained_.size()) {
    drained_[static_cast<std::size_t>(rank)] = true;
  }
}

void Scheduler::undrain(Rank rank) {
  if (rank >= 0 && static_cast<std::size_t>(rank) < drained_.size()) {
    drained_[static_cast<std::size_t>(rank)] = false;
    kick();
  }
}

bool Scheduler::drained(Rank rank) const {
  return rank >= 0 && static_cast<std::size_t>(rank) < drained_.size() &&
         drained_[static_cast<std::size_t>(rank)];
}

int Scheduler::drained_count() const {
  return static_cast<int>(std::count(drained_.begin(), drained_.end(), true));
}

void Scheduler::enqueue(JobId id) {
  queue_.push_back(id);
  kick();
}

void Scheduler::dequeue(JobId id) {
  auto it = std::find(queue_.begin(), queue_.end(), id);
  if (it != queue_.end()) queue_.erase(it);
}

void Scheduler::release(JobId id, const std::vector<Rank>& ranks) {
  for (Rank r : ranks) {
    if (r >= 0 && static_cast<std::size_t>(r) < busy_.size()) {
      busy_[static_cast<std::size_t>(r)] = false;
    }
  }
  auto it = admitted_.find(id);
  if (it != admitted_.end()) {
    admitted_power_w_ -= it->second;
    admitted_.erase(it);
  }
  kick();
}

void Scheduler::set_power_budget(double cluster_bound_w, double node_peak_w) {
  cluster_bound_w_ = cluster_bound_w;
  node_peak_w_ = node_peak_w;
}

void Scheduler::set_cell_confinement(std::vector<std::vector<Rank>> cells) {
  for (const auto& cell : cells) {
    for (Rank r : cell) {
      if (r <= 0 || r >= instance_.size()) {
        throw std::invalid_argument(
            "Scheduler::set_cell_confinement: cell ranks must be in "
            "[1, size)");
      }
    }
  }
  cells_ = std::move(cells);
}

int Scheduler::max_cell_size() const noexcept {
  std::size_t widest = 0;
  for (const auto& cell : cells_) widest = std::max(widest, cell.size());
  return static_cast<int>(widest);
}

void Scheduler::set_deferred_kick(sim::Simulation& sim) { kick_sim_ = &sim; }

policy::SchedView Scheduler::make_view() const {
  policy::SchedView view;
  view.now_s = instance_.sim().now();
  view.cluster_bound_w = cluster_bound_w_;
  view.node_peak_w = node_peak_w_;
  view.admitted_power_w = admitted_power_w_;
  view.admitted_jobs = admitted_.size();
  view.free_nodes = free_node_count();
  view.total_nodes = instance_.size();
  return view;
}

void Scheduler::bind_instruments() {
  if (decisions_total_ != nullptr) return;
  obs::MetricsRegistry& reg = instance_.root().metrics();
  decisions_total_ =
      &reg.counter("fluxpower_policy_sched_decisions_total",
                   "Admission verdicts issued during queue scans");
  starts_total_ = &reg.counter("fluxpower_policy_sched_starts_total",
                               "Queue-scan verdicts that started a job");
  holds_total_ =
      &reg.counter("fluxpower_policy_sched_holds_total",
                   "Queue-scan verdicts that head-of-line blocked the queue");
  skips_total_ =
      &reg.counter("fluxpower_policy_sched_skips_total",
                   "Queue-scan verdicts that passed over a job (backfill)");
  queue_wait_seconds_ =
      &reg.histogram("fluxpower_policy_sched_queue_wait_seconds",
                     "Sim-time wait from submission to start", kQueueWaitBounds);
}

int Scheduler::free_node_count() const {
  int n = 0;
  for (std::size_t r = 0; r < busy_.size(); ++r) {
    if (!busy_[r] && !drained_[r]) ++n;
  }
  return n;
}

std::vector<Rank> Scheduler::try_allocate(int nnodes) {
  std::vector<Rank> ranks;
  if (!cells_.empty()) {
    // Cell-confined placement: first cell (in child order) with enough
    // free ranks wins; within the cell, take free ranks in subtree order.
    // Depends only on the cell layout and the busy/drain bits, never on
    // the island partition.
    for (const auto& cell : cells_) {
      ranks.clear();
      for (Rank r : cell) {
        if (static_cast<int>(ranks.size()) == nnodes) break;
        const auto i = static_cast<std::size_t>(r);
        if (!busy_[i] && !drained_[i]) ranks.push_back(r);
      }
      if (static_cast<int>(ranks.size()) == nnodes) {
        for (Rank r : ranks) busy_[static_cast<std::size_t>(r)] = true;
        return ranks;
      }
    }
    return {};
  }
  for (std::size_t r = 0;
       r < busy_.size() && static_cast<int>(ranks.size()) < nnodes; ++r) {
    if (!busy_[r] && !drained_[r]) ranks.push_back(static_cast<Rank>(r));
  }
  if (static_cast<int>(ranks.size()) < nnodes) return {};
  for (Rank r : ranks) busy_[static_cast<std::size_t>(r)] = true;
  return ranks;
}

bool Scheduler::start_one() {
  // One policy verdict per queued job, in submission order. The installed
  // policy only sees the SchedView snapshot (the ledger cannot change
  // mid-scan: a started job ends the scan), and the scheduler commits the
  // admission charge — policies never touch the ledger directly.
  bind_instruments();
  const policy::SchedView view = make_view();
  const Job* blocked_head = nullptr;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const JobId id = *it;
    const Job& job = instance_.jobs().job(id);
    decisions_total_->inc();
    const policy::SchedHint hint = policy_obj_->admit(view, job, blocked_head);
    if (hint == policy::SchedHint::HoldQueue ||
        (hint == policy::SchedHint::SkipJob && !policy_obj_->backfill())) {
      holds_total_->inc();
      return false;  // head-of-line blocking on power, like on nodes
    }
    if (hint == policy::SchedHint::SkipJob) {
      skips_total_->inc();
      if (blocked_head == nullptr) blocked_head = &job;
      continue;  // backfill: consider later jobs
    }
    std::vector<Rank> ranks = try_allocate(job.spec.nnodes);
    if (ranks.empty()) {
      if (!policy_obj_->backfill()) {
        holds_total_->inc();
        return false;
      }
      skips_total_->inc();
      if (blocked_head == nullptr) blocked_head = &job;
      continue;  // backfill: consider later jobs
    }
    const double estimate = policy_obj_->admission_estimate_w(view, job);
    if (estimate > 0.0) {
      admitted_[id] = estimate;
      admitted_power_w_ += estimate;
    }
    starts_total_->inc();
    queue_wait_seconds_->observe(view.now_s - job.t_submit);
    queue_.erase(it);
    // start_job may re-enter enqueue()/release()/kick(); the guard in
    // kick() flattens that recursion and we return to restart the scan
    // with fresh iterators.
    instance_.jobs().start_job(id, std::move(ranks));
    return true;
  }
  return false;
}

void Scheduler::kick() {
  if (kicking_) {
    kick_requested_ = true;
    return;
  }
  if (kick_sim_ != nullptr) {
    // Deferred profile: coalesce every kick raised at this timestamp into
    // one zero-delay pass, so the placement decision sees all of them and
    // does not depend on which enqueue/release arrived first.
    if (!kick_scheduled_) {
      kick_scheduled_ = true;
      kick_sim_->schedule_after(0.0, [this] {
        kick_scheduled_ = false;
        kick_now();
      });
    }
    return;
  }
  kick_now();
}

void Scheduler::kick_now() {
  kicking_ = true;
  do {
    kick_requested_ = false;
    while (start_one()) {
    }
  } while (kick_requested_);
  kicking_ = false;
}

}  // namespace fluxpower::flux
