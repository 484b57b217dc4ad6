#include "twin/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fluxpower::twin {

namespace {

constexpr double kLatencyBounds[] = {0.001, 0.0025, 0.005, 0.01, 0.025,
                                     0.05,  0.1,    0.25,  0.5,  1.0,
                                     2.5,   5.0,    10.0,  30.0};

}  // namespace

TwinServer::TwinServer(std::shared_ptr<const Snapshot> base, int workers)
    : base_(std::move(base)) {
  queries_total_ = &registry_.counter("fluxpower_twin_queries_total",
                                      "What-if queries completed");
  forks_total_ = &registry_.counter("fluxpower_twin_forks_total",
                                    "Forks materialized (incl. baseline)");
  query_latency_ = &registry_.histogram(
      "fluxpower_twin_query_latency_seconds",
      "Wall-clock what-if query latency", kLatencyBounds);
  const int n = std::max(1, workers);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

TwinServer::~TwinServer() {
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  // Queries still queued at teardown are abandoned: break their promises so
  // waiters see an exception rather than a hang.
  for (PendingQuery& pending : queue_) {
    pending.promise.set_exception(std::make_exception_ptr(
        std::runtime_error("TwinServer destroyed before query ran")));
  }
}

std::future<WhatIfResult> TwinServer::submit(WhatIfQuery query) {
  // A NaN bound acts as no bound and a NaN time never fires, so either
  // would answer a question nobody asked. A time in the past is clamped to
  // the snapshot (see Perturbation).
  for (const Perturbation& p : query.perturbations) {
    if (!std::isfinite(p.value) || !std::isfinite(p.at_s) ||
        !std::isfinite(p.down_s)) {
      throw std::invalid_argument(
          "TwinServer::submit: " + query.label +
          ": perturbation value, time and down time must be finite");
    }
  }
  PendingQuery pending;
  pending.query = std::move(query);
  std::future<WhatIfResult> future = pending.promise.get_future();
  {
    std::lock_guard lock(queue_mutex_);
    if (stopping_) {
      throw std::logic_error("TwinServer::submit after shutdown");
    }
    queue_.push_back(std::move(pending));
  }
  queue_cv_.notify_one();
  return future;
}

void TwinServer::worker_loop() {
  for (;;) {
    PendingQuery pending;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      pending.promise.set_value(run_query(pending.query));
    } catch (...) {
      pending.promise.set_exception(std::current_exception());
    }
  }
}

WhatIfResult TwinServer::endpoint_of(const experiments::ScenarioResult& result,
                                     double snapshot_t) {
  WhatIfResult out;
  out.energy_j = result.total_energy_j;
  out.makespan_s = result.makespan_s;
  out.completed_jobs = 0;
  for (const experiments::JobResult& j : result.jobs) {
    if (j.t_end >= 0.0) ++out.completed_jobs;
  }
  // Peak over the post-snapshot future only: the shared past is identical
  // across every fork, so including it would mask perturbation effects
  // whenever the historical peak dominates.
  out.peak_w = 0.0;
  for (const auto& [t, w] : result.cluster_timeline) {
    if (t >= snapshot_t) out.peak_w = std::max(out.peak_w, w);
  }
  return out;
}

WhatIfResult TwinServer::baseline() {
  std::call_once(baseline_once_, [this] {
    TwinFork fork(base_);
    std::unique_ptr<TwinSession> session = fork.materialize();
    {
      std::lock_guard lock(metrics_mutex_);
      forks_total_->inc();
    }
    const experiments::ScenarioResult result = session->finish();
    baseline_ = endpoint_of(result, base_->time());
    baseline_.label = "baseline";
  });
  return baseline_;
}

WhatIfResult TwinServer::run_query(const WhatIfQuery& query) {
  const auto t0 = std::chrono::steady_clock::now();
  const WhatIfResult base = baseline();

  TwinFork fork(base_);
  for (const Perturbation& p : query.perturbations) fork.add(p);
  std::unique_ptr<TwinSession> session = fork.materialize();
  const experiments::ScenarioResult result = session->finish();

  WhatIfResult out = endpoint_of(result, base_->time());
  out.label = query.label;
  out.d_energy_j = out.energy_j - base.energy_j;
  out.d_makespan_s = out.makespan_s - base.makespan_s;
  out.d_peak_w = out.peak_w - base.peak_w;

  // Effective bound after the overlay's budget interventions (last applied
  // wins), and the first intervention instant — the overshoot window.
  double bound_w = base_->spec().scenario.manager.cluster_power_bound_w;
  double first_at = std::numeric_limits<double>::infinity();
  std::vector<const Perturbation*> budget_changes;
  for (const Perturbation& p : query.perturbations) {
    first_at = std::min(first_at, p.at_s);
    if (p.kind != Perturbation::Kind::NodeKill) budget_changes.push_back(&p);
  }
  if (query.perturbations.empty()) first_at = base_->time();
  std::sort(budget_changes.begin(), budget_changes.end(),
            [](const Perturbation* a, const Perturbation* b) {
              return a->at_s < b->at_s;
            });
  const double spec_bound =
      base_->spec().scenario.manager.cluster_power_bound_w;
  for (const Perturbation* p : budget_changes) {
    bound_w = p->kind == Perturbation::Kind::BudgetSet ? p->value
                                                       : spec_bound * p->value;
  }
  out.overshoot_w = 0.0;
  if (bound_w > 0.0) {
    for (const auto& [t, w] : result.cluster_timeline) {
      if (t >= first_at) out.overshoot_w = std::max(out.overshoot_w, w - bound_w);
    }
    out.overshoot_w = std::max(out.overshoot_w, 0.0);
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  out.latency_s = elapsed.count();
  {
    std::lock_guard lock(metrics_mutex_);
    queries_total_->inc();
    forks_total_->inc();
    query_latency_->observe(out.latency_s);
  }
  return out;
}

std::uint64_t TwinServer::queries_served() const {
  std::lock_guard lock(metrics_mutex_);
  return queries_total_->value();
}

std::uint64_t TwinServer::forks_materialized() const {
  std::lock_guard lock(metrics_mutex_);
  return forks_total_->value();
}

std::string TwinServer::metrics_text() const {
  std::lock_guard lock(metrics_mutex_);
  return registry_.expose_text();
}

}  // namespace fluxpower::twin
