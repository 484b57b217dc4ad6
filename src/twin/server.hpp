// server.hpp — the twin serving plane: concurrent what-if queries.
//
// A TwinServer owns one immutable base Snapshot and a pool of worker
// threads. Each query ("what if the budget drops 20% at t?", "what if node
// 3 dies at t?") becomes a fork materialized on a worker: verified replay
// restore, overlay injection, fast-forward to completion, typed deltas
// against the lazily computed (and cached) unperturbed baseline. Workers
// share NOTHING mutable but the queue and the metrics registry (both
// mutex-guarded): every simulation object graph is private to its worker,
// which is the property the fork-isolation suite pins under TSan.
//
// Query latency lands in an obs::Histogram (the registry the observability
// plane uses everywhere else).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "twin/fork.hpp"

namespace fluxpower::twin {

struct WhatIfQuery {
  std::string label;
  std::vector<Perturbation> perturbations;
};

/// Typed outcome of one what-if: absolute endpoint metrics plus deltas
/// against the unperturbed baseline run of the same snapshot.
struct WhatIfResult {
  std::string label;

  // Absolute endpoint values of the perturbed future.
  double energy_j = 0.0;
  double makespan_s = 0.0;
  double peak_w = 0.0;       ///< peak 2 s-sampled cluster draw
  int completed_jobs = 0;

  // Deltas vs. baseline (perturbed − baseline).
  double d_energy_j = 0.0;
  double d_makespan_s = 0.0;
  double d_peak_w = 0.0;

  /// Worst exceedance of the effective cluster bound by the sampled draw at
  /// or after the first perturbation (0 when unconstrained or never
  /// exceeded) — "does this intervention break the power contract?".
  double overshoot_w = 0.0;

  double latency_s = 0.0;  ///< wall-clock materialize+run+diff time
};

class TwinServer {
 public:
  /// Spin up `workers` threads serving queries against `base`.
  TwinServer(std::shared_ptr<const Snapshot> base, int workers);
  ~TwinServer();

  TwinServer(const TwinServer&) = delete;
  TwinServer& operator=(const TwinServer&) = delete;

  /// Enqueue a query; the future resolves when a worker finishes it. A
  /// query whose fork fails verification carries the SnapshotMismatch out
  /// through the future. Throws std::invalid_argument, enqueuing nothing,
  /// when a perturbation's value, time or down time is not finite.
  std::future<WhatIfResult> submit(WhatIfQuery query);

  /// The unperturbed baseline endpoint (computed once, on first need).
  WhatIfResult baseline();

  const Snapshot& base() const noexcept { return *base_; }
  std::uint64_t queries_served() const;
  std::uint64_t forks_materialized() const;
  /// Prometheus text of the server's registry (latency histogram included).
  std::string metrics_text() const;
  /// Direct histogram access for percentile interpolation (bench).
  const obs::Histogram& latency_histogram() const noexcept {
    return *query_latency_;
  }

 private:
  struct PendingQuery {
    WhatIfQuery query;
    std::promise<WhatIfResult> promise;
  };

  void worker_loop();
  WhatIfResult run_query(const WhatIfQuery& query);
  static WhatIfResult endpoint_of(const experiments::ScenarioResult& result,
                                  double snapshot_t);

  std::shared_ptr<const Snapshot> base_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingQuery> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;

  std::once_flag baseline_once_;
  WhatIfResult baseline_;

  mutable std::mutex metrics_mutex_;
  obs::MetricsRegistry registry_;
  obs::Counter* queries_total_ = nullptr;
  obs::Counter* forks_total_ = nullptr;
  obs::Histogram* query_latency_ = nullptr;
};

}  // namespace fluxpower::twin
