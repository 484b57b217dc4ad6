// cluster_manager.hpp — the root rank's cluster- and job-level manager
// (§III-B; upstream's cluster_mgr_t and job_mgr_t).
//
// The power-manager module creates one on the root rank only. It knows every
// running job and keeps total cluster draw under the global bound P_G:
//   * proportional sharing (§III-B1): a new job gets peak power per node
//     when P_avail suffices, otherwise power is redistributed across *all*
//     jobs at P_n = P_G / total allocated nodes;
//   * the job-level split: a job's power limit is divided equally over its
//     nodes and pushed to each node agent as one acknowledged RPC per rank;
//   * strikes, quarantine and recovery probes for ranks whose pushes fail,
//     the limit-refresh loop, the emergency response and the allocation
//     history ring.
// It reaches the node agents only over RPC.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "flux/broker.hpp"
#include "flux/jobspec.hpp"
#include "manager/policy.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "util/ring_buffer.hpp"

namespace fluxpower::manager {

inline constexpr const char* kSetNodeLimitTopic = "power-manager.set-node-limit";
inline constexpr const char* kClusterStatusTopic = "power-manager.cluster-status";
inline constexpr const char* kNodeStatusTopic = "power-manager.node-status";
inline constexpr const char* kSetClusterBoundTopic =
    "power-manager.set-cluster-bound";
inline constexpr const char* kSetLowPowerTopic = "power-manager.set-low-power";
inline constexpr const char* kHistoryTopic = "power-manager.history";

/// One running job's share of the bound (the job-level split).
struct JobAllocation {
  std::vector<flux::Rank> ranks;
  double job_power_w = 0.0;   ///< job-level power limit P_i
  double node_power_w = 0.0;  ///< per-node limit
  /// Self-imposed per-node cap from the jobspec (0 = none). The job never
  /// receives more than this; its unused share flows to other jobs.
  double requested_node_power_w = 0.0;
};

/// Root-ledger instruments. Every rank's module registers them, so each
/// broker exposes the same series; only the root's move.
struct ClusterInstruments {
  obs::Counter* quarantine_events = nullptr;
  obs::Counter* push_strikes = nullptr;
  obs::Counter* limit_pushes = nullptr;
  obs::Gauge* quarantined_nodes = nullptr;
};

class ClusterManager {
 public:
  /// Subscribes to job events, arms the root's loops and registers the
  /// root services on `broker`; the destructor undoes all three.
  ClusterManager(flux::Broker& broker, const PowerManagerConfig& config,
                 ClusterInstruments instruments);
  ~ClusterManager();
  ClusterManager(const ClusterManager&) = delete;
  ClusterManager& operator=(const ClusterManager&) = delete;

  /// Global bound P_G in force; set-cluster-bound changes it at runtime.
  double bound_w() const noexcept { return config_.cluster_power_bound_w; }
  const std::map<flux::JobId, JobAllocation>& allocations() const noexcept {
    return allocations_;
  }
  /// Sum of job power limits P_k.
  double allocated_power_w() const;

  /// Ranks whose limit pushes kept failing. Their budget is reserved at
  /// node_peak_w until a push succeeds again.
  const std::set<flux::Rank>& quarantined() const noexcept {
    return quarantined_;
  }
  /// Lifetime count of quarantine entries (a rank entering twice counts
  /// twice) — the flap-rate denominator for reliability tables.
  std::uint64_t quarantine_events() const noexcept {
    return instruments_.quarantine_events->value();
  }
  /// Consecutive failed limit pushes per rank; reset by any applied ack.
  const std::map<flux::Rank, int>& push_strikes() const noexcept {
    return push_strikes_;
  }
  bool emergency_active() const noexcept { return emergency_active_; }
  int emergency_strike_count() const noexcept { return emergency_strikes_; }

 private:
  void on_job_event(const flux::Message& event);
  void reallocate();
  /// Forget every pushed share, then reallocate: pushes every limit afresh.
  void repush_all();
  void update_idle_states();
  int allocated_nodes() const;
  /// The share of the job holding `rank`; null when no job holds it.
  const JobAllocation* allocation_of(flux::Rank rank) const;
  /// Acknowledged per-rank limit push; the ack (or its absence) feeds
  /// record_push_result.
  void push_node_limit(flux::Rank rank, double limit_w);
  /// Strike/clear bookkeeping for a limit-push outcome; drives quarantine.
  /// `retrying` means the rank answered but its local backoff ladder is
  /// still converging — responsive, so neither a strike nor a clear.
  void record_push_result(flux::Rank rank, bool applied, bool retrying);
  /// Arm the next recovery probe for a quarantined rank.
  void schedule_quarantine_probe(flux::Rank rank);
  /// Re-push a striking (but not yet quarantined) rank's share after
  /// push_timeout_s, so an unresponsive rank accrues its strikes without
  /// waiting for the next allocation event. One in flight per rank.
  void schedule_push_retry(flux::Rank rank);
  /// Coalesce forced redistributions: any burst of quarantine flips within
  /// the damping window causes one reallocate, not one per push ack.
  void request_forced_reallocate();

  // Emergency power response.
  void emergency_check();
  /// Strike, engage or release on one measured cluster draw.
  void judge_draw(double total_w);
  void engage_emergency();
  void release_emergency();

  flux::Broker& broker_;
  PowerManagerConfig config_;
  ClusterInstruments instruments_;
  /// RPC handlers and timers capture `this` and a weak reference to this
  /// token; the broker can keep a handler past the destructor, which then
  /// finds the token expired and does nothing.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);

  std::map<flux::JobId, JobAllocation> allocations_;
  std::vector<std::uint64_t> subscriptions_;
  std::map<flux::Rank, int> push_strikes_;
  std::set<flux::Rank> quarantined_;
  /// Ranks with a queued strike re-push (bounds retries to one in flight).
  std::set<flux::Rank> push_retry_pending_;
  sim::EventId forced_reallocate_event_ = sim::kInvalidEvent;
  std::unique_ptr<sim::PeriodicTask> refresh_task_;
  /// Allocation history ring: {t, bound, allocated_w, nodes, jobs} sampled
  /// every history_period_s, served via kHistoryTopic for dashboards.
  struct HistoryPoint {
    double t_s = 0.0;
    double bound_w = 0.0;
    double allocated_w = 0.0;
    int allocated_nodes = 0;
    int jobs = 0;
  };
  std::unique_ptr<util::RingBuffer<HistoryPoint>> history_;
  std::unique_ptr<sim::PeriodicTask> history_task_;
  std::unique_ptr<sim::PeriodicTask> emergency_task_;
  int emergency_strikes_ = 0;
  bool emergency_active_ = false;
};

}  // namespace fluxpower::manager
