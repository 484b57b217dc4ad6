// power_manager.hpp — the flux-power-manager broker module (§III-B).
//
// Hierarchical and state-aware:
//   * cluster-level-manager (root rank): knows every running job; ensures
//     total cluster draw never exceeds the global bound P_G. Implements the
//     proportional-sharing policy of §III-B1: a new job gets peak power per
//     node when P_avail suffices, otherwise power is redistributed across
//     *all* jobs at P_n = P_G / total allocated nodes.
//   * job-level-manager (root rank): splits a job's power limit equally
//     over its nodes and pushes per-node limits over the TBON.
//   * node-level-manager (every rank): enforces the node limit through
//     Variorum according to the configured NodePolicy, tracks local power
//     in its own control loop, and runs the per-GPU FPP controllers.
// All three communicate exclusively via RPC messages.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "flux/broker.hpp"
#include "flux/jobspec.hpp"
#include "flux/module.hpp"
#include "manager/fpp.hpp"
#include "manager/policy.hpp"
#include "policy/policy.hpp"
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

class PowerManagerModule final : public flux::Module {
 public:
  /// Throws std::invalid_argument when config.quarantine_threshold < 1.
  explicit PowerManagerModule(PowerManagerConfig config = {});
  ~PowerManagerModule() override;

  const char* name() const override { return "power-manager"; }
  void load(flux::Broker& broker) override;
  void unload() override;

  const PowerManagerConfig& config() const noexcept { return config_; }

  /// The node-policy plugin enforcing this node's limit (policy plane).
  /// Never null: NodePolicy::None maps to a no-op plugin.
  const policy::NodePolicyPlugin& node_plugin() const noexcept {
    return *plugin_;
  }

  // -- Node-level introspection (tests / timeline benches) -------------------
  double node_limit_w() const noexcept { return node_limit_w_; }
  double last_gpu_budget_w() const noexcept { return last_gpu_budget_w_; }
  /// Enforcement attempts that hit a transient IoError and were rescheduled
  /// with backoff. Backed by the broker registry
  /// (fluxpower_manager_cap_retries_total) once loaded.
  std::uint64_t cap_retries() const noexcept {
    return cap_retries_total_ != nullptr ? cap_retries_total_->value() : 0;
  }
  /// True while a backoff retry is queued.
  bool cap_retry_pending() const noexcept {
    return cap_retry_event_ != sim::kInvalidEvent;
  }
  const std::vector<std::unique_ptr<FppController>>& fpp_controllers() const {
    return fpp_;
  }

  // -- Cluster-level introspection (root only) --------------------------------
  struct JobAllocation {
    std::vector<flux::Rank> ranks;
    double job_power_w = 0.0;   ///< job-level power limit P_i
    double node_power_w = 0.0;  ///< per-node limit
    /// Self-imposed per-node cap from the jobspec (0 = none). The job never
    /// receives more than this; its unused share flows to other jobs.
    double requested_node_power_w = 0.0;
  };
  const std::map<flux::JobId, JobAllocation>& allocations() const {
    return allocations_;
  }
  /// Sum of job power limits P_k (root only).
  double allocated_power_w() const;

  /// Quarantined ranks (root only): nodes whose limit pushes kept failing.
  /// Their budget is reserved at node_peak_w until a push succeeds again.
  const std::set<flux::Rank>& quarantined() const noexcept {
    return quarantined_;
  }
  /// Lifetime count of quarantine entries (a rank entering twice counts
  /// twice) — the flap-rate denominator for reliability tables. Backed by
  /// the broker registry (fluxpower_manager_quarantine_events_total).
  std::uint64_t quarantine_events() const noexcept {
    return quarantine_events_total_ != nullptr
               ? quarantine_events_total_->value()
               : 0;
  }

  // -- Twin-codec introspection ----------------------------------------------
  /// Consecutive failed limit pushes per rank (root only).
  const std::map<flux::Rank, int>& push_strikes() const noexcept {
    return push_strikes_;
  }
  /// Node-level backoff-ladder position (0 = at rest).
  double cap_retry_delay_s() const noexcept { return cap_retry_delay_s_; }
  int emergency_strike_count() const noexcept { return emergency_strikes_; }
  /// FPP control-loop phase (twin codec: the rotation position decides
  /// which controller probes next under stagger_probes).
  std::size_t fpp_control_round() const noexcept { return fpp_control_round_; }
  double time_since_fpp_control_s() const noexcept {
    return time_since_fpp_control_s_;
  }

 private:
  // Cluster-level-manager (root).
  void on_job_event(const flux::Message& event);
  void reallocate();
  void update_idle_states();
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

  // Node-level-manager (all ranks).
  void handle_set_node_limit(const flux::Message& req);
  /// Accept a pushed limit and start enforcement; returns {applied,
  /// retrying} exactly as the set-node-limit ack reports them.
  std::pair<bool, bool> apply_node_limit(double limit_w);
  /// Apply the active limit through the node-policy plugin; false when any
  /// cap write failed transiently (CapStatus::IoError) — permanent
  /// refusals are not failures.
  bool enforce_node_limit();
  /// enforce_node_limit plus the backoff ladder: on transient failure,
  /// schedule a re-enforcement after the current backoff delay (doubling
  /// up to cap_retry_max_s); on success, reset the ladder.
  bool enforce_with_retry();
  void control_tick();
  double derive_gpu_budget_w();
  bool apply_uniform_cap(double cap_w);

  /// Which device class FPP / budget enforcement manages on this node:
  /// GPUs when present, CPU sockets otherwise (device-agnostic FPP).
  bool manages_gpus() const;
  FppConfig domain_fpp_config() const;
  int managed_domain_count() const;

  // Built-in node-policy plugins act through this module's cap primitives
  // and (FPP) its controller bank; friendship keeps that state physically
  // here so the twin's MGR section stays byte-compatible.
  friend class NonePolicyPlugin;
  friend class IbmNodeCapPlugin;
  friend class GpuBudgetPlugin;
  friend class FppNodePlugin;
  friend class ProgressNodePlugin;
  friend class PiBoundNodePlugin;

  PowerManagerConfig config_;
  flux::Broker* broker_ = nullptr;
  std::unique_ptr<policy::NodePolicyPlugin> plugin_;
  /// Held from load() to unload(). RPC handlers and timers that capture
  /// `this` can outlive the module (the broker keeps a response handler
  /// until its reply or timeout), so each also captures a weak reference
  /// to this token and returns early once it has expired.
  std::shared_ptr<const bool> alive_;

  // Node-level state.
  double node_limit_w_ = 0.0;  ///< 0 = unconstrained
  double last_gpu_budget_w_ = 0.0;
  double cap_retry_delay_s_ = 0.0;  ///< 0 = ladder at rest
  sim::EventId cap_retry_event_ = sim::kInvalidEvent;
  /// Sim time when the current enforcement attempt (possibly a whole
  /// backoff ladder) started; < 0 when no attempt is in flight. Feeds the
  /// cap-write latency histogram on success.
  double cap_attempt_start_s_ = -1.0;
  // Instruments in the owning broker's registry (bound and reset in
  // load(); the registry outlives the module).
  obs::Counter* cap_retries_total_ = nullptr;
  obs::Counter* quarantine_events_total_ = nullptr;
  obs::Counter* push_strikes_total_ = nullptr;
  obs::Counter* limit_pushes_total_ = nullptr;
  obs::Histogram* cap_backoff_seconds_ = nullptr;
  obs::Histogram* cap_write_latency_ = nullptr;
  obs::Gauge* quarantined_nodes_ = nullptr;
  std::vector<std::unique_ptr<FppController>> fpp_;
  std::unique_ptr<sim::PeriodicTask> control_task_;
  std::unique_ptr<sim::PeriodicTask> sample_task_;
  std::unique_ptr<sim::PeriodicTask> fft_task_;
  double time_since_fpp_control_s_ = 0.0;
  std::size_t fpp_control_round_ = 0;

  // Progress-observing policies (ProgressBased, PiBound): the module owns
  // the subscription and the control task; the rate/cap state lives in the
  // plugin (locality filtering stays here — it needs the broker rank).
  void on_progress_event(const flux::Message& event);
  std::uint64_t progress_subscription_ = 0;
  std::unique_ptr<sim::PeriodicTask> progress_task_;

 public:
  // Progress introspection for tests/benches (delegates to the plugin; the
  // plugin defaults equal the former members' initial values, keeping the
  // twin MGR section byte-compatible for non-progress policies).
  double progress_rate() const noexcept { return plugin_->progress_rate(); }
  double progress_cap_w() const noexcept { return plugin_->progress_cap_w(); }
  bool progress_holding() const noexcept {
    return plugin_->progress_holding();
  }

  // Cluster-level state (root only).
  std::map<flux::JobId, JobAllocation> allocations_;
  std::vector<std::uint64_t> subscriptions_;
  /// Consecutive failed limit pushes per rank; reset by any applied ack.
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

  // Emergency power response (root only).
  void emergency_check();
  void engage_emergency();
  void release_emergency();
  std::unique_ptr<sim::PeriodicTask> emergency_task_;
  int emergency_strikes_ = 0;
  bool emergency_active_ = false;

 public:
  bool emergency_active() const noexcept { return emergency_active_; }
};

}  // namespace fluxpower::manager
