// power_manager.hpp — the flux-power-manager broker module (§III-B).
//
// Hierarchical and state-aware, in two halves that talk only over RPC:
//   * the node agent (this module, every rank): holds the node limit the
//     root pushed and enforces it through Variorum according to the
//     configured NodePolicy, with a backoff ladder for transient cap-write
//     failures. The node-policy plugin owns the policy's own loops (budget
//     refresh, FPP controllers, progress control).
//   * the cluster- and job-level manager (ClusterManager, root rank only):
//     proportional sharing under the global bound P_G, the per-rank limit
//     pushes, quarantine, emergency response and history.
#pragma once

#include <memory>
#include <span>
#include <utility>

#include "flux/broker.hpp"
#include "flux/module.hpp"
#include "hwsim/types.hpp"
#include "manager/cluster_manager.hpp"
#include "manager/node_policies.hpp"
#include "manager/policy.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::manager {

class PowerManagerModule final : public flux::Module {
 public:
  /// Throws std::invalid_argument when config.quarantine_threshold < 1.
  explicit PowerManagerModule(PowerManagerConfig config = {});
  PowerManagerModule(const PowerManagerModule&) = delete;
  PowerManagerModule& operator=(const PowerManagerModule&) = delete;

  const char* name() const override { return "power-manager"; }
  void load(flux::Broker& broker) override;
  void unload() override;

  const PowerManagerConfig& config() const noexcept { return config_; }

  /// The node-policy plugin enforcing this node's limit. Never null:
  /// NodePolicy::None maps to a no-op plugin.
  const NodePolicyPlugin& node_plugin() const noexcept { return *plugin_; }

  /// The root's cluster- and job-level manager; null on every other rank
  /// and outside load()/unload().
  const ClusterManager* cluster() const noexcept { return cluster_.get(); }

  // -- Node state (tests, benches, twin) -------------------------------------
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
  /// Backoff-ladder position (0 = at rest).
  double cap_retry_delay_s() const noexcept { return cap_retry_delay_s_; }

  // -- Node API: what the node-policy plugins act through --------------------
  flux::Broker& broker() const noexcept { return *broker_; }
  /// Which device class FPP / budget enforcement manages on this node:
  /// GPUs when present, CPU sockets otherwise (device-agnostic FPP).
  bool manages_gpus() const;
  int managed_domain_count() const;
  /// The FPP cap range of the managed device class.
  FppConfig domain_fpp_config() const;
  /// The managed devices' watts in `s`.
  std::span<const double> managed_w(const hwsim::PowerSample& s) const;
  /// Per-device budget: the node limit minus the measured unmanaged draw,
  /// split over the managed devices (Algorithm 1 line 36).
  double derive_gpu_budget_w();
  /// Cap every managed device at `cap_w`; false when any write failed
  /// transiently (CapStatus::IoError).
  bool apply_uniform_cap(double cap_w);
  /// Enforce the node limit through the plugin. On a transient failure,
  /// schedule a re-enforcement after the current backoff delay (doubling up
  /// to cap_retry_max_s); on success, reset the ladder.
  bool enforce_with_retry();

 private:
  void handle_set_node_limit(const flux::Message& req);
  /// Accept a pushed limit and start enforcement; returns {applied,
  /// retrying} exactly as the set-node-limit ack reports them.
  std::pair<bool, bool> apply_node_limit(double limit_w);

  PowerManagerConfig config_;
  flux::Broker* broker_ = nullptr;
  std::unique_ptr<NodePolicyPlugin> plugin_;
  std::unique_ptr<ClusterManager> cluster_;

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
  obs::Histogram* cap_backoff_seconds_ = nullptr;
  obs::Histogram* cap_write_latency_ = nullptr;
};

}  // namespace fluxpower::manager
