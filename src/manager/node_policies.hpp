// node_policies.hpp — the node half of the policy plane: how a node enforces
// the limit the root pushed to it.
//
// Each NodePolicy enumerator maps to a NodePolicyPlugin that acts only
// through the power-manager module's public node API (uniform caps, the
// derived device budget, the backoff-laddered enforcement), so every watt
// still flows through the existing push/retry/quarantine machinery. A
// plugin owns the periodic work its policy needs — the budget-refresh tick,
// FPP's sample and FFT/control loops, the progress subscription and control
// tick — arming it at load and dropping it at unload.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "manager/fpp.hpp"
#include "manager/policy.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::manager {

class PowerManagerModule;

class NodePolicyPlugin {
 public:
  explicit NodePolicyPlugin(PowerManagerModule& mod) : mod_(mod) {}
  virtual ~NodePolicyPlugin() = default;
  NodePolicyPlugin(const NodePolicyPlugin&) = delete;
  NodePolicyPlugin& operator=(const NodePolicyPlugin&) = delete;

  /// Start this policy's tasks and subscriptions (module load, on a rank
  /// with hardware).
  virtual void arm() {}
  /// Stop everything arm() started (module unload).
  virtual void disarm() { tasks_.clear(); }

  /// The node limit was freshly installed or raised (new headroom epoch).
  virtual void on_limit_refresh() {}
  /// Apply the active node limit to the local hardware; false only on a
  /// transient cap-write failure (arms the module's backoff ladder).
  virtual bool enforce() = 0;

  /// Serialize mutable plugin state for the twin's POL section; must be
  /// deterministic.
  virtual void encode_state(std::vector<std::uint8_t>& out) const {
    (void)out;
  }

 protected:
  /// Run `fn` every `period_s` on this node's engine until disarm().
  void every(double period_s, std::function<bool()> fn);
  /// The budget-refresh tick: non-GPU draw moves with application phases,
  /// so the derived budget is re-enforced every control_period_s.
  void arm_control_tick();

  PowerManagerModule& mod_;

 private:
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks_;
};

/// Fpp — the budget gives each controller its ceiling; one FppController
/// per managed device (GPUs, else CPU sockets) adjusts its cap below it from
/// the typed power samples of its own 2 s sample loop, re-estimating the
/// period every fft_update_s and deciding every powercap_time_s.
class FppNodePlugin final : public NodePolicyPlugin {
 public:
  using NodePolicyPlugin::NodePolicyPlugin;
  void arm() override;
  void on_limit_refresh() override;
  bool enforce() override;
  /// Rotation position and time since the last control round.
  void encode_state(std::vector<std::uint8_t>& out) const override;

  const std::vector<std::unique_ptr<FppController>>& controllers() const {
    return controllers_;
  }

 private:
  std::vector<std::unique_ptr<FppController>> controllers_;
  double time_since_control_s_ = 0.0;
  /// Control rounds so far; under stagger_probes it picks which controller
  /// decides next.
  std::uint64_t control_round_ = 0;
};

/// Shared base of the progress-observing policies (ProgressBased, PiBound):
/// the job.progress subscription filtered to this node's job, the work-rate
/// tracking, and a control tick that steps the policy's cap and applies it.
class ProgressPlugin : public NodePolicyPlugin {
 public:
  void arm() override;
  void disarm() override;
  /// New headroom: re-baseline and start again from the fresh budget.
  void on_limit_refresh() override { reset(); }
  bool enforce() override;

  /// Latest measured work/s; < 0 until two reports of one job arrived.
  double rate() const noexcept { return rate_; }

 protected:
  ProgressPlugin(PowerManagerModule& mod, double tick_period_s)
      : NodePolicyPlugin(mod), tick_period_s_(tick_period_s) {}
  /// Forget the current job's state; overrides call this first.
  virtual void reset();
  /// One control step: move cap_w_ for this budget and device floor.
  virtual void step(double budget_w, double floor_w) = 0;

  double last_work_ = -1.0;
  double last_t_ = 0.0;
  double rate_ = -1.0;
  double baseline_ = -1.0;  ///< rate measured at the full budget
  double cap_w_ = 0.0;

 private:
  void on_progress(double work_done, double now_s);
  double capped(double budget_w) const {
    return cap_w_ > 0.0 ? std::min(cap_w_, budget_w) : budget_w;
  }

  double tick_period_s_;
  std::uint64_t subscription_ = 0;
};

/// ProgressBased — probe-and-hold capping guarded by the measured progress
/// rate.
class ProgressNodePlugin final : public ProgressPlugin {
 public:
  explicit ProgressNodePlugin(PowerManagerModule& mod);
  bool holding() const noexcept { return state_ == State::Hold; }
  void encode_state(std::vector<std::uint8_t>& out) const override;

 private:
  enum class State : std::uint32_t { Baseline, Probing, Hold };
  void reset() override;
  void step(double budget_w, double floor_w) override;

  State state_ = State::Baseline;
  double last_good_w_ = 0.0;
};

/// Construct the plugin for `policy`, bound to `mod`. Never null: None maps
/// to a no-op plugin.
std::unique_ptr<NodePolicyPlugin> make_node_policy_plugin(
    PowerManagerModule& mod, NodePolicy policy);

}  // namespace fluxpower::manager
