#include "manager/node_policies.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "manager/power_manager.hpp"
#include "policy/state_codec.hpp"
#include "util/log.hpp"
#include "variorum/variorum.hpp"

namespace fluxpower::manager {

namespace {
// Only a transient driver/firmware failure warrants a retry; permanent
// refusals (Unsupported, PermissionDenied) are the platform's answer.
bool transient(const hwsim::CapResult& r) {
  return r.status == hwsim::CapStatus::IoError;
}
}  // namespace

/// NodePolicy::None — the node applies nothing; the static cap (if any)
/// was installed at load and stands.
class NonePolicyPlugin final : public policy::NodePolicyPlugin {
 public:
  explicit NonePolicyPlugin(PowerManagerModule& mod) : mod_(mod) {}
  const char* name() const noexcept override { return "none"; }
  bool enforce() override { return true; }

 private:
  [[maybe_unused]] PowerManagerModule& mod_;
};

/// IbmDefaultNodeCap — hand the limit to the platform's node dial (OPAL on
/// AC922); firmware derives conservative device caps.
class IbmNodeCapPlugin final : public policy::NodePolicyPlugin {
 public:
  explicit IbmNodeCapPlugin(PowerManagerModule& mod) : mod_(mod) {}
  const char* name() const noexcept override { return "ibm-default"; }
  bool enforce() override {
    hwsim::Node* node = mod_.broker_->node();
    const double cap = mod_.node_limit_w_ > 0.0 ? mod_.node_limit_w_
                                                : mod_.config_.node_peak_w;
    const auto result = variorum::cap_best_effort_node_power_limit(*node, cap);
    if (!result.ok()) {
      util::log_warning(std::string("power-manager: node cap failed: ") +
                        hwsim::cap_status_name(result.status));
    }
    return !transient(result);
  }

 private:
  PowerManagerModule& mod_;
};

/// DirectGpuBudget — measure the node's non-managed draw and cap each
/// device uniformly at the derived budget.
class GpuBudgetPlugin final : public policy::NodePolicyPlugin {
 public:
  explicit GpuBudgetPlugin(PowerManagerModule& mod) : mod_(mod) {}
  const char* name() const noexcept override { return "gpu-budget"; }
  bool wants_control_tick() const noexcept override { return true; }
  bool enforce() override {
    const double budget = mod_.derive_gpu_budget_w();
    if (budget <= 0.0) return true;
    return mod_.apply_uniform_cap(budget);
  }

 private:
  PowerManagerModule& mod_;
};

/// Fpp — the budget gives each controller its ceiling; the module-owned
/// FFT engine (typed PowerSample windows) does the dynamic adjustment.
class FppNodePlugin final : public policy::NodePolicyPlugin {
 public:
  explicit FppNodePlugin(PowerManagerModule& mod) : mod_(mod) {}
  const char* name() const noexcept override { return "fpp"; }
  bool wants_control_tick() const noexcept override { return true; }
  bool wants_fpp_engine() const noexcept override { return true; }
  void on_limit_refresh() override {
    // A raised limit starts a new FPP epoch: rebuild the controllers so
    // Algorithm 1's MAIN re-derives P_cap_cur and the convergence latch
    // resets; a job inheriting freed power rides the higher ceiling.
    const FppConfig dcfg = mod_.domain_fpp_config();
    for (auto& c : mod_.fpp_) {
      c = std::make_unique<FppController>(dcfg, dcfg.max_gpu_cap_w);
    }
    mod_.time_since_fpp_control_s_ = 0.0;
  }
  bool enforce() override {
    // Clamp each controller's cap to the fresh budget; the 90 s control
    // loop does the dynamic adjustment.
    hwsim::Node* node = mod_.broker_->node();
    const double budget = mod_.derive_gpu_budget_w();
    bool ok = true;
    for (std::size_t i = 0; i < mod_.fpp_.size(); ++i) {
      const double cap = std::min(mod_.fpp_[i]->current_cap_w(), budget);
      if (mod_.manages_gpus()) {
        ok = ok && !transient(variorum::cap_gpu_power_limit(
                       *node, static_cast<int>(i), cap));
      } else {
        ok = ok &&
             !transient(node->set_socket_power_cap(static_cast<int>(i), cap));
      }
    }
    return ok;
  }

 private:
  PowerManagerModule& mod_;
};

/// ProgressBased — probe-and-hold capping guarded by the measured progress
/// rate (state machine identical to the pre-plane module logic).
class ProgressNodePlugin final : public policy::NodePolicyPlugin {
 public:
  explicit ProgressNodePlugin(PowerManagerModule& mod) : mod_(mod) {}
  const char* name() const noexcept override { return "progress"; }
  bool wants_progress() const noexcept override { return true; }
  bool wants_control_tick() const noexcept override { return true; }
  double progress_tick_period_s() const noexcept override {
    return mod_.config_.progress.control_period_s;
  }

  void on_progress(double work_done, double now_s) override {
    if (work_done < 0.0) return;
    if (last_work_ >= 0.0 && work_done >= last_work_ && now_s > last_t_) {
      rate_ = (work_done - last_work_) / (now_s - last_t_);
    } else if (work_done < last_work_) {
      // A new job started on this node: forget the previous one's state.
      reset();
    }
    last_work_ = work_done;
    last_t_ = now_s;
  }

  void on_limit_refresh() override {
    // New headroom: re-baseline and probe again from the fresh budget.
    reset();
  }

  void on_progress_tick() override {
    hwsim::Node* node = mod_.broker_->node();
    if (node == nullptr) return;
    const FppConfig dcfg = mod_.domain_fpp_config();  // reuses the cap ranges
    const double budget = mod_.derive_gpu_budget_w();
    if (rate_ < 0.0) {
      // No progress signal (idle node, or a job without reporting): behave
      // like plain budget enforcement.
      state_ = State::Baseline;
      cap_w_ = 0.0;
    } else {
      switch (state_) {
        case State::Baseline:
          // One full control window at the budget establishes the baseline.
          baseline_ = rate_;
          last_good_w_ = budget;
          cap_w_ = std::max(dcfg.min_gpu_cap_w,
                            budget - mod_.config_.progress.step_w);
          state_ = State::Probing;
          break;
        case State::Probing:
          if (rate_ >=
              (1.0 - mod_.config_.progress.tolerance) * baseline_) {
            // Progress unharmed: keep the saving and probe further down.
            last_good_w_ = cap_w_;
            const double next = std::max(
                dcfg.min_gpu_cap_w, cap_w_ - mod_.config_.progress.step_w);
            if (next == cap_w_) {
              state_ = State::Hold;  // at the floor
            }
            cap_w_ = next;
          } else {
            // Progress degraded: restore the last good cap and hold.
            cap_w_ = last_good_w_;
            state_ = State::Hold;
          }
          break;
        case State::Hold:
          break;
      }
    }

    const double cap = cap_w_ > 0.0 ? std::min(cap_w_, budget) : budget;
    mod_.apply_uniform_cap(cap);
  }

  bool enforce() override {
    // Budget refresh must respect the probing loop's active cap.
    const double budget = mod_.derive_gpu_budget_w();
    if (budget <= 0.0) return true;
    const double cap = cap_w_ > 0.0 ? std::min(cap_w_, budget) : budget;
    return mod_.apply_uniform_cap(cap);
  }

  double progress_rate() const noexcept override { return rate_; }
  double progress_cap_w() const noexcept override { return cap_w_; }
  bool progress_holding() const noexcept override {
    return state_ == State::Hold;
  }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    policy::state_put_u32(out, static_cast<std::uint32_t>(state_));
    policy::state_put_f64(out, last_work_);
    policy::state_put_f64(out, last_t_);
    policy::state_put_f64(out, rate_);
    policy::state_put_f64(out, baseline_);
    policy::state_put_f64(out, cap_w_);
    policy::state_put_f64(out, last_good_w_);
  }

 private:
  enum class State : std::uint32_t { Baseline, Probing, Hold };
  void reset() {
    state_ = State::Baseline;
    last_work_ = -1.0;
    rate_ = -1.0;
    baseline_ = -1.0;
    cap_w_ = 0.0;
    last_good_w_ = 0.0;
  }

  PowerManagerModule& mod_;
  State state_ = State::Baseline;
  double last_work_ = -1.0;
  double last_t_ = 0.0;
  double rate_ = -1.0;      ///< latest measured work/s
  double baseline_ = -1.0;  ///< rate at the uncapped budget
  double cap_w_ = 0.0;      ///< active probe cap (0 = follow budget)
  double last_good_w_ = 0.0;
};

/// PiBound — PI controller converging the uniform cap to the deepest value
/// whose measured progress degradation stays at the configured bound.
class PiBoundNodePlugin final : public policy::NodePolicyPlugin {
 public:
  explicit PiBoundNodePlugin(PowerManagerModule& mod) : mod_(mod) {}
  const char* name() const noexcept override { return "pi-bound"; }
  bool wants_progress() const noexcept override { return true; }
  bool wants_control_tick() const noexcept override { return true; }
  double progress_tick_period_s() const noexcept override {
    return mod_.config_.pi.control_period_s;
  }

  void on_progress(double work_done, double now_s) override {
    if (work_done < 0.0) return;
    if (last_work_ >= 0.0 && work_done >= last_work_ && now_s > last_t_) {
      rate_ = (work_done - last_work_) / (now_s - last_t_);
    } else if (work_done < last_work_) {
      reset();  // a new job started on this node
    }
    last_work_ = work_done;
    last_t_ = now_s;
  }

  void on_limit_refresh() override {
    // New headroom invalidates the baseline (it was measured under the old
    // budget): re-measure and restart the controller from rest.
    reset();
  }

  void on_progress_tick() override {
    hwsim::Node* node = mod_.broker_->node();
    if (node == nullptr) return;
    const double budget = mod_.derive_gpu_budget_w();
    const double floor_w = mod_.domain_fpp_config().min_gpu_cap_w;
    const PiPolicyConfig& pc = mod_.config_.pi;
    if (rate_ < 0.0) {
      // No progress signal: plain budget enforcement, controller at rest.
      baseline_ = -1.0;
      integral_ = 0.0;
      cap_w_ = 0.0;
    } else if (baseline_ < 0.0) {
      // First full window ran at the budget: that rate is the 100% mark.
      baseline_ = rate_;
      cap_w_ = 0.0;
    } else {
      const double degradation = std::max(0.0, 1.0 - rate_ / baseline_);
      const double error = pc.degradation_bound - degradation;
      const double span = std::max(0.0, budget - floor_w);
      integral_ += error;
      // Anti-windup: keep the integral term within the actuator range so a
      // long under-bound stretch cannot wind up a huge latent saving.
      if (pc.ki > 0.0) {
        integral_ = std::clamp(integral_, 0.0, span / pc.ki);
      } else {
        integral_ = 0.0;
      }
      const double saving =
          std::clamp(pc.kp * error + pc.ki * integral_, 0.0, span);
      cap_w_ = span > 0.0 ? budget - saving : 0.0;
    }
    const double cap = cap_w_ > 0.0 ? std::min(cap_w_, budget) : budget;
    mod_.apply_uniform_cap(cap);
  }

  bool enforce() override {
    const double budget = mod_.derive_gpu_budget_w();
    if (budget <= 0.0) return true;
    const double cap = cap_w_ > 0.0 ? std::min(cap_w_, budget) : budget;
    return mod_.apply_uniform_cap(cap);
  }

  double progress_rate() const noexcept override { return rate_; }
  double progress_cap_w() const noexcept override { return cap_w_; }

  void encode_state(std::vector<std::uint8_t>& out) const override {
    policy::state_put_f64(out, last_work_);
    policy::state_put_f64(out, last_t_);
    policy::state_put_f64(out, rate_);
    policy::state_put_f64(out, baseline_);
    policy::state_put_f64(out, integral_);
    policy::state_put_f64(out, cap_w_);
  }

 private:
  void reset() {
    last_work_ = -1.0;
    rate_ = -1.0;
    baseline_ = -1.0;
    integral_ = 0.0;
    cap_w_ = 0.0;
  }

  PowerManagerModule& mod_;
  double last_work_ = -1.0;
  double last_t_ = 0.0;
  double rate_ = -1.0;
  double baseline_ = -1.0;  ///< rate measured at the full budget
  double integral_ = 0.0;   ///< accumulated error (one sample per tick)
  double cap_w_ = 0.0;      ///< controller output (0 = follow budget)
};

std::unique_ptr<policy::NodePolicyPlugin> make_node_policy_plugin(
    PowerManagerModule& mod, NodePolicy policy) {
  switch (policy) {
    case NodePolicy::None:
      return std::make_unique<NonePolicyPlugin>(mod);
    case NodePolicy::IbmDefaultNodeCap:
      return std::make_unique<IbmNodeCapPlugin>(mod);
    case NodePolicy::DirectGpuBudget:
      return std::make_unique<GpuBudgetPlugin>(mod);
    case NodePolicy::Fpp:
      return std::make_unique<FppNodePlugin>(mod);
    case NodePolicy::ProgressBased:
      return std::make_unique<ProgressNodePlugin>(mod);
    case NodePolicy::PiBound:
      return std::make_unique<PiBoundNodePlugin>(mod);
  }
  return std::make_unique<NonePolicyPlugin>(mod);
}

}  // namespace fluxpower::manager
