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

/// Cap managed device `i` (a GPU, else a CPU socket) at `cap_w`.
hwsim::CapResult cap_domain(PowerManagerModule& mod, int i, double cap_w) {
  hwsim::Node& node = *mod.broker().node();
  return mod.manages_gpus() ? variorum::cap_gpu_power_limit(node, i, cap_w)
                            : node.set_socket_power_cap(i, cap_w);
}
}  // namespace

void NodePolicyPlugin::every(double period_s, std::function<bool()> fn) {
  tasks_.push_back(std::make_unique<sim::PeriodicTask>(
      mod_.broker().sim(), period_s, std::move(fn)));
}

void NodePolicyPlugin::arm_control_tick() {
  // A transient write failure arms the backoff ladder rather than waiting a
  // full control period.
  every(mod_.config().control_period_s, [this] {
    mod_.enforce_with_retry();
    return true;
  });
}

/// NodePolicy::None — the node applies nothing; the static cap (if any)
/// was installed at load and stands.
class NonePolicyPlugin final : public NodePolicyPlugin {
 public:
  using NodePolicyPlugin::NodePolicyPlugin;
  bool enforce() override { return true; }
};

/// IbmDefaultNodeCap — hand the limit to the platform's node dial (OPAL on
/// AC922); firmware derives conservative device caps.
class IbmNodeCapPlugin final : public NodePolicyPlugin {
 public:
  using NodePolicyPlugin::NodePolicyPlugin;
  bool enforce() override {
    const double cap = mod_.node_limit_w() > 0.0 ? mod_.node_limit_w()
                                                 : mod_.config().node_peak_w;
    const auto result =
        variorum::cap_best_effort_node_power_limit(*mod_.broker().node(), cap);
    if (!result.ok()) {
      util::log_warning(std::string("power-manager: node cap failed: ") +
                        hwsim::cap_status_name(result.status));
    }
    return !transient(result);
  }
};

/// DirectGpuBudget — measure the node's non-managed draw and cap each
/// device uniformly at the derived budget.
class GpuBudgetPlugin final : public NodePolicyPlugin {
 public:
  using NodePolicyPlugin::NodePolicyPlugin;
  void arm() override { arm_control_tick(); }
  bool enforce() override {
    const double budget = mod_.derive_gpu_budget_w();
    if (budget <= 0.0) return true;
    return mod_.apply_uniform_cap(budget);
  }
};

// ---------------------------------------------------------------------------
// Fpp
// ---------------------------------------------------------------------------

void FppNodePlugin::arm() {
  arm_control_tick();
  if (mod_.managed_domain_count() == 0) return;
  // One controller per managed device at the full ceiling; ceilings are
  // refined once a limit arrives.
  controllers_.resize(static_cast<std::size_t>(mod_.managed_domain_count()));
  on_limit_refresh();
  const PowerManagerConfig& config = mod_.config();
  every(config.fpp.sample_period_s, [this] {
    // Typed sample straight off the sensors: the FPP window feed never
    // touches JSON.
    const hwsim::PowerSample s =
        variorum::get_node_power_sample(*mod_.broker().node());
    const std::span<const double> per_domain = mod_.managed_w(s);
    for (std::size_t i = 0; i < controllers_.size() && i < per_domain.size();
         ++i) {
      controllers_[i]->add_power_sample(per_domain[i]);
    }
    return true;
  });
  every(config.fpp.fft_update_s, [this, &config] {
    time_since_control_s_ += config.fpp.fft_update_s;
    if (time_since_control_s_ + 1e-9 < config.fpp.powercap_time_s) {
      for (auto& c : controllers_) c->update_period();
      return true;
    }
    time_since_control_s_ = 0.0;
    // control() re-estimates the period from the same buffer, so only the
    // controllers it skips this round run update_period().
    const double budget = mod_.derive_gpu_budget_w();
    const std::size_t active = control_round_++ % controllers_.size();
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
      if (config.fpp.stagger_probes && i != active) {
        controllers_[i]->update_period();
        continue;
      }
      cap_domain(mod_, static_cast<int>(i), controllers_[i]->control(budget));
    }
    return true;
  });
}

void FppNodePlugin::on_limit_refresh() {
  // A raised limit starts a new FPP epoch: rebuild the controllers so
  // Algorithm 1's MAIN re-derives P_cap_cur and the convergence latch
  // resets; a job inheriting freed power rides the higher ceiling.
  const FppConfig dcfg = mod_.domain_fpp_config();
  for (auto& c : controllers_) {
    c = std::make_unique<FppController>(dcfg, dcfg.max_gpu_cap_w);
  }
  time_since_control_s_ = 0.0;
}

bool FppNodePlugin::enforce() {
  // Clamp each controller's cap to the fresh budget; the 90 s control
  // loop does the dynamic adjustment.
  const double budget = mod_.derive_gpu_budget_w();
  bool ok = true;
  for (std::size_t i = 0; i < controllers_.size(); ++i) {
    const double cap = std::min(controllers_[i]->current_cap_w(), budget);
    ok = ok && !transient(cap_domain(mod_, static_cast<int>(i), cap));
  }
  return ok;
}

void FppNodePlugin::encode_state(std::vector<std::uint8_t>& out) const {
  policy::state_put_u64(out, control_round_);
  policy::state_put_f64(out, time_since_control_s_);
}

// ---------------------------------------------------------------------------
// Progress-observing policies
// ---------------------------------------------------------------------------

void ProgressPlugin::arm() {
  if (mod_.managed_domain_count() > 0) {
    flux::Broker& broker = mod_.broker();
    subscription_ = broker.subscribe_event(
        "job.progress", [this, &broker](const flux::Message& event) {
          // Only progress of the job running on *this* node matters.
          if (!event.payload.contains("ranks")) return;
          for (const util::Json& r : event.payload.at("ranks").as_array()) {
            if (static_cast<flux::Rank>(r.as_int()) == broker.rank()) {
              on_progress(event.payload.number_or("work_done", -1.0),
                          broker.sim().now());
              return;
            }
          }
        });
    every(tick_period_s_, [this] {
      const double budget = mod_.derive_gpu_budget_w();
      step(budget, mod_.domain_fpp_config().min_gpu_cap_w);
      mod_.apply_uniform_cap(capped(budget));
      return true;
    });
  }
  arm_control_tick();
}

void ProgressPlugin::disarm() {
  NodePolicyPlugin::disarm();
  if (subscription_ != 0) {
    mod_.broker().unsubscribe_event(subscription_);
    subscription_ = 0;
  }
}

void ProgressPlugin::on_progress(double work_done, double now_s) {
  if (work_done < 0.0) return;
  if (last_work_ >= 0.0 && work_done >= last_work_ && now_s > last_t_) {
    rate_ = (work_done - last_work_) / (now_s - last_t_);
  } else if (work_done < last_work_) {
    reset();  // a new job started on this node
  }
  last_work_ = work_done;
  last_t_ = now_s;
}

void ProgressPlugin::reset() {
  last_work_ = -1.0;
  rate_ = -1.0;
  baseline_ = -1.0;
  cap_w_ = 0.0;
}

bool ProgressPlugin::enforce() {
  // Budget refresh must respect the control loop's active cap.
  const double budget = mod_.derive_gpu_budget_w();
  if (budget <= 0.0) return true;
  return mod_.apply_uniform_cap(capped(budget));
}

ProgressNodePlugin::ProgressNodePlugin(PowerManagerModule& mod)
    : ProgressPlugin(mod, mod.config().progress.control_period_s) {}

void ProgressNodePlugin::reset() {
  ProgressPlugin::reset();
  state_ = State::Baseline;
  last_good_w_ = 0.0;
}

void ProgressNodePlugin::step(double budget_w, double floor_w) {
  const ProgressPolicyConfig& pc = mod_.config().progress;
  if (rate_ < 0.0) {
    // No progress signal (idle node, or a job without reporting): behave
    // like plain budget enforcement.
    state_ = State::Baseline;
    cap_w_ = 0.0;
    return;
  }
  switch (state_) {
    case State::Baseline:
      // One full control window at the budget establishes the baseline.
      baseline_ = rate_;
      last_good_w_ = budget_w;
      cap_w_ = std::max(floor_w, budget_w - pc.step_w);
      state_ = State::Probing;
      break;
    case State::Probing:
      if (rate_ >= (1.0 - pc.tolerance) * baseline_) {
        // Progress unharmed: keep the saving and probe further down.
        last_good_w_ = cap_w_;
        const double next = std::max(floor_w, cap_w_ - pc.step_w);
        if (next == cap_w_) state_ = State::Hold;  // at the floor
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

void ProgressNodePlugin::encode_state(std::vector<std::uint8_t>& out) const {
  policy::state_put_u32(out, static_cast<std::uint32_t>(state_));
  policy::state_put_f64(out, last_work_);
  policy::state_put_f64(out, last_t_);
  policy::state_put_f64(out, rate_);
  policy::state_put_f64(out, baseline_);
  policy::state_put_f64(out, cap_w_);
  policy::state_put_f64(out, last_good_w_);
}

/// PiBound — PI controller converging the uniform cap to the deepest value
/// whose measured progress degradation stays at the configured bound.
class PiBoundNodePlugin final : public ProgressPlugin {
 public:
  explicit PiBoundNodePlugin(PowerManagerModule& mod)
      : ProgressPlugin(mod, mod.config().pi.control_period_s) {}

  void encode_state(std::vector<std::uint8_t>& out) const override {
    policy::state_put_f64(out, last_work_);
    policy::state_put_f64(out, last_t_);
    policy::state_put_f64(out, rate_);
    policy::state_put_f64(out, baseline_);
    policy::state_put_f64(out, integral_);
    policy::state_put_f64(out, cap_w_);
  }

 private:
  void reset() override {
    ProgressPlugin::reset();
    integral_ = 0.0;
  }

  void step(double budget_w, double floor_w) override {
    const PiPolicyConfig& pc = mod_.config().pi;
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
      const double span = std::max(0.0, budget_w - floor_w);
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
      cap_w_ = span > 0.0 ? budget_w - saving : 0.0;
    }
  }

  double integral_ = 0.0;  ///< accumulated error (one sample per tick)
};

std::unique_ptr<NodePolicyPlugin> make_node_policy_plugin(
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
