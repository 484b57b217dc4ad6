#include "apps/app_runtime.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fluxpower::apps {

AppRuntime::AppRuntime(sim::Simulation& sim, std::vector<hwsim::Node*> nodes,
                       AppProfile profile, AppRuntimeOptions options)
    : sim_(sim),
      nodes_(std::move(nodes)),
      profile_(std::move(profile)),
      options_(options) {
  if (nodes_.empty()) {
    throw std::invalid_argument("AppRuntime: no nodes");
  }
  if (profile_.phases.empty()) {
    throw std::invalid_argument("AppRuntime: profile has no phases");
  }
  if (!(options_.step_s > 0.0) || !std::isfinite(options_.step_s)) {
    throw std::invalid_argument("AppRuntime: step must be positive and finite");
  }
  double total = 0.0;
  for (const AppPhase& ph : profile_.phases) total += ph.work_frac;
  if (std::abs(total - 1.0) > 1e-6) {
    throw std::invalid_argument(
        "AppRuntime: phase work fractions must sum to 1");
  }
}

AppRuntime::~AppRuntime() { cancel(); }

void AppRuntime::start(std::function<void()> on_complete) {
  if (running_) throw std::logic_error("AppRuntime::start: already running");
  on_complete_ = std::move(on_complete);
  running_ = true;
  // Drain any stale stolen time so this run is not charged for telemetry
  // activity that happened while the node was idle.
  for (hwsim::Node* n : nodes_) n->drain_stolen_time();
  if (options_.progress_broker != nullptr) {
    progress_task_ = std::make_unique<sim::PeriodicTask>(
        sim_, options_.progress_period_s, [this] {
          util::Json payload = util::Json::object();
          payload["id"] = options_.job_id;
          payload["work_done"] = work_done_;
          payload["total"] = profile_.total_work();
          util::Json ranks = util::Json::array();
          for (flux::Rank r : options_.ranks) ranks.push_back(r);
          payload["ranks"] = std::move(ranks);
          options_.progress_broker->publish_event("job.progress",
                                                  std::move(payload));
          return running_;
        });
  }
  pending_ = sim_.schedule_after(0.0, [this] { step(); });
}

void AppRuntime::cancel() {
  if (!running_) return;
  running_ = false;
  progress_task_.reset();
  if (pending_ != sim::kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = sim::kInvalidEvent;
  }
  for (hwsim::Node* n : nodes_) n->idle();
}

const AppPhase& AppRuntime::phase_at(double work) const {
  // Position within the current iteration, in work seconds.
  const double iter = profile_.iteration_s;
  double pos = std::fmod(work, iter);
  for (const AppPhase& ph : profile_.phases) {
    const double span = ph.work_frac * iter;
    if (pos < span) return ph;
    pos -= span;
  }
  return profile_.phases.back();
}

void AppRuntime::apply_phase_demand(const AppPhase& phase) {
  // CPU/memory draw partially follows progress when the GPUs are throttled
  // (cores wait on kernels): scale the active-above-idle portion by the
  // coupling factor against last step's speed. The demand depends on a node
  // only through its idle floor, so identical nodes share one: it is
  // rebuilt only when a floor differs, bit for bit, from the one it was
  // built from.
  const double follow =
      1.0 - profile_.cpu_coupling + profile_.cpu_coupling * last_speed_;
  hwsim::LoadDemand d;
  const hwsim::LoadDemand* built_for = nullptr;
  for (hwsim::Node* n : nodes_) {
    const hwsim::LoadDemand& floor = n->idle_demand();
    if (built_for == nullptr || !hwsim::same_bits(floor, *built_for)) {
      d.cpu_w.resize(floor.cpu_w.size());
      for (std::size_t i = 0; i < d.cpu_w.size(); ++i) {
        d.cpu_w[i] = floor.cpu_w[i] + (phase.cpu_w - floor.cpu_w[i]) * follow;
      }
      d.gpu_w.assign(floor.gpu_w.size(), phase.gpu_w);
      d.mem_w = floor.mem_w + (phase.mem_w - floor.mem_w) * follow;
      built_for = &floor;
    }
    n->set_demand(d);
  }
}

double AppRuntime::min_node_speed(const AppPhase& phase) const {
  // Speed is driven by how much of the *wanted* (uncoupled) power each
  // device class received. The wanted demand depends on a node only through
  // its floor's shape, and phase_speed is a pure function of (profile,
  // phase, want, grants): a node whose grants equal, bit for bit, those of
  // the last node evaluated under the same want runs at that node's speed.
  double speed = 1.0;
  hwsim::LoadDemand want;
  const hwsim::Grants* evaluated = nullptr;
  double node_speed = 1.0;
  for (hwsim::Node* n : nodes_) {
    const hwsim::LoadDemand& floor = n->idle_demand();
    const bool new_shape = evaluated == nullptr ||
                           floor.cpu_w.size() != want.cpu_w.size() ||
                           floor.gpu_w.size() != want.gpu_w.size();
    if (new_shape) {
      want.cpu_w.assign(floor.cpu_w.size(), phase.cpu_w);
      want.gpu_w.assign(floor.gpu_w.size(), phase.gpu_w);
      want.mem_w = phase.mem_w;
    }
    if (new_shape || !hwsim::same_bits(n->grants(), *evaluated)) {
      node_speed = phase_speed(profile_, phase, want, n->grants());
      evaluated = &n->grants();
    }
    speed = std::min(speed, node_speed);
  }
  return speed;
}

void AppRuntime::step() {
  // step() only runs as this event's callback, so the id it fired under can
  // re-arm the stored callback in place (no per-tick lambda, no allocation).
  const sim::EventId fired = pending_;
  pending_ = sim::kInvalidEvent;
  if (!running_) return;

  const AppPhase& phase = phase_at(work_done_);
  apply_phase_demand(phase);
  double speed = min_node_speed(phase) * options_.speed_factor;
  speed = std::clamp(speed, 1e-3, 2.0);
  last_speed_ = std::min(speed, 1.0);

  // Telemetry/OS CPU theft on any node stalls the bulk-synchronous step.
  double stolen = 0.0;
  for (hwsim::Node* n : nodes_) stolen = std::max(stolen, n->drain_stolen_time());
  const double effective_dt = std::max(0.0, options_.step_s - stolen);

  const double remaining = profile_.total_work() - work_done_;
  const double gained = effective_dt * speed;
  if (gained >= remaining && speed > 0.0) {
    // Finish mid-step at the exact completion instant.
    const double dt_needed =
        remaining / speed + std::min(stolen, options_.step_s);
    work_done_ = profile_.total_work();
    pending_ = sim_.schedule_after(std::min(dt_needed, options_.step_s),
                                   [this] { finish(); });
    return;
  }
  work_done_ += gained;
  pending_ = sim_.rearm_fired(fired, sim_.now() + options_.step_s);
}

void AppRuntime::finish() {
  pending_ = sim::kInvalidEvent;
  if (!running_) return;
  running_ = false;
  progress_task_.reset();
  for (hwsim::Node* n : nodes_) n->idle();
  if (on_complete_) {
    // Move out first: on_complete may destroy this runtime.
    auto cb = std::move(on_complete_);
    cb();
  }
}

}  // namespace fluxpower::apps
