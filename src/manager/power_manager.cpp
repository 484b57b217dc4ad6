#include "manager/power_manager.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "variorum/variorum.hpp"

namespace fluxpower::manager {

using flux::Message;
using util::Json;

namespace {
/// Backoff ladder delays double from cap_retry_initial_s (default 0.5 s) to
/// cap_retry_max_s (default 30 s); cap-write latency spans one immediate
/// success (0) up to a full ladder walk.
constexpr std::array<double, 12> kCapLatencyBounds = {
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0};
constexpr std::array<double, 8> kBackoffBounds = {0.25, 0.5, 1.0,  2.0,
                                                 4.0,  8.0, 16.0, 32.0};
}  // namespace

const char* node_policy_name(NodePolicy policy) noexcept {
  switch (policy) {
    case NodePolicy::None: return "none";
    case NodePolicy::IbmDefaultNodeCap: return "ibm-default";
    case NodePolicy::DirectGpuBudget: return "gpu-budget";
    case NodePolicy::Fpp: return "fpp";
    case NodePolicy::ProgressBased: return "progress";
    case NodePolicy::PiBound: return "pi-bound";
  }
  return "unknown";
}

PowerManagerModule::PowerManagerModule(PowerManagerConfig config)
    : config_(config) {
  if (config_.quarantine_threshold < 1) {
    throw std::invalid_argument(
        "PowerManagerModule: quarantine_threshold must be >= 1");
  }
  plugin_ = make_node_policy_plugin(*this, config_.node_policy);
}

void PowerManagerModule::load(flux::Broker& broker) {
  broker_ = &broker;

  // Bind instruments in the broker registry; counters reset so a reloaded
  // module starts a fresh ledger like the plain members it replaced. Every
  // rank registers the root's ledger instruments too, so each broker
  // exposes the same series.
  obs::MetricsRegistry& reg = broker.metrics();
  ClusterInstruments root;
  cap_retries_total_ =
      &reg.counter("fluxpower_manager_cap_retries_total",
                   "Transient cap-write failures rescheduled with backoff");
  root.quarantine_events =
      &reg.counter("fluxpower_manager_quarantine_events_total",
                   "Ranks quarantined after repeated failed limit pushes");
  root.push_strikes =
      &reg.counter("fluxpower_manager_push_strikes_total",
                   "Failed limit-push acknowledgements counted as strikes");
  root.limit_pushes = &reg.counter("fluxpower_manager_limit_pushes_total",
                                   "Per-node limit pushes issued");
  cap_backoff_seconds_ =
      &reg.histogram("fluxpower_manager_cap_backoff_seconds",
                     "Armed backoff delays on the cap-retry ladder",
                     kBackoffBounds);
  cap_write_latency_ = &reg.histogram(
      "fluxpower_manager_cap_write_latency_seconds",
      "Time from limit arrival to successful enforcement", kCapLatencyBounds);
  root.quarantined_nodes = &reg.gauge("fluxpower_manager_quarantined_nodes",
                                      "Ranks currently quarantined");
  cap_retries_total_->reset();
  root.quarantine_events->reset();
  root.push_strikes->reset();
  root.limit_pushes->reset();
  cap_backoff_seconds_->reset();
  cap_write_latency_->reset();
  root.quarantined_nodes->set(0.0);

  broker.register_service(kSetNodeLimitTopic, [this](const Message& m) {
    handle_set_node_limit(m);
  });
  broker.register_service(kSetLowPowerTopic, [this](const Message& req) {
    if (!flux::Broker::request_is_owner(req)) {
      broker_->respond_error(req, flux::kEPerm,
                             "set-low-power requires owner credentials");
      return;
    }
    hwsim::Node* n = broker_->node();
    if (n != nullptr) {
      n->set_low_power_state(req.payload.bool_or("low_power", false));
    }
    broker_->respond(req, Json::object());
  });
  broker.register_service(kNodeStatusTopic, [this](const Message& req) {
    Json payload = Json::object();
    payload["rank"] = broker_->rank();
    payload["node_limit_w"] = node_limit_w_;
    payload["gpu_budget_w"] = last_gpu_budget_w_;
    payload["policy"] = node_policy_name(config_.node_policy);
    payload["cap_retries"] = cap_retries();
    if (hwsim::Node* n = broker_->node()) {
      payload["node_draw_w"] = n->node_draw_w();
      payload["cap_write_failures"] = n->cap_write_faults();
    }
    broker_->respond(req, std::move(payload));
  });

  hwsim::Node* node = broker.node();
  if (node != nullptr) {
    if (config_.static_node_cap_w > 0.0) {
      variorum::cap_best_effort_node_power_limit(*node,
                                                 config_.static_node_cap_w);
    }
    plugin_->arm();
  }
  if (broker.is_root()) {
    cluster_ = std::make_unique<ClusterManager>(broker, config_, root);
  }
}

void PowerManagerModule::unload() {
  if (broker_ == nullptr) return;
  if (cap_retry_event_ != sim::kInvalidEvent) {
    broker_->sim().cancel(cap_retry_event_);
    cap_retry_event_ = sim::kInvalidEvent;
  }
  plugin_->disarm();
  cluster_.reset();
  broker_->unregister_service(kSetNodeLimitTopic);
  broker_->unregister_service(kSetLowPowerTopic);
  broker_->unregister_service(kNodeStatusTopic);
  broker_ = nullptr;
}

void PowerManagerModule::handle_set_node_limit(const Message& req) {
  // Power limits mutate shared cluster state: owner-only (guests manage
  // power inside their own user-level instances instead).
  if (!flux::Broker::request_is_owner(req)) {
    broker_->respond_error(req, flux::kEPerm,
                           "set-node-limit requires instance-owner credentials");
    return;
  }
  const double limit = req.payload.number_or("limit_w", 0.0);
  if (limit < 0.0) {
    broker_->respond_error(req, flux::kEInval, "negative node limit");
    return;
  }
  const auto [applied, retrying] = apply_node_limit(limit);
  Json ack = Json::object();
  ack["limit_w"] = node_limit_w_;
  // applied=false with retrying=true means the caps did not land yet but
  // the local backoff ladder is converging on them: the broker is alive
  // and enforcing, so the root must not treat it like a dead rank. Only
  // applied=false with no retry armed (never happens today) or an RPC
  // timeout counts as a quarantine strike.
  ack["applied"] = applied;
  ack["retrying"] = retrying;
  broker_->respond(req, std::move(ack));
}

std::pair<bool, bool> PowerManagerModule::apply_node_limit(double limit_w) {
  const bool raised = limit_w > node_limit_w_ && node_limit_w_ > 0.0;
  const bool fresh = node_limit_w_ == 0.0;
  node_limit_w_ = limit_w;
  if (raised || fresh) {
    // New-headroom epoch: the plugin re-baselines (ProgressBased/PiBound
    // re-probe from the fresh budget; FPP rebuilds its controllers so
    // Algorithm 1's MAIN re-derives P_cap_cur and the convergence latch
    // resets). A lowered limit does NOT reset: the tighter budget simply
    // clamps the active caps, and the existing state remains valid.
    plugin_->on_limit_refresh();
  }
  // A fresh limit supersedes any in-flight retry: restart the ladder. The
  // latency clock restarts with it — it measures this limit, not the
  // superseded one.
  if (cap_retry_event_ != sim::kInvalidEvent) {
    broker_->sim().cancel(cap_retry_event_);
    cap_retry_event_ = sim::kInvalidEvent;
  }
  cap_retry_delay_s_ = 0.0;
  cap_attempt_start_s_ = -1.0;
  const bool applied = enforce_with_retry();
  return {applied, cap_retry_pending()};
}

bool PowerManagerModule::manages_gpus() const {
  hwsim::Node* node = broker_->node();
  return node != nullptr && node->gpu_count() > 0;
}

int PowerManagerModule::managed_domain_count() const {
  hwsim::Node* node = broker_->node();
  if (node == nullptr) return 0;
  return manages_gpus() ? node->gpu_count() : node->socket_count();
}

FppConfig PowerManagerModule::domain_fpp_config() const {
  FppConfig cfg = config_.fpp;
  if (!manages_gpus()) {
    cfg.max_gpu_cap_w = config_.fpp.max_socket_cap_w;
    cfg.min_gpu_cap_w = config_.fpp.min_socket_cap_w;
  }
  return cfg;
}

std::span<const double> PowerManagerModule::managed_w(
    const hwsim::PowerSample& s) const {
  return manages_gpus()
             ? std::span<const double>(s.gpu_w.begin(), s.gpu_w.size())
             : std::span<const double>(s.cpu_w.begin(), s.cpu_w.size());
}

double PowerManagerModule::derive_gpu_budget_w() {
  hwsim::Node* node = broker_->node();
  const int domains = managed_domain_count();
  if (node == nullptr || domains == 0) return 0.0;
  const FppConfig dcfg = domain_fpp_config();
  const double ceiling = dcfg.max_gpu_cap_w;
  if (node_limit_w_ <= 0.0 || node_limit_w_ >= config_.node_peak_w) {
    last_gpu_budget_w_ = ceiling;
    return ceiling;
  }
  // Measure the node's draw outside the managed domains and hand the
  // remainder to them — the "derived max cap from node-level limit" of
  // Algorithm 1 line 36.
  const hwsim::PowerSample s = variorum::get_node_power_sample(*node);
  double managed_total = 0.0;
  for (double w : managed_w(s)) managed_total += w;
  const double unmanaged = std::max(0.0, s.best_node_w() - managed_total);
  double budget = (node_limit_w_ - unmanaged) / static_cast<double>(domains);
  budget = std::clamp(budget, dcfg.min_gpu_cap_w, ceiling);
  last_gpu_budget_w_ = budget;
  return budget;
}

bool PowerManagerModule::enforce_with_retry() {
  // Latency accounting covers the whole attempt: from the first write of a
  // fresh limit through every backoff rung until the caps finally land.
  if (cap_attempt_start_s_ < 0.0) {
    cap_attempt_start_s_ = broker_->sim().now();
  }
  // Permanent refusals are not failures; only a transient one is.
  const bool ok = broker_->node() == nullptr || plugin_->enforce();
  if (ok) {
    cap_retry_delay_s_ = 0.0;  // ladder back to rest
    cap_write_latency_->observe(broker_->sim().now() - cap_attempt_start_s_);
    cap_attempt_start_s_ = -1.0;
    return true;
  }
  if (cap_retry_event_ != sim::kInvalidEvent) return false;  // already armed
  cap_retry_delay_s_ = cap_retry_delay_s_ <= 0.0
                           ? config_.cap_retry_initial_s
                           : std::min(config_.cap_retry_max_s,
                                      cap_retry_delay_s_ * 2.0);
  cap_retries_total_->inc();
  cap_backoff_seconds_->observe(cap_retry_delay_s_);
  cap_retry_event_ =
      broker_->sim().schedule_after(cap_retry_delay_s_, [this] {
        cap_retry_event_ = sim::kInvalidEvent;
        enforce_with_retry();
      });
  return false;
}

bool PowerManagerModule::apply_uniform_cap(double cap_w) {
  hwsim::Node* node = broker_->node();
  if (node == nullptr) return true;
  bool ok = true;
  if (manages_gpus()) {
    for (const hwsim::CapResult& r :
         variorum::cap_each_gpu_power_limit(*node, cap_w)) {
      ok = ok && r.status != hwsim::CapStatus::IoError;
    }
  } else {
    for (int i = 0; i < node->socket_count(); ++i) {
      const auto r = node->set_socket_power_cap(i, cap_w);
      ok = ok && r.status != hwsim::CapStatus::IoError;
    }
  }
  return ok;
}

}  // namespace fluxpower::manager
