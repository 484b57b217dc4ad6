#include "manager/power_manager.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "flux/instance.hpp"
#include "manager/node_policies.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
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

PowerManagerModule::~PowerManagerModule() = default;

void PowerManagerModule::load(flux::Broker& broker) {
  broker_ = &broker;
  alive_ = std::make_shared<const bool>(true);

  // Bind instruments in the broker registry; counters reset so a reloaded
  // module starts a fresh ledger like the plain members it replaced.
  obs::MetricsRegistry& reg = broker.metrics();
  cap_retries_total_ =
      &reg.counter("fluxpower_manager_cap_retries_total",
                   "Transient cap-write failures rescheduled with backoff");
  quarantine_events_total_ =
      &reg.counter("fluxpower_manager_quarantine_events_total",
                   "Ranks quarantined after repeated failed limit pushes");
  push_strikes_total_ =
      &reg.counter("fluxpower_manager_push_strikes_total",
                   "Failed limit-push acknowledgements counted as strikes");
  limit_pushes_total_ = &reg.counter("fluxpower_manager_limit_pushes_total",
                                     "Per-node limit pushes issued");
  cap_backoff_seconds_ =
      &reg.histogram("fluxpower_manager_cap_backoff_seconds",
                     "Armed backoff delays on the cap-retry ladder",
                     kBackoffBounds);
  cap_write_latency_ = &reg.histogram(
      "fluxpower_manager_cap_write_latency_seconds",
      "Time from limit arrival to successful enforcement", kCapLatencyBounds);
  quarantined_nodes_ = &reg.gauge("fluxpower_manager_quarantined_nodes",
                                  "Ranks currently quarantined");
  cap_retries_total_->reset();
  quarantine_events_total_->reset();
  push_strikes_total_->reset();
  limit_pushes_total_->reset();
  cap_backoff_seconds_->reset();
  cap_write_latency_->reset();
  quarantined_nodes_->set(0.0);

  // ---- node-level-manager: every rank ----
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
  if (node != nullptr && config_.static_node_cap_w > 0.0) {
    variorum::cap_best_effort_node_power_limit(*node, config_.static_node_cap_w);
  }

  if (node != nullptr && plugin_->wants_progress() &&
      managed_domain_count() > 0) {
    progress_subscription_ = broker.subscribe_event(
        "job.progress", [this](const Message& m) { on_progress_event(m); });
    progress_task_ = std::make_unique<sim::PeriodicTask>(
        broker.sim(), plugin_->progress_tick_period_s(), [this] {
          plugin_->on_progress_tick();
          return true;
        });
  }
  if (node != nullptr && plugin_->wants_control_tick()) {
    control_task_ = std::make_unique<sim::PeriodicTask>(
        broker.sim(), config_.control_period_s, [this] {
          control_tick();
          return true;
        });
  }
  if (node != nullptr && plugin_->wants_fpp_engine() &&
      managed_domain_count() > 0) {
    // One controller per managed domain — GPUs when the node has them,
    // CPU sockets otherwise (the policy is device-agnostic, §III-B2).
    // Ceilings are refined once a limit arrives.
    const FppConfig dcfg = domain_fpp_config();
    fpp_.clear();
    for (int i = 0; i < managed_domain_count(); ++i) {
      fpp_.push_back(
          std::make_unique<FppController>(dcfg, dcfg.max_gpu_cap_w));
    }
    sample_task_ = std::make_unique<sim::PeriodicTask>(
        broker.sim(), config_.fpp.sample_period_s, [this] {
          hwsim::Node* n = broker_->node();
          if (n == nullptr) return true;
          // Typed sample straight off the sensors: the FPP window feed
          // never touches JSON.
          const hwsim::PowerSample s = variorum::get_node_power_sample(*n);
          const std::span<const double> per_domain =
              manages_gpus()
                  ? std::span<const double>(s.gpu_w.begin(), s.gpu_w.size())
                  : std::span<const double>(s.cpu_w.begin(), s.cpu_w.size());
          for (std::size_t i = 0; i < fpp_.size() && i < per_domain.size();
               ++i) {
            fpp_[i]->add_power_sample(per_domain[i]);
          }
          if (config_.sample_cost_s > 0.0) {
            n->add_stolen_time(config_.sample_cost_s);
          }
          return true;
        });
    fft_task_ = std::make_unique<sim::PeriodicTask>(
        broker.sim(), config_.fpp.fft_update_s, [this] {
          time_since_fpp_control_s_ += config_.fpp.fft_update_s;
          hwsim::Node* n = nullptr;
          if (time_since_fpp_control_s_ + 1e-9 >= config_.fpp.powercap_time_s) {
            time_since_fpp_control_s_ = 0.0;
            n = broker_->node();
          }
          if (n == nullptr) {
            for (auto& c : fpp_) c->update_period();
            return true;
          }
          // control() re-estimates the period from the same buffer, so only
          // the controllers it skips this tick run update_period().
          const double budget = derive_gpu_budget_w();
          const std::size_t active =
              fpp_.empty() ? 0 : fpp_control_round_++ % fpp_.size();
          for (std::size_t i = 0; i < fpp_.size(); ++i) {
            if (config_.fpp.stagger_probes && i != active) {
              fpp_[i]->update_period();
              continue;
            }
            const double cap = fpp_[i]->control(budget);
            if (manages_gpus()) {
              variorum::cap_gpu_power_limit(*n, static_cast<int>(i), cap);
            } else {
              n->set_socket_power_cap(static_cast<int>(i), cap);
            }
          }
          return true;
        });
  }

  // ---- cluster-level-manager + job-level-manager: root rank ----
  if (broker.is_root()) {
    if (config_.idle_low_power) update_idle_states();  // park everything
    subscriptions_.push_back(broker.subscribe_event(
        "job.state-run", [this](const Message& m) { on_job_event(m); }));
    subscriptions_.push_back(broker.subscribe_event(
        "job.state-inactive", [this](const Message& m) { on_job_event(m); }));
    broker.register_service(kSetClusterBoundTopic, [this](const Message& req) {
      // Site-level coordination: an external coordinator (or operator)
      // re-apportions the global budget at runtime. Owner-only.
      if (!flux::Broker::request_is_owner(req)) {
        broker_->respond_error(req, flux::kEPerm,
                               "set-cluster-bound requires owner credentials");
        return;
      }
      const double bound = req.payload.number_or("bound_w", -1.0);
      if (bound < 0.0) {
        broker_->respond_error(req, flux::kEInval, "bound_w must be >= 0");
        return;
      }
      config_.cluster_power_bound_w = bound;
      // Force a fresh push of per-node limits under the new bound.
      for (auto& [id, alloc] : allocations_) alloc.node_power_w = -1.0;
      reallocate();
      Json ack = Json::object();
      ack["bound_w"] = bound;
      broker_->respond(req, std::move(ack));
    });
    if (config_.limit_refresh_s > 0.0) {
      // Reconciliation loop: re-assert the current limits so a rank that
      // went dark is detected by its timeouts, not by luck of the next
      // allocation event.
      refresh_task_ = std::make_unique<sim::PeriodicTask>(
          broker.sim(), config_.limit_refresh_s, [this] {
            for (const auto& [id, alloc] : allocations_) {
              if (alloc.node_power_w <= 0.0) continue;
              for (flux::Rank r : alloc.ranks) {
                if (quarantined_.contains(r)) continue;  // probe loop owns it
                push_node_limit(r, alloc.node_power_w);
              }
            }
            return true;
          });
    }
    if (config_.emergency_response && config_.cluster_power_bound_w > 0.0) {
      emergency_task_ = std::make_unique<sim::PeriodicTask>(
          broker.sim(), config_.emergency_check_period_s, [this] {
            emergency_check();
            return true;
          });
    }
    if (config_.history_period_s > 0.0 && config_.history_capacity > 0) {
      history_ =
          std::make_unique<util::RingBuffer<HistoryPoint>>(config_.history_capacity);
      history_task_ = std::make_unique<sim::PeriodicTask>(
          broker.sim(), config_.history_period_s, [this] {
            HistoryPoint p;
            p.t_s = broker_->sim().now();
            p.bound_w = config_.cluster_power_bound_w;
            p.allocated_w = allocated_power_w();
            for (const auto& [id, alloc] : allocations_) {
              p.allocated_nodes += static_cast<int>(alloc.ranks.size());
            }
            p.jobs = static_cast<int>(allocations_.size());
            history_->push(p);
            return true;
          });
      broker.register_service(kHistoryTopic, [this](const Message& req) {
        const auto max_points = static_cast<std::size_t>(
            req.payload.int_or("max_points", 512));
        Json points = Json::array();
        const std::size_t n = history_->size();
        const std::size_t start = n > max_points ? n - max_points : 0;
        for (std::size_t i = start; i < n; ++i) {
          const HistoryPoint& p = (*history_)[i];
          Json point = Json::object();
          point["t_s"] = p.t_s;
          point["bound_w"] = p.bound_w;
          point["allocated_w"] = p.allocated_w;
          point["allocated_nodes"] = p.allocated_nodes;
          point["jobs"] = p.jobs;
          points.push_back(std::move(point));
        }
        Json payload = Json::object();
        payload["points"] = std::move(points);
        payload["dropped"] =
            static_cast<std::int64_t>(history_->evicted() + start);
        broker_->respond(req, std::move(payload));
      });
    }
    broker.register_service(kClusterStatusTopic, [this](const Message& req) {
      Json payload = Json::object();
      payload["cluster_power_bound_w"] = config_.cluster_power_bound_w;
      payload["allocated_power_w"] = allocated_power_w();
      payload["total_allocated_nodes"] = [this] {
        int n = 0;
        for (const auto& [id, alloc] : allocations_) {
          n += static_cast<int>(alloc.ranks.size());
        }
        return n;
      }();
      payload["cluster_size"] = broker_->instance().size();
      Json jobs = Json::array();
      for (const auto& [id, alloc] : allocations_) {
        Json j = Json::object();
        j["id"] = id;
        j["nnodes"] = static_cast<std::int64_t>(alloc.ranks.size());
        j["job_power_w"] = alloc.job_power_w;
        j["node_power_w"] = alloc.node_power_w;
        jobs.push_back(std::move(j));
      }
      payload["jobs"] = std::move(jobs);
      broker_->respond(req, std::move(payload));
    });
  }
}

void PowerManagerModule::unload() {
  if (cap_retry_event_ != sim::kInvalidEvent && broker_ != nullptr) {
    broker_->sim().cancel(cap_retry_event_);
    cap_retry_event_ = sim::kInvalidEvent;
  }
  if (forced_reallocate_event_ != sim::kInvalidEvent && broker_ != nullptr) {
    broker_->sim().cancel(forced_reallocate_event_);
    forced_reallocate_event_ = sim::kInvalidEvent;
  }
  refresh_task_.reset();
  control_task_.reset();
  sample_task_.reset();
  fft_task_.reset();
  progress_task_.reset();
  emergency_task_.reset();
  fpp_.clear();
  if (broker_ != nullptr) {
    if (progress_subscription_ != 0) {
      broker_->unsubscribe_event(progress_subscription_);
      progress_subscription_ = 0;
    }
    broker_->unregister_service(kSetNodeLimitTopic);
    broker_->unregister_service(kSetLowPowerTopic);
    broker_->unregister_service(kNodeStatusTopic);
    if (broker_->is_root()) {
      broker_->unregister_service(kClusterStatusTopic);
      broker_->unregister_service(kSetClusterBoundTopic);
      if (history_task_) {
        history_task_.reset();
        broker_->unregister_service(kHistoryTopic);
      }
      for (std::uint64_t id : subscriptions_) broker_->unsubscribe_event(id);
      subscriptions_.clear();
    }
    broker_ = nullptr;
  }
  alive_.reset();
}

double PowerManagerModule::allocated_power_w() const {
  double total = 0.0;
  for (const auto& [id, alloc] : allocations_) total += alloc.job_power_w;
  return total;
}

void PowerManagerModule::on_job_event(const Message& event) {
  const auto id =
      static_cast<flux::JobId>(event.payload.int_or("id", 0));
  const std::string state = event.payload.string_or("state", "");
  if (state == "RUN") {
    JobAllocation alloc;
    for (const Json& r : event.payload.at("ranks").as_array()) {
      alloc.ranks.push_back(static_cast<flux::Rank>(r.as_int()));
    }
    // A job may voluntarily cap its own per-node power ("green" jobs, EAR
    // style); the surplus is redistributed to the other jobs.
    alloc.requested_node_power_w =
        event.payload.number_or("power_limit_w_per_node", 0.0);
    allocations_[id] = std::move(alloc);
    reallocate();
  } else if (state == "INACTIVE") {
    if (allocations_.erase(id) > 0) reallocate();
  }
}

void PowerManagerModule::reallocate() {
  // Proportional sharing (§III-B1). In the unconstrained case, or when the
  // bound covers peak power on every allocated node, each node gets peak.
  // Otherwise all jobs share P_G proportionally to their node counts,
  // which is uniform power per allocated node: P_n = P_G / N_total.
  //
  // Jobs with a self-imposed per-node cap are water-filled: each such job
  // takes min(request, fair share) and the freed power raises the share of
  // the remaining jobs, iterating until stable.
  int total_nodes = 0;
  int quarantined_nodes = 0;
  for (const auto& [id, alloc] : allocations_) {
    total_nodes += static_cast<int>(alloc.ranks.size());
    for (flux::Rank r : alloc.ranks) {
      if (quarantined_.contains(r)) ++quarantined_nodes;
    }
  }

  // A quarantined rank stopped acknowledging limit pushes, so the ledger
  // cannot assume it enforces anything: reserve its theoretical peak out of
  // the pool and let the healthy nodes share the remainder. (Limits keep
  // being pushed to it as probes; recovery lifts the reservation.)
  const double reserve = config_.node_peak_w * quarantined_nodes;
  const double effective_bound =
      std::max(0.0, config_.cluster_power_bound_w - reserve);
  const int sharing_nodes = total_nodes - quarantined_nodes;

  std::map<flux::JobId, double> shares;
  const bool constrained =
      config_.cluster_power_bound_w > 0.0 && sharing_nodes > 0 &&
      config_.node_peak_w * sharing_nodes > effective_bound;
  if (!constrained) {
    for (const auto& [id, alloc] : allocations_) {
      shares[id] = alloc.requested_node_power_w > 0.0
                       ? std::min(config_.node_peak_w,
                                  alloc.requested_node_power_w)
                       : config_.node_peak_w;
    }
  } else {
    double pool = effective_bound;
    int pool_nodes = sharing_nodes;
    std::map<flux::JobId, bool> pinned;
    // Water-filling: pin jobs whose request is below the current uniform
    // share, remove them from the pool, repeat until no new pins.
    bool changed = true;
    while (changed && pool_nodes > 0) {
      changed = false;
      const double share = pool / pool_nodes;
      for (const auto& [id, alloc] : allocations_) {
        if (pinned[id] || alloc.requested_node_power_w <= 0.0) continue;
        if (alloc.requested_node_power_w < share) {
          pinned[id] = true;
          changed = true;
          shares[id] = alloc.requested_node_power_w;
          pool -= alloc.requested_node_power_w *
                  static_cast<double>(alloc.ranks.size());
          pool_nodes -= static_cast<int>(alloc.ranks.size());
        }
      }
    }
    const double share =
        pool_nodes > 0 ? std::min(pool / pool_nodes, config_.node_peak_w)
                       : config_.node_peak_w;
    for (const auto& [id, alloc] : allocations_) {
      if (!pinned[id]) shares[id] = share;
    }
  }

  for (auto& [id, alloc] : allocations_) {
    const double node_power = shares.at(id);
    if (alloc.node_power_w == node_power) continue;  // unchanged
    alloc.node_power_w = node_power;
    alloc.job_power_w = node_power * static_cast<double>(alloc.ranks.size());
    // job-level-manager: equal split over the job's nodes, one RPC per rank.
    for (flux::Rank r : alloc.ranks) push_node_limit(r, node_power);
  }

  if (config_.idle_low_power) update_idle_states();
}

void PowerManagerModule::update_idle_states() {
  // Park unallocated nodes, wake allocated ones. State changes ride the
  // same message path as limits (a request handled by each rank's
  // node-level-manager).
  std::vector<bool> allocated(
      static_cast<std::size_t>(broker_->instance().size()), false);
  for (const auto& [id, alloc] : allocations_) {
    for (flux::Rank r : alloc.ranks) {
      if (r >= 0 && static_cast<std::size_t>(r) < allocated.size()) {
        allocated[static_cast<std::size_t>(r)] = true;
      }
    }
  }
  for (flux::Rank r = 0; r < broker_->instance().size(); ++r) {
    Json payload = Json::object();
    payload["low_power"] = !allocated[static_cast<std::size_t>(r)];
    broker_->send_request(r, kSetLowPowerTopic, std::move(payload));
  }
}

void PowerManagerModule::push_node_limit(flux::Rank rank, double limit_w) {
  limit_pushes_total_->inc();
  Json payload = Json::object();
  payload["limit_w"] = limit_w;
  // The response (or its absence) feeds the strike counter. An RPC error,
  // a timeout, and an ack with applied=false all mean the rank is not
  // enforcing the limit we accounted for.
  std::weak_ptr<const bool> alive = alive_;
  broker_->rpc(
      rank, kSetNodeLimitTopic, std::move(payload),
      [this, rank, alive](const Message& resp) {
        if (alive.expired()) return;
        const bool applied =
            !resp.is_error() && resp.payload.bool_or("applied", true);
        const bool retrying =
            !resp.is_error() && resp.payload.bool_or("retrying", false);
        record_push_result(rank, applied, retrying);
      },
      config_.push_timeout_s);
}

void PowerManagerModule::record_push_result(flux::Rank rank, bool applied,
                                            bool retrying) {
  if (applied) {
    push_strikes_.erase(rank);
    if (quarantined_.erase(rank) > 0) {
      quarantined_nodes_->set(static_cast<double>(quarantined_.size()));
      if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
        tr.instant(broker_->sim().now(), "quarantine-lift", "manager",
                   broker_->rank(), "rank", static_cast<double>(rank));
      }
      util::log_info("power-manager: rank " + std::to_string(rank) +
                     " recovered; lifting quarantine");
      Json payload = Json::object();
      payload["rank"] = rank;
      payload["quarantined"] = false;
      broker_->publish_event("power-manager.quarantine", std::move(payload));
      // Return the reserved peak to the pool.
      request_forced_reallocate();
    }
    return;
  }
  if (retrying) {
    // The rank answered and its local backoff ladder owns the transient
    // cap-write fault. Responsive ≠ recovered: neither a strike nor a
    // clear, so a flaky-but-alive rank hovers without quarantine churn.
    return;
  }
  if (quarantined_.contains(rank)) return;  // already reserved
  push_strikes_total_->inc();
  if (++push_strikes_[rank] >= config_.quarantine_threshold) {
    push_strikes_.erase(rank);
    push_retry_pending_.erase(rank);
    quarantined_.insert(rank);
    quarantine_events_total_->inc();
    quarantined_nodes_->set(static_cast<double>(quarantined_.size()));
    if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
      tr.instant(broker_->sim().now(), "quarantine", "manager",
                 broker_->rank(), "rank", static_cast<double>(rank));
    }
    util::log_warning("power-manager: quarantining rank " +
                      std::to_string(rank) +
                      " after repeated failed limit pushes");
    Json payload = Json::object();
    payload["rank"] = rank;
    payload["quarantined"] = true;
    broker_->publish_event("power-manager.quarantine", std::move(payload));
    // Redistribute with the rank's peak reserved out of the pool.
    request_forced_reallocate();
    schedule_quarantine_probe(rank);
    return;
  }
  // Below threshold: re-push soon so a dead rank accrues its remaining
  // strikes instead of waiting for the next allocation event.
  schedule_push_retry(rank);
}

void PowerManagerModule::schedule_push_retry(flux::Rank rank) {
  if (!push_retry_pending_.insert(rank).second) return;  // one in flight
  std::weak_ptr<const bool> alive = alive_;
  broker_->sim().schedule_after(config_.push_timeout_s, [this, rank, alive] {
    if (alive.expired()) return;
    push_retry_pending_.erase(rank);
    if (quarantined_.contains(rank)) return;  // probe loop owns it now
    for (const auto& [id, alloc] : allocations_) {
      for (flux::Rank r : alloc.ranks) {
        if (r == rank) {
          push_node_limit(rank, alloc.node_power_w);
          return;
        }
      }
    }
  });
}

void PowerManagerModule::request_forced_reallocate() {
  // Coalesce: a burst of quarantine flips (e.g. every ack of one push
  // wave) must cause one redistribution, not a wave per ack — the
  // uncoalesced feedback loop amplifies into an event storm.
  if (forced_reallocate_event_ != sim::kInvalidEvent) return;
  forced_reallocate_event_ = broker_->sim().schedule_after(0.1, [this] {
    forced_reallocate_event_ = sim::kInvalidEvent;
    if (broker_ == nullptr) return;
    for (auto& [id, alloc] : allocations_) alloc.node_power_w = -1.0;
    reallocate();
  });
}

void PowerManagerModule::schedule_quarantine_probe(flux::Rank rank) {
  if (config_.quarantine_probe_s <= 0.0) return;
  std::weak_ptr<const bool> alive = alive_;
  broker_->sim().schedule_after(
      config_.quarantine_probe_s, [this, rank, alive] {
        if (alive.expired() || !quarantined_.contains(rank)) return;
        double share = 0.0;
        for (const auto& [id, alloc] : allocations_) {
          for (flux::Rank r : alloc.ranks) {
            if (r == rank) share = alloc.node_power_w;
          }
        }
        push_node_limit(rank, share);
        schedule_quarantine_probe(rank);
      });
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
  const double limit = limit_w;
  const bool raised = limit > node_limit_w_ && node_limit_w_ > 0.0;
  const bool fresh = node_limit_w_ == 0.0;
  node_limit_w_ = limit;
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
  const std::span<const double> managed =
      manages_gpus()
          ? std::span<const double>(s.gpu_w.begin(), s.gpu_w.size())
          : std::span<const double>(s.cpu_w.begin(), s.cpu_w.size());
  for (double w : managed) managed_total += w;
  const double unmanaged = std::max(0.0, s.best_node_w() - managed_total);
  double budget = (node_limit_w_ - unmanaged) / static_cast<double>(domains);
  budget = std::clamp(budget, dcfg.min_gpu_cap_w, ceiling);
  last_gpu_budget_w_ = budget;
  return budget;
}

bool PowerManagerModule::enforce_node_limit() {
  if (broker_->node() == nullptr) return true;
  return plugin_->enforce();
}

bool PowerManagerModule::enforce_with_retry() {
  // Latency accounting covers the whole attempt: from the first write of a
  // fresh limit through every backoff rung until the caps finally land.
  if (cap_attempt_start_s_ < 0.0) {
    cap_attempt_start_s_ = broker_->sim().now();
  }
  const bool ok = enforce_node_limit();
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

void PowerManagerModule::control_tick() {
  // Periodic budget refresh: non-GPU draw moves with application phases,
  // so the derived GPU budget is re-measured continuously. A transient
  // write failure arms the backoff ladder rather than waiting a full
  // control period.
  enforce_with_retry();
}

// ---------------------------------------------------------------------------
// Emergency power response (root)
// ---------------------------------------------------------------------------

void PowerManagerModule::emergency_check() {
  // Measure the actual cluster draw through the node-status service — not
  // the allocation ledger, which is exactly what silent capping failures
  // invalidate (§V).
  struct Pending {
    double total_w = 0.0;
    std::size_t outstanding = 0;
  };
  auto pending = std::make_shared<Pending>();
  pending->outstanding = static_cast<std::size_t>(broker_->instance().size());
  std::weak_ptr<const bool> alive = alive_;
  for (flux::Rank r = 0; r < broker_->instance().size(); ++r) {
    broker_->rpc(
        r, kNodeStatusTopic, Json::object(),
        [this, pending, alive](const Message& resp) {
          if (alive.expired()) return;
          if (!resp.is_error()) {
            pending->total_w += resp.payload.number_or("node_draw_w", 0.0);
          }
          if (--pending->outstanding > 0) return;

          const double bound = config_.cluster_power_bound_w;
          if (pending->total_w > bound * config_.emergency_threshold) {
            if (++emergency_strikes_ >= config_.emergency_consecutive &&
                !emergency_active_) {
              engage_emergency();
            }
          } else {
            emergency_strikes_ = 0;
            if (emergency_active_ && pending->total_w < bound * 0.95) {
              release_emergency();
            }
          }
        },
        /*timeout_s=*/5.0);
  }
}

void PowerManagerModule::engage_emergency() {
  emergency_active_ = true;
  if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
    tr.instant(broker_->sim().now(), "emergency-engage", "manager",
               broker_->rank());
  }
  util::log_warning("power-manager: EMERGENCY — measured draw exceeds the "
                    "cluster bound; pushing deep uniform limits");
  const double deep = config_.cluster_power_bound_w /
                      static_cast<double>(broker_->instance().size()) *
                      config_.emergency_margin;
  for (flux::Rank r = 0; r < broker_->instance().size(); ++r) {
    push_node_limit(r, deep);
  }
  Json payload = Json::object();
  payload["engaged"] = true;
  payload["deep_limit_w"] = deep;
  broker_->publish_event("power-manager.emergency", std::move(payload));
}

void PowerManagerModule::release_emergency() {
  emergency_active_ = false;
  emergency_strikes_ = 0;
  if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
    tr.instant(broker_->sim().now(), "emergency-release", "manager",
               broker_->rank());
  }
  util::log_info("power-manager: emergency cleared; restoring shares");
  // Force a fresh proportional push.
  for (auto& [id, alloc] : allocations_) alloc.node_power_w = -1.0;
  reallocate();
  Json payload = Json::object();
  payload["engaged"] = false;
  broker_->publish_event("power-manager.emergency", std::move(payload));
}

// ---------------------------------------------------------------------------
// Progress-observing policies (ProgressBased, PiBound)
// ---------------------------------------------------------------------------

void PowerManagerModule::on_progress_event(const Message& event) {
  // Only progress of the job running on *this* node matters; the rate
  // derivation and control reaction belong to the installed plugin.
  bool local = false;
  if (event.payload.contains("ranks")) {
    for (const Json& r : event.payload.at("ranks").as_array()) {
      if (static_cast<flux::Rank>(r.as_int()) == broker_->rank()) {
        local = true;
        break;
      }
    }
  }
  if (!local) return;
  plugin_->on_progress(event.payload.number_or("work_done", -1.0),
                       broker_->sim().now());
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
