#include "manager/cluster_manager.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "flux/instance.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace fluxpower::manager {

using flux::Message;
using util::Json;

ClusterManager::ClusterManager(flux::Broker& broker,
                               const PowerManagerConfig& config,
                               ClusterInstruments instruments)
    : broker_(broker), config_(config), instruments_(instruments) {
  if (config_.idle_low_power) update_idle_states();  // park everything
  subscriptions_.push_back(broker.subscribe_event(
      "job.state-run", [this](const Message& m) { on_job_event(m); }));
  subscriptions_.push_back(broker.subscribe_event(
      "job.state-inactive", [this](const Message& m) { on_job_event(m); }));
  broker.register_service(kSetClusterBoundTopic, [this](const Message& req) {
    // Site-level coordination: an external coordinator (or operator)
    // re-apportions the global budget at runtime. Owner-only.
    if (!flux::Broker::request_is_owner(req)) {
      broker_.respond_error(req, flux::kEPerm,
                            "set-cluster-bound requires owner credentials");
      return;
    }
    const double bound = req.payload.number_or("bound_w", -1.0);
    if (bound < 0.0) {
      broker_.respond_error(req, flux::kEInval, "bound_w must be >= 0");
      return;
    }
    config_.cluster_power_bound_w = bound;
    repush_all();  // per-node limits under the new bound
    Json ack = Json::object();
    ack["bound_w"] = bound;
    broker_.respond(req, std::move(ack));
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
  // Armed whatever the bound at load: set-cluster-bound may raise it later.
  if (config_.emergency_response) {
    emergency_task_ = std::make_unique<sim::PeriodicTask>(
        broker.sim(), config_.emergency_check_period_s, [this] {
          emergency_check();
          return true;
        });
  }
  if (config_.history_period_s > 0.0 && config_.history_capacity > 0) {
    history_ = std::make_unique<util::RingBuffer<HistoryPoint>>(
        config_.history_capacity);
    history_task_ = std::make_unique<sim::PeriodicTask>(
        broker.sim(), config_.history_period_s, [this] {
          HistoryPoint p;
          p.t_s = broker_.sim().now();
          p.bound_w = config_.cluster_power_bound_w;
          p.allocated_w = allocated_power_w();
          p.allocated_nodes = allocated_nodes();
          p.jobs = static_cast<int>(allocations_.size());
          history_->push(p);
          return true;
        });
    broker.register_service(kHistoryTopic, [this](const Message& req) {
      // Range-check before the cast: a negative count would wrap to a huge
      // std::size_t and return every point.
      const std::int64_t requested = req.payload.int_or("max_points", 512);
      if (requested < 0) {
        broker_.respond_error(req, flux::kEInval, "max_points must be >= 0");
        return;
      }
      const auto max_points = static_cast<std::size_t>(requested);
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
      broker_.respond(req, std::move(payload));
    });
  }
  broker.register_service(kClusterStatusTopic, [this](const Message& req) {
    Json payload = Json::object();
    payload["cluster_power_bound_w"] = config_.cluster_power_bound_w;
    payload["allocated_power_w"] = allocated_power_w();
    payload["total_allocated_nodes"] = allocated_nodes();
    payload["cluster_size"] = broker_.instance().size();
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
    broker_.respond(req, std::move(payload));
  });
}

ClusterManager::~ClusterManager() {
  if (forced_reallocate_event_ != sim::kInvalidEvent) {
    broker_.sim().cancel(forced_reallocate_event_);
  }
  broker_.unregister_service(kClusterStatusTopic);
  broker_.unregister_service(kSetClusterBoundTopic);
  if (history_task_) broker_.unregister_service(kHistoryTopic);
  for (std::uint64_t id : subscriptions_) broker_.unsubscribe_event(id);
}

double ClusterManager::allocated_power_w() const {
  double total = 0.0;
  for (const auto& [id, alloc] : allocations_) total += alloc.job_power_w;
  return total;
}

int ClusterManager::allocated_nodes() const {
  int n = 0;
  for (const auto& [id, alloc] : allocations_) {
    n += static_cast<int>(alloc.ranks.size());
  }
  return n;
}

const JobAllocation* ClusterManager::allocation_of(flux::Rank rank) const {
  for (const auto& [id, alloc] : allocations_) {
    if (std::find(alloc.ranks.begin(), alloc.ranks.end(), rank) !=
        alloc.ranks.end()) {
      return &alloc;
    }
  }
  return nullptr;
}

void ClusterManager::on_job_event(const Message& event) {
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

void ClusterManager::reallocate() {
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
    // Job-level split: equal over the job's nodes, one RPC per rank.
    for (flux::Rank r : alloc.ranks) push_node_limit(r, node_power);
  }

  if (config_.idle_low_power) update_idle_states();
}

void ClusterManager::repush_all() {
  for (auto& [id, alloc] : allocations_) alloc.node_power_w = -1.0;
  reallocate();
}

void ClusterManager::update_idle_states() {
  // Park unallocated nodes, wake allocated ones. State changes ride the
  // same message path as limits (a request handled by each rank's node
  // agent).
  std::vector<bool> allocated(
      static_cast<std::size_t>(broker_.instance().size()), false);
  for (const auto& [id, alloc] : allocations_) {
    for (flux::Rank r : alloc.ranks) {
      if (r >= 0 && static_cast<std::size_t>(r) < allocated.size()) {
        allocated[static_cast<std::size_t>(r)] = true;
      }
    }
  }
  for (flux::Rank r = 0; r < broker_.instance().size(); ++r) {
    Json payload = Json::object();
    payload["low_power"] = !allocated[static_cast<std::size_t>(r)];
    broker_.send_request(r, kSetLowPowerTopic, std::move(payload));
  }
}

void ClusterManager::push_node_limit(flux::Rank rank, double limit_w) {
  instruments_.limit_pushes->inc();
  Json payload = Json::object();
  payload["limit_w"] = limit_w;
  // The response (or its absence) feeds the strike counter. An RPC error,
  // a timeout, and an ack with applied=false all mean the rank is not
  // enforcing the limit we accounted for.
  std::weak_ptr<const bool> alive = alive_;
  broker_.rpc(
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

void ClusterManager::record_push_result(flux::Rank rank, bool applied,
                                        bool retrying) {
  if (applied) {
    push_strikes_.erase(rank);
    if (quarantined_.erase(rank) > 0) {
      instruments_.quarantined_nodes->set(
          static_cast<double>(quarantined_.size()));
      if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
        tr.instant(broker_.sim().now(), "quarantine-lift", "manager",
                   broker_.rank(), "rank", static_cast<double>(rank));
      }
      util::log_info("power-manager: rank " + std::to_string(rank) +
                     " recovered; lifting quarantine");
      Json payload = Json::object();
      payload["rank"] = rank;
      payload["quarantined"] = false;
      broker_.publish_event("power-manager.quarantine", std::move(payload));
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
  instruments_.push_strikes->inc();
  if (++push_strikes_[rank] >= config_.quarantine_threshold) {
    push_strikes_.erase(rank);
    push_retry_pending_.erase(rank);
    quarantined_.insert(rank);
    instruments_.quarantine_events->inc();
    instruments_.quarantined_nodes->set(
        static_cast<double>(quarantined_.size()));
    if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
      tr.instant(broker_.sim().now(), "quarantine", "manager",
                 broker_.rank(), "rank", static_cast<double>(rank));
    }
    util::log_warning("power-manager: quarantining rank " +
                      std::to_string(rank) +
                      " after repeated failed limit pushes");
    Json payload = Json::object();
    payload["rank"] = rank;
    payload["quarantined"] = true;
    broker_.publish_event("power-manager.quarantine", std::move(payload));
    // Redistribute with the rank's peak reserved out of the pool.
    request_forced_reallocate();
    schedule_quarantine_probe(rank);
    return;
  }
  // Below threshold: re-push soon so a dead rank accrues its remaining
  // strikes instead of waiting for the next allocation event.
  schedule_push_retry(rank);
}

void ClusterManager::schedule_push_retry(flux::Rank rank) {
  if (!push_retry_pending_.insert(rank).second) return;  // one in flight
  std::weak_ptr<const bool> alive = alive_;
  broker_.sim().schedule_after(config_.push_timeout_s, [this, rank, alive] {
    if (alive.expired()) return;
    push_retry_pending_.erase(rank);
    if (quarantined_.contains(rank)) return;  // probe loop owns it now
    if (const JobAllocation* alloc = allocation_of(rank)) {
      push_node_limit(rank, alloc->node_power_w);
    }
  });
}

void ClusterManager::request_forced_reallocate() {
  // Coalesce: a burst of quarantine flips (e.g. every ack of one push
  // wave) must cause one redistribution, not a wave per ack — the
  // uncoalesced feedback loop amplifies into an event storm. The
  // destructor cancels the event.
  if (forced_reallocate_event_ != sim::kInvalidEvent) return;
  forced_reallocate_event_ = broker_.sim().schedule_after(0.1, [this] {
    forced_reallocate_event_ = sim::kInvalidEvent;
    repush_all();
  });
}

void ClusterManager::schedule_quarantine_probe(flux::Rank rank) {
  if (config_.quarantine_probe_s <= 0.0) return;
  std::weak_ptr<const bool> alive = alive_;
  broker_.sim().schedule_after(
      config_.quarantine_probe_s, [this, rank, alive] {
        if (alive.expired() || !quarantined_.contains(rank)) return;
        const JobAllocation* alloc = allocation_of(rank);
        push_node_limit(rank, alloc != nullptr ? alloc->node_power_w : 0.0);
        schedule_quarantine_probe(rank);
      });
}

// ---------------------------------------------------------------------------
// Emergency power response
// ---------------------------------------------------------------------------

void ClusterManager::emergency_check() {
  // Unconstrained: there is no bound to defend, so no round is sent, and a
  // standing emergency is released.
  if (config_.cluster_power_bound_w <= 0.0) {
    judge_draw(0.0);
    return;
  }
  // Measure the actual cluster draw through the node-status service — not
  // the allocation ledger, which is exactly what silent capping failures
  // invalidate (§V).
  struct Pending {
    double total_w = 0.0;
    std::size_t outstanding = 0;
  };
  auto pending = std::make_shared<Pending>();
  pending->outstanding = static_cast<std::size_t>(broker_.instance().size());
  std::weak_ptr<const bool> alive = alive_;
  for (flux::Rank r = 0; r < broker_.instance().size(); ++r) {
    broker_.rpc(
        r, kNodeStatusTopic, Json::object(),
        [this, pending, alive](const Message& resp) {
          if (alive.expired()) return;
          if (!resp.is_error()) {
            pending->total_w += resp.payload.number_or("node_draw_w", 0.0);
          }
          if (--pending->outstanding == 0) judge_draw(pending->total_w);
        },
        /*timeout_s=*/5.0);
  }
}

void ClusterManager::judge_draw(double total_w) {
  // The bound is read when the round completes: set-cluster-bound may have
  // moved it, to 0 ("unconstrained") included, while the round was out.
  const double bound = config_.cluster_power_bound_w;
  if (bound > 0.0 && total_w > bound * config_.emergency_threshold) {
    if (++emergency_strikes_ >= config_.emergency_consecutive &&
        !emergency_active_) {
      engage_emergency();
    }
  } else {
    emergency_strikes_ = 0;
    if (emergency_active_ && (bound <= 0.0 || total_w < bound * 0.95)) {
      release_emergency();
    }
  }
}

void ClusterManager::engage_emergency() {
  emergency_active_ = true;
  if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
    tr.instant(broker_.sim().now(), "emergency-engage", "manager",
               broker_.rank());
  }
  util::log_warning("power-manager: EMERGENCY — measured draw exceeds the "
                    "cluster bound; pushing deep uniform limits");
  const double deep = config_.cluster_power_bound_w /
                      static_cast<double>(broker_.instance().size()) *
                      config_.emergency_margin;
  for (flux::Rank r = 0; r < broker_.instance().size(); ++r) {
    push_node_limit(r, deep);
  }
  Json payload = Json::object();
  payload["engaged"] = true;
  payload["deep_limit_w"] = deep;
  broker_.publish_event("power-manager.emergency", std::move(payload));
}

void ClusterManager::release_emergency() {
  emergency_active_ = false;
  emergency_strikes_ = 0;
  if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
    tr.instant(broker_.sim().now(), "emergency-release", "manager",
               broker_.rank());
  }
  util::log_info("power-manager: emergency cleared; restoring shares");
  repush_all();  // a fresh proportional push
  Json payload = Json::object();
  payload["engaged"] = false;
  broker_.publish_event("power-manager.emergency", std::move(payload));
}

}  // namespace fluxpower::manager
