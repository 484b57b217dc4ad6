#include "manager/site_coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "manager/power_manager.hpp"
#include "util/json.hpp"

namespace fluxpower::manager {

SiteCoordinator::SiteCoordinator(sim::Simulation& sim, double site_bound_w,
                                 double period_s)
    : sim_(sim),
      site_bound_w_(site_bound_w),
      effective_bound_w_(site_bound_w),
      policy_(make_demand_proportional_policy()) {
  if (site_bound_w <= 0.0) {
    throw std::invalid_argument("SiteCoordinator: bound must be positive");
  }
  if (period_s <= 0.0) {
    throw std::invalid_argument("SiteCoordinator: period must be positive");
  }
  ticker_ = std::make_unique<sim::PeriodicTask>(sim_, period_s, [this] {
    rebalance();
    return true;
  });
}

SiteCoordinator::~SiteCoordinator() = default;

void SiteCoordinator::add_member(MemberConfig member) {
  if (member.instance == nullptr) {
    throw std::invalid_argument("SiteCoordinator: null instance");
  }
  Member m;
  m.config = std::move(member);
  // Until the first rebalance, the member keeps at least its floor.
  m.share_w = m.config.floor_w;
  members_.push_back(std::move(m));
}

void SiteCoordinator::set_policy(std::unique_ptr<SitePolicy> policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("SiteCoordinator: null policy");
  }
  policy_ = std::move(policy);
}

double SiteCoordinator::health_of(int strikes) noexcept {
  return std::pow(0.5, std::min(strikes, kMaxHealthStrikes));
}

void SiteCoordinator::rebalance() {
  if (members_.empty()) return;
  ++rebalances_;
  const std::uint64_t round = ++round_;
  // Phase 1: read each member's demand via its cluster-status service. The
  // round completes — and apportionment runs — once every member RPC
  // *resolved*: a fresh answer, an error, or the 5 s timeout. Errored and
  // timed-out members resolve with their stale demand and accrue a strike;
  // they must never leave the round incomplete (the stalled-round bug).
  for (Member& m : members_) {
    m.resolved = false;
    flux::Broker& root = m.config.instance->root();
    Member* target = &m;
    root.rpc(
        flux::kRootRank, kClusterStatusTopic, util::Json::object(),
        [this, target, round](const flux::Message& resp) {
          if (resp.is_error()) {
            // Dead or unreachable member: keep the stale demand, count the
            // miss, and shrink its future shares via the strike weight.
            ++member_misses_;
            target->strikes = std::min(target->strikes + 1,
                                       kMaxHealthStrikes);
          } else {
            const double nodes = static_cast<double>(
                resp.payload.int_or("total_allocated_nodes", 0));
            target->demand_w = nodes * target->config.node_peak_w;
            target->strikes = 0;
          }
          // A response from a superseded round (RPC timeout longer than the
          // rebalance period) may update demand/strikes above but must not
          // complete the newer round's barrier.
          if (round != round_) return;
          target->resolved = true;
          // Apportion once every member resolved (answered or timed out).
          if (std::all_of(members_.begin(), members_.end(),
                          [](const Member& mm) { return mm.resolved; })) {
            apportion_and_push();
          }
        },
        /*timeout_s=*/5.0);
  }
}

void SiteCoordinator::apportion_and_push() {
  ++rounds_completed_;

  SiteView view;
  view.now_s = sim_.now();
  view.site_bound_w = site_bound_w_;
  view.effective_bound_w = policy_->effective_bound_w(view.now_s,
                                                      site_bound_w_);
  effective_bound_w_ = view.effective_bound_w;

  std::vector<SiteMemberView> mview(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const Member& m = members_[i];
    mview[i].name = m.config.name;
    mview[i].demand_w = m.demand_w;
    mview[i].floor_w = m.config.floor_w;
    mview[i].node_peak_w = m.config.node_peak_w;
    mview[i].strikes = m.strikes;
    mview[i].health = health_of(m.strikes);
  }

  std::vector<double> shares(members_.size(), 0.0);
  policy_->apportion(view, mview, shares);

  for (std::size_t i = 0; i < members_.size(); ++i) {
    Member& m = members_[i];
    m.share_w = shares[i];
    util::Json payload = util::Json::object();
    payload["bound_w"] = m.share_w;
    m.config.instance->root().rpc(flux::kRootRank, kSetClusterBoundTopic,
                                  std::move(payload), nullptr);
  }

  state_.clear();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const Member& m = members_[i];
    state_.push_back({m.config.name, m.demand_w, m.share_w, m.strikes,
                      mview[i].health});
  }
  if (round_callback_) round_callback_(state_);
}

}  // namespace fluxpower::manager
