// site_coordinator.hpp — multi-instance (converged computing) power
// coordination.
//
// The paper's future work targets "diverse job queues in converged
// computing setups" (§VI): sites increasingly run an HPC cluster and a
// cloud/Kubernetes pool behind one facility power budget. The coordinator
// sits above multiple Flux instances (each running its own
// flux-power-manager) and periodically re-apportions the site budget
// through a pluggable SitePolicy (demand-proportional by default):
//
//   share_i  ∝  demand_i = min(nodes_allocated_i x node_peak_i, bound need)
//
// with a guaranteed floor per member so an idle instance can still accept
// work instantly. Communication is exclusively through each instance's
// power-manager RPC surface (`cluster-status` to read demand,
// `set-cluster-bound` to write shares) — the coordinator needs no private
// hooks, so it would work equally against remote instances.
//
// Fault semantics (the production-hardening this type grew out of): a
// rebalance round completes once every member RPC *resolved* — answered,
// errored, or timed out. An unreachable member keeps its last observed
// (stale) demand and accrues a consecutive-miss strike; strikes halve the
// member's health weight (2^-strikes, floored), which every site policy
// uses to shrink the silent member's share toward its floor. The first
// fresh answer clears the strikes. A dead member can therefore never stall
// the round — the historical bug where one errored RPC left the round
// forever incomplete is regression-tested in tests/site/.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flux/instance.hpp"
#include "manager/site_policy.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::manager {

class SiteCoordinator {
 public:
  struct MemberConfig {
    std::string name;
    flux::Instance* instance = nullptr;
    double node_peak_w = 3050.0;
    /// Minimum budget this member always keeps (headroom for arrivals).
    double floor_w = 0.0;
  };

  /// `site_bound_w` is the facility-level budget split across members;
  /// shares are recomputed every `period_s` seconds. The default policy is
  /// demand-proportional (the historical arithmetic, byte-identical while
  /// every member stays healthy).
  SiteCoordinator(sim::Simulation& sim, double site_bound_w,
                  double period_s = 30.0);
  ~SiteCoordinator();

  SiteCoordinator(const SiteCoordinator&) = delete;
  SiteCoordinator& operator=(const SiteCoordinator&) = delete;

  void add_member(MemberConfig member);

  /// Install an apportionment policy (never null). Takes effect from the
  /// next round; does not touch shares already pushed.
  void set_policy(std::unique_ptr<SitePolicy> policy);
  const SitePolicy& policy() const noexcept { return *policy_; }

  /// Trigger one rebalance immediately (also runs periodically).
  void rebalance();

  double site_bound_w() const noexcept { return site_bound_w_; }
  /// The bound the last completed round apportioned (demand-response may
  /// tighten it below site_bound_w at peak tariff). site_bound_w before
  /// any round completed.
  double effective_bound_w() const noexcept { return effective_bound_w_; }

  struct MemberState {
    std::string name;
    double demand_w = 0.0;  ///< last observed demand
    double share_w = 0.0;   ///< last pushed bound
    int strikes = 0;        ///< consecutive missed rounds (0 = healthy)
    double health = 1.0;    ///< 2^-strikes weight applied by policies
  };
  const std::vector<MemberState>& members() const noexcept { return state_; }
  int rebalances() const noexcept { return rebalances_; }
  /// Rounds whose apportionment actually ran (== rebalances() unless a
  /// round is still collecting demand).
  int rounds_completed() const noexcept { return rounds_completed_; }
  /// Member RPCs that resolved by error or timeout (stale demand kept).
  std::uint64_t member_misses() const noexcept { return member_misses_; }

  /// Test/bench hook: called after each completed round with the fresh
  /// member states (after shares were pushed).
  void set_round_callback(std::function<void(const std::vector<MemberState>&)>
                              callback) {
    round_callback_ = std::move(callback);
  }

  /// Health floor: strikes are capped here so one fresh answer always
  /// recovers a finite weight (2^-6 by default).
  static constexpr int kMaxHealthStrikes = 6;

 private:
  struct Member {
    MemberConfig config;
    double demand_w = 0.0;
    double share_w = 0.0;
    bool resolved = false;  ///< this round's RPC answered, errored, or timed out
    int strikes = 0;
  };

  void apportion_and_push();
  static double health_of(int strikes) noexcept;

  sim::Simulation& sim_;
  double site_bound_w_;
  double effective_bound_w_;
  std::unique_ptr<SitePolicy> policy_;
  std::vector<Member> members_;
  std::vector<MemberState> state_;
  std::unique_ptr<sim::PeriodicTask> ticker_;
  std::function<void(const std::vector<MemberState>&)> round_callback_;
  int rebalances_ = 0;
  int rounds_completed_ = 0;
  std::uint64_t member_misses_ = 0;
  /// Round generation: responses carry the round they belong to, so a
  /// response outliving its round (possible only if the RPC timeout
  /// exceeds the rebalance period) can never complete a newer round.
  std::uint64_t round_ = 0;
};

}  // namespace fluxpower::manager
