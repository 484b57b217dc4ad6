// site_policy.hpp — pluggable site-level apportionment policies.
//
// The SiteCoordinator splits one facility budget across federated cluster
// instances. *How* it splits is a policy decision, and the related work
// motivates at least three distinct answers ("Run your HPC jobs in
// Eco-Mode": tariff-aware, user-assisted capping; "Design of an energy
// aware petaflops class high performance cluster": site-level energy
// budgeting):
//
//   * demand-proportional — floors first, spare split proportionally to
//     unmet demand (the coordinator's historical behaviour, byte-identical
//     when every member is healthy);
//   * tariff-aware-dr    — demand-response: the apportioned budget tightens
//     to a fraction of the facility bound while the power price is at its
//     peak tier, and deferrable job submissions are shifted to the next
//     off-peak window;
//   * fair-share         — floors first, spare split evenly across members
//     regardless of demand (predictable headroom per tenant).
//
// All policies receive each member's *health weight* (2^-strikes from the
// coordinator's consecutive-miss tracking) and must shrink an unhealthy
// member's share toward its floor: stale demand from a silent member must
// not keep pinning budget that live members could use.
//
// Determinism contract (same as the scheduler/node policy planes): a policy
// is a pure function of (view, members) — no wall clock, no RNG — so a
// federation run replays byte-identically from its seed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "policy/policy.hpp"

namespace fluxpower::manager {

/// Time-of-use electricity tariff: a deterministic step function of sim
/// time with three tiers. Hours are in local "site time" where t=0 is
/// midnight Monday; weekends (day 5, 6) are off-peak throughout when
/// `weekend_offpeak` is set.
struct TariffConfig {
  double offpeak_usd_mwh = 42.0;
  double shoulder_usd_mwh = 68.0;
  double peak_usd_mwh = 145.0;
  /// Weekday peak window [start, end) in hours-of-day.
  double peak_start_h = 17.0;
  double peak_end_h = 21.0;
  /// Weekday shoulder window [start, end) in hours-of-day; the peak window
  /// is carved out of it. Outside both windows is off-peak.
  double shoulder_start_h = 7.0;
  double shoulder_end_h = 23.0;
  bool weekend_offpeak = true;
};

/// Deterministic price lookup over a TariffConfig.
class PriceSignal {
 public:
  enum class Tier { OffPeak, Shoulder, Peak };

  PriceSignal() = default;
  explicit PriceSignal(TariffConfig config) : config_(config) {}

  Tier tier_at(double t_s) const noexcept;
  double price_usd_per_mwh(double t_s) const noexcept;
  /// $ per watt-second (joule): price / (1e6 W * 3600 s).
  double price_usd_per_ws(double t_s) const noexcept {
    return price_usd_per_mwh(t_s) / 3.6e9;
  }
  /// Earliest time >= t_s whose tier is not Peak (t_s itself if off-peak
  /// already). Used to shift deferrable submissions out of the peak window.
  double next_offpeak_s(double t_s) const noexcept;

  const TariffConfig& config() const noexcept { return config_; }

  static const char* tier_name(Tier tier) noexcept;

 private:
  TariffConfig config_;
};

/// Read-only per-member snapshot a policy apportions from.
struct SiteMemberView {
  std::string name;
  double demand_w = 0.0;     ///< last resolved demand (stale if unhealthy)
  double floor_w = 0.0;      ///< guaranteed minimum share
  double node_peak_w = 0.0;
  int strikes = 0;           ///< consecutive missed rebalance rounds
  double health = 1.0;       ///< 2^-strikes weight (1 = fully healthy)
};

/// Site-wide snapshot for one apportionment round.
struct SiteView {
  double now_s = 0.0;
  double site_bound_w = 0.0;       ///< the facility budget
  double effective_bound_w = 0.0;  ///< what this round may apportion
};

/// Site-level apportionment policy. Implementations must honour floors
/// (share_i >= floor_i) and never hand out more than view.effective_bound_w
/// in total (unless the floors alone already exceed it — floors win).
class SitePolicy {
 public:
  virtual ~SitePolicy() = default;

  virtual const char* name() const noexcept = 0;

  /// Budget this round may apportion; the demand-response hook. Must be in
  /// (0, site_bound_w]. Default: the full facility bound.
  virtual double effective_bound_w(double now_s,
                                   double site_bound_w) const noexcept {
    (void)now_s;
    return site_bound_w;
  }

  /// Fill `shares_w[i]` (pre-sized to members.size()) for every member.
  virtual void apportion(const SiteView& view,
                         const std::vector<SiteMemberView>& members,
                         std::vector<double>& shares_w) const = 0;

  /// Demand-response: should a deferrable job submitted at `now_s` be
  /// shifted? Default: never.
  virtual bool defer_submission(double now_s) const noexcept {
    (void)now_s;
    return false;
  }
  /// When a deferred submission should be released (only consulted after
  /// defer_submission returned true).
  virtual double deferral_release_s(double now_s) const noexcept {
    return now_s;
  }
};

/// Floors first, spare proportional to health-weighted unmet demand; the
/// historical coordinator arithmetic (bit-identical when all health == 1).
std::unique_ptr<SitePolicy> make_demand_proportional_policy();
/// Demand-proportional apportionment over a tariff-tightened bound, with
/// peak-window submission deferral. `peak_bound_factor` scales the site
/// bound while the price tier is Peak (clamped to floors-compatible use by
/// callers choosing sane floors).
std::unique_ptr<SitePolicy> make_tariff_aware_policy(
    PriceSignal signal, double peak_bound_factor = 0.65);
/// Floors first, spare split evenly (health-weighted) across members.
std::unique_ptr<SitePolicy> make_fair_share_policy();

/// Factory by name: "demand-proportional", "tariff-aware-dr" (default
/// tariff), or "fair-share". Throws std::invalid_argument on unknown names,
/// listing the known ones.
std::unique_ptr<SitePolicy> make_site_policy(const std::string& name);
std::unique_ptr<SitePolicy> make_site_policy(const std::string& name,
                                             const TariffConfig& tariff);
/// Catalog for list surfaces (benches, docs, error messages).
std::vector<policy::PolicyInfo> site_policies();

}  // namespace fluxpower::manager
