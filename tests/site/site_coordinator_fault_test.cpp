// Fault-injected regression tests for the site coordinator's round
// lifecycle: a dead or unreachable member must never stall a rebalance
// round. Historically, one errored cluster-status RPC returned before the
// member was marked resolved, so the round's completion barrier never
// tripped, apportion_and_push never ran, and no member ever received a
// share again — the stalled-round bug these tests pin down.
#include "manager/site_coordinator.hpp"

#include <gtest/gtest.h>

#include "apps/launcher.hpp"
#include "faultsim/fault_plane.hpp"
#include "hwsim/cluster.hpp"
#include "manager/power_manager.hpp"

namespace fluxpower::manager {
namespace {

class SiteFaultTest : public ::testing::Test {
 protected:
  struct Site {
    hwsim::Cluster cluster;
    std::unique_ptr<flux::Instance> instance;
    std::unique_ptr<faultsim::FaultPlane> faults;
  };

  std::unique_ptr<Site> make_site(int nodes, bool with_manager,
                                  bool with_faults = false) {
    auto site = std::make_unique<Site>();
    site->cluster =
        hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922, nodes);
    std::vector<hwsim::Node*> ptrs;
    for (int i = 0; i < nodes; ++i) ptrs.push_back(&site->cluster.node(i));
    site->instance = std::make_unique<flux::Instance>(sim_, std::move(ptrs));
    site->instance->jobs().set_launcher(
        apps::make_launcher({.platform = hwsim::Platform::LassenIbmAc922}));
    if (with_manager) {
      PowerManagerConfig cfg;
      cfg.cluster_power_bound_w = 2000.0;
      cfg.node_policy = NodePolicy::DirectGpuBudget;
      site->instance->load_module_on_all<PowerManagerModule>(cfg);
    }
    if (with_faults) {
      site->faults =
          std::make_unique<faultsim::FaultPlane>(faultsim::FaultPlaneConfig{});
      site->faults->attach(*site->instance);
    }
    return site;
  }

  static void submit(Site& site, const char* app, int nnodes,
                     double work_scale) {
    flux::JobSpec spec;
    spec.name = app;
    spec.app = app;
    spec.nnodes = nnodes;
    spec.attributes = util::Json::object();
    spec.attributes["work_scale"] = work_scale;
    site.instance->jobs().submit(spec);
  }

  static double bound_of(Site& site) {
    auto* mod = dynamic_cast<PowerManagerModule*>(
        site.instance->broker(0).find_module("power-manager"));
    return mod != nullptr ? mod->cluster()->bound_w() : -1.0;
  }

  sim::Simulation sim_;
};

// The regression proper: one member has no power-manager module, so every
// cluster-status RPC to it errors (ENOSYS) immediately. The round must
// still complete and the healthy member must still be granted the spare.
// Before the fix this test fails: no round ever completed, members() stayed
// empty, and the live member was stuck at its construction-time bound.
TEST_F(SiteFaultTest, DeadMemberDoesNotStallTheRound) {
  auto live = make_site(4, /*with_manager=*/true);
  auto dead = make_site(2, /*with_manager=*/false);
  SiteCoordinator coord(sim_, 12000.0, 15.0);
  coord.add_member({"live", live->instance.get(), 3050.0, 1000.0});
  coord.add_member({"dead", dead->instance.get(), 3050.0, 1000.0});

  submit(*live, "gemm", 4, 2.0);  // demand 4 x 3050 = 12200 W
  sim_.run_until(50.0);           // three periodic rounds

  // Rounds completed despite the dead member...
  ASSERT_EQ(coord.members().size(), 2u);
  EXPECT_GE(coord.rounds_completed(), 3);
  EXPECT_GE(coord.member_misses(), 3u);
  // ...and the live member holds floor + all spare, not its initial bound.
  EXPECT_NEAR(bound_of(*live), 11000.0, 1.0);
  EXPECT_NEAR(coord.members()[0].share_w + coord.members()[1].share_w,
              12000.0, 1.0);
  // The dead member is pinned at its floor (no demand ever resolved).
  EXPECT_NEAR(coord.members()[1].share_w, 1000.0, 1.0);
}

// Crash (blackholed member): the RPC resolves through the 5 s timeout
// instead of an error response. The member keeps its stale demand, accrues
// strikes that shrink its share toward the floor, and recovers fully on the
// first fresh answer after reboot.
TEST_F(SiteFaultTest, CrashedMemberKeepsStaleDemandAndAccruesStrikes) {
  auto a = make_site(4, /*with_manager=*/true);
  auto b = make_site(4, /*with_manager=*/true, /*with_faults=*/true);
  SiteCoordinator coord(sim_, 12000.0, 15.0);
  coord.add_member({"a", a->instance.get(), 3050.0, 1000.0});
  coord.add_member({"b", b->instance.get(), 3050.0, 1000.0});

  submit(*a, "gemm", 2, 4.0);         // demand 6100 W, long
  submit(*b, "quicksilver", 2, 60.0);  // demand 6100 W, long
  sim_.run_until(20.0);  // one healthy round: symmetric shares
  ASSERT_EQ(coord.members().size(), 2u);
  const double share_healthy = coord.members()[1].share_w;
  EXPECT_NEAR(coord.members()[0].share_w, share_healthy, 1.0);
  EXPECT_DOUBLE_EQ(coord.members()[1].health, 1.0);

  // Kill b's root for 70 s: rounds at t=30/45/60/75 miss it.
  b->faults->force_crash(0, 70.0);
  sim_.run_until(80.0);

  EXPECT_GE(coord.member_misses(), 3u);
  EXPECT_GE(coord.rounds_completed(), 4);  // no round stalled
  const SiteCoordinator::MemberState& down = coord.members()[1];
  EXPECT_GE(down.strikes, 3);
  EXPECT_LE(down.health, 0.125);
  // Stale demand survives; the share shrank toward the floor while the
  // healthy member absorbed the spare.
  EXPECT_NEAR(down.demand_w, 6100.0, 1.0);
  EXPECT_LT(down.share_w, share_healthy);
  EXPECT_GE(down.share_w, 1000.0);
  EXPECT_GT(coord.members()[0].share_w, share_healthy);

  // Reboot happened at ~t=90; the next fresh answer clears the strikes.
  sim_.run_until(130.0);
  EXPECT_EQ(coord.members()[1].strikes, 0);
  EXPECT_DOUBLE_EQ(coord.members()[1].health, 1.0);
}

// Pathological configuration: RPC timeout (5 s) longer than the rebalance
// period. Responses from superseded rounds may update demand but must not
// complete a newer round's barrier, so the coordinator never double-counts
// completions or pushes twice per round.
TEST_F(SiteFaultTest, StaleRoundResponsesNeverCompleteNewerRounds) {
  auto a = make_site(2, /*with_manager=*/true);
  auto b = make_site(2, /*with_manager=*/true, /*with_faults=*/true);
  SiteCoordinator coord(sim_, 8000.0, 2.0);  // period < timeout
  coord.add_member({"a", a->instance.get(), 3050.0, 500.0});
  coord.add_member({"b", b->instance.get(), 3050.0, 500.0});
  b->faults->force_crash(0, 1000.0);

  int pushes = 0;
  coord.set_round_callback(
      [&pushes](const std::vector<SiteCoordinator::MemberState>&) {
        ++pushes;
      });
  sim_.run_until(60.0);

  // Every completion corresponds to exactly one distinct round.
  EXPECT_EQ(pushes, coord.rounds_completed());
  EXPECT_LE(coord.rounds_completed(), coord.rebalances());
}

}  // namespace
}  // namespace fluxpower::manager
