// Tests for the converged-computing site coordinator.
#include "manager/site_coordinator.hpp"

#include <gtest/gtest.h>

#include "apps/launcher.hpp"
#include "hwsim/cluster.hpp"
#include "manager/power_manager.hpp"

namespace fluxpower::manager {
namespace {

class SiteCoordinatorTest : public ::testing::Test {
 protected:
  struct Site {
    hwsim::Cluster cluster;
    std::unique_ptr<flux::Instance> instance;
  };

  std::unique_ptr<Site> make_site(int nodes, double initial_bound) {
    auto site = std::make_unique<Site>();
    site->cluster =
        hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922, nodes);
    std::vector<hwsim::Node*> ptrs;
    for (int i = 0; i < nodes; ++i) ptrs.push_back(&site->cluster.node(i));
    site->instance = std::make_unique<flux::Instance>(sim_, std::move(ptrs));
    site->instance->jobs().set_launcher(apps::make_launcher(
        {.platform = hwsim::Platform::LassenIbmAc922}));
    PowerManagerConfig cfg;
    cfg.cluster_power_bound_w = initial_bound;
    cfg.node_policy = NodePolicy::DirectGpuBudget;
    site->instance->load_module_on_all<PowerManagerModule>(cfg);
    return site;
  }

  static flux::JobId submit(Site& site, const char* app, int nnodes,
                            double work_scale) {
    flux::JobSpec spec;
    spec.name = app;
    spec.app = app;
    spec.nnodes = nnodes;
    spec.attributes = util::Json::object();
    spec.attributes["work_scale"] = work_scale;
    return site.instance->jobs().submit(spec);
  }

  static double bound_of(Site& site) {
    auto* mod = dynamic_cast<PowerManagerModule*>(
        site.instance->broker(0).find_module("power-manager"));
    return mod->cluster()->bound_w();
  }

  sim::Simulation sim_;
};

TEST_F(SiteCoordinatorTest, ConstructionValidation) {
  EXPECT_THROW(SiteCoordinator(sim_, 0.0), std::invalid_argument);
  EXPECT_THROW(SiteCoordinator(sim_, 1000.0, 0.0), std::invalid_argument);
  SiteCoordinator coord(sim_, 1000.0);
  EXPECT_THROW(coord.add_member({"x", nullptr, 3050.0, 0.0}),
               std::invalid_argument);
}

TEST_F(SiteCoordinatorTest, IdleMembersSplitEvenly) {
  auto a = make_site(4, 2000.0);
  auto b = make_site(4, 2000.0);
  SiteCoordinator coord(sim_, 12000.0, 30.0);
  coord.add_member({"hpc", a->instance.get(), 3050.0, 1000.0});
  coord.add_member({"cloud", b->instance.get(), 3050.0, 1000.0});
  coord.rebalance();
  sim_.run_until(1.0);
  // Floors 1000 each + spare 10000 split evenly.
  EXPECT_NEAR(bound_of(*a), 6000.0, 1.0);
  EXPECT_NEAR(bound_of(*b), 6000.0, 1.0);
}

TEST_F(SiteCoordinatorTest, BusyMemberGetsTheSpare) {
  auto a = make_site(4, 2000.0);
  auto b = make_site(4, 2000.0);
  SiteCoordinator coord(sim_, 12000.0, 30.0);
  coord.add_member({"hpc", a->instance.get(), 3050.0, 1000.0});
  coord.add_member({"cloud", b->instance.get(), 3050.0, 1000.0});

  submit(*a, "gemm", 4, 2.0);  // demand 4 x 3050 = 12200 W
  sim_.run_until(35.0);        // one periodic rebalance

  // hpc gets floor + all spare; cloud keeps its floor.
  EXPECT_NEAR(bound_of(*a), 11000.0, 1.0);
  EXPECT_NEAR(bound_of(*b), 1000.0, 1.0);
  ASSERT_EQ(coord.members().size(), 2u);
  EXPECT_GT(coord.members()[0].demand_w, 0.0);
  EXPECT_DOUBLE_EQ(coord.members()[1].demand_w, 0.0);
}

TEST_F(SiteCoordinatorTest, SharesSumToSiteBound) {
  auto a = make_site(4, 2000.0);
  auto b = make_site(2, 2000.0);
  SiteCoordinator coord(sim_, 9000.0, 20.0);
  coord.add_member({"hpc", a->instance.get(), 3050.0, 500.0});
  coord.add_member({"cloud", b->instance.get(), 3050.0, 500.0});
  submit(*a, "gemm", 3, 2.0);
  submit(*b, "quicksilver", 2, 20.0);
  sim_.run_until(65.0);
  double total = 0.0;
  for (const auto& m : coord.members()) total += m.share_w;
  EXPECT_NEAR(total, 9000.0, 1.0);
  EXPECT_GE(coord.rebalances(), 3);
}

TEST_F(SiteCoordinatorTest, PowerShiftsBackWhenJobEnds) {
  auto a = make_site(4, 2000.0);
  auto b = make_site(4, 2000.0);
  SiteCoordinator coord(sim_, 12000.0, 15.0);
  coord.add_member({"hpc", a->instance.get(), 3050.0, 1000.0});
  coord.add_member({"cloud", b->instance.get(), 3050.0, 1000.0});

  const flux::JobId id = submit(*a, "laghos", 4, 4.0);  // ~50 s
  sim_.run_until(20.0);
  EXPECT_GT(bound_of(*a), bound_of(*b));

  while (!a->instance->jobs().job(id).done() && sim_.step()) {
  }
  // Submit on the cloud side; after the next rebalances it holds the spare.
  submit(*b, "quicksilver", 4, 30.0);
  sim_.run_until(sim_.now() + 40.0);
  EXPECT_GT(bound_of(*b), bound_of(*a));
}

TEST_F(SiteCoordinatorTest, ProportionalSplitUnderContention) {
  auto a = make_site(6, 2000.0);
  auto b = make_site(2, 2000.0);
  SiteCoordinator coord(sim_, 10000.0, 20.0);
  coord.add_member({"hpc", a->instance.get(), 3050.0, 500.0});
  coord.add_member({"cloud", b->instance.get(), 3050.0, 500.0});
  submit(*a, "gemm", 6, 2.0);         // demand 18300
  submit(*b, "quicksilver", 2, 30.0);  // demand 6100
  sim_.run_until(25.0);
  // Unmet demand ratio (18300-500):(6100-500) = 17800:5600 over 9000 spare.
  const double expect_a = 500.0 + 9000.0 * 17800.0 / 23400.0;
  const double expect_b = 500.0 + 9000.0 * 5600.0 / 23400.0;
  EXPECT_NEAR(bound_of(*a), expect_a, 5.0);
  EXPECT_NEAR(bound_of(*b), expect_b, 5.0);
}

}  // namespace
}  // namespace fluxpower::manager
