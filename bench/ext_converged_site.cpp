// Extension: converged-computing site coordination (paper future work,
// §VI: "studying diverse job queues in converged computing setups").
//
// One facility budget (20 kW) feeds two independent Flux instances: an
// 8-node HPC partition running long MPI jobs and a 8-node cloud partition
// running short bursty jobs. The SiteCoordinator reads each instance's
// power-manager status every 15 s and re-apportions the budget by demand;
// each instance's own proportional-sharing manager then splits its share
// across jobs. The timeline shows power following the load across
// partitions.
#include <iostream>
#include <stdexcept>

#include "apps/launcher.hpp"
#include "bench/common.hpp"
#include "hwsim/cluster.hpp"
#include "manager/power_manager.hpp"
#include "manager/site_coordinator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace fluxpower;

namespace {

struct Site {
  std::string name;
  hwsim::Cluster cluster;
  std::unique_ptr<flux::Instance> instance;
};

std::unique_ptr<Site> make_site(sim::Simulation& sim, const std::string& name,
                                int nodes) {
  auto site = std::make_unique<Site>();
  site->name = name;
  site->cluster = hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922,
                                      nodes, name);
  std::vector<hwsim::Node*> ptrs;
  for (int i = 0; i < nodes; ++i) ptrs.push_back(&site->cluster.node(i));
  site->instance = std::make_unique<flux::Instance>(sim, std::move(ptrs));
  site->instance->jobs().set_launcher(apps::make_launcher(
      {.platform = hwsim::Platform::LassenIbmAc922}));
  manager::PowerManagerConfig cfg;
  cfg.cluster_power_bound_w = 2000.0;  // placeholder until coordinated
  cfg.node_policy = manager::NodePolicy::DirectGpuBudget;
  site->instance->load_module_on_all<manager::PowerManagerModule>(cfg);
  return site;
}

void submit(Site& site, apps::AppKind kind, int nnodes, double scale) {
  flux::JobSpec spec;
  spec.name = apps::app_kind_name(kind);
  spec.app = apps::app_kind_name(kind);
  spec.nnodes = nnodes;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = scale;
  site.instance->jobs().submit(spec);
}

}  // namespace

int main() {
  bench::banner("Extension",
                "converged-computing site: one 20 kW budget over an HPC and "
                "a cloud partition");

  sim::Simulation sim;
  auto hpc = make_site(sim, "hpc", 8);
  auto cloud = make_site(sim, "cloud", 8);

  manager::SiteCoordinator coord(sim, 20000.0, 15.0);
  coord.add_member({"hpc", hpc->instance.get(), 3050.0, 2000.0});
  coord.add_member({"cloud", cloud->instance.get(), 3050.0, 2000.0});

  // HPC: one long GEMM campaign from t=0.
  sim.schedule_at(0.0, [&] { submit(*hpc, apps::AppKind::Gemm, 6, 2.2); });
  // Cloud: bursts of short jobs arriving between t=150 and t=400.
  util::Rng rng(7);
  double t = 150.0;
  while (t < 400.0) {
    sim.schedule_at(t, [&cloud] {
      submit(*cloud, apps::AppKind::Quicksilver, 2, 6.0);
      submit(*cloud, apps::AppKind::Laghos, 2, 8.0);
    });
    t += rng.uniform(60.0, 120.0);
  }

  util::TextTable table({"t (s)", "hpc bound W", "hpc draw W", "cloud bound W",
                         "cloud draw W", "site draw W"});
  auto bound_of = [](Site& s) {
    auto* mod = dynamic_cast<manager::PowerManagerModule*>(
        s.instance->broker(0).find_module("power-manager"));
    if (mod == nullptr) {
      throw std::runtime_error("ext_converged_site: site '" + s.name +
                               "' has no power-manager module loaded");
    }
    return mod->cluster()->bound_w();
  };
  sim::PeriodicTask recorder(sim, 30.0, [&] {
    const double hw = hpc->cluster.total_draw_w();
    const double cw = cloud->cluster.total_draw_w();
    table.add_row({bench::num(sim.now(), 0), bench::num(bound_of(*hpc), 0),
                   bench::num(hw, 0), bench::num(bound_of(*cloud), 0),
                   bench::num(cw, 0), bench::num(hw + cw, 0)});
    return sim.now() < 700.0;
  });
  sim.run_until(720.0);
  table.print(std::cout);

  std::printf("rebalances performed: %d\n", coord.rebalances());
  bench::note(
      "shape: the HPC partition holds nearly the whole budget until the "
      "cloud burst arrives (~t=150 s); the coordinator shifts power to the "
      "cloud partition and returns it as bursts drain. Site draw stays "
      "under 20 kW throughout.");
  return 0;
}
