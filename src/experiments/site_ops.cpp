#include "experiments/site_ops.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "apps/launcher.hpp"
#include "apps/workload.hpp"
#include "flux/instance.hpp"
#include "manager/power_manager.hpp"
#include "manager/site_coordinator.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::experiments {

std::vector<SiteMemberSpec> default_site_members() {
  std::vector<SiteMemberSpec> members(3);

  SiteMemberSpec& lassen = members[0];
  lassen.name = "lassen";
  lassen.platform = hwsim::Platform::LassenIbmAc922;
  lassen.nodes = 8;
  lassen.node_peak_w = 3050.0;
  lassen.floor_w = 4000.0;
  lassen.workload.kinds = {apps::AppKind::Gemm,        apps::AppKind::Laghos,
                           apps::AppKind::Quicksilver, apps::AppKind::Lammps,
                           apps::AppKind::Sw4lite,     apps::AppKind::Kripke};
  lassen.workload.arrival_weight = 0.45;
  lassen.workload.max_nodes = 4;

  SiteMemberSpec& tioga = members[1];
  tioga.name = "tioga";
  tioga.platform = hwsim::Platform::TiogaCrayEx235a;
  tioga.nodes = 6;
  tioga.node_peak_w = 2000.0;
  tioga.floor_w = 2500.0;
  // No Sw4lite (no HIP variant) and no Kripke (fails on Tioga), §V.
  tioga.workload.kinds = {apps::AppKind::Gemm, apps::AppKind::Laghos,
                          apps::AppKind::Quicksilver, apps::AppKind::Lammps};
  tioga.workload.arrival_weight = 0.30;
  tioga.workload.max_nodes = 3;

  SiteMemberSpec& grace = members[2];
  grace.name = "grace";
  grace.platform = hwsim::Platform::GenericArmGrace;
  grace.nodes = 8;
  grace.node_peak_w = 650.0;
  grace.floor_w = 1000.0;
  grace.workload.kinds = {apps::AppKind::Laghos, apps::AppKind::Quicksilver,
                          apps::AppKind::Lammps, apps::AppKind::NQueens};
  grace.workload.arrival_weight = 0.25;
  grace.workload.max_nodes = 4;

  return members;
}

namespace {

/// Everything one federation member owns at run time.
struct MemberRuntime {
  SiteMemberSpec spec;
  hwsim::Cluster cluster;
  std::unique_ptr<flux::Instance> instance;
  /// Instance-local job id -> index into the tracked-job table.
  std::map<flux::JobId, std::size_t> by_id;
};

struct TrackedJob {
  SiteJobSpec spec;
  double actual_submit_s = 0.0;  ///< after any demand-response deferral
  double t_start = -1.0;
  bool started = false;
  bool done = false;
};

}  // namespace

SiteOpsResult run_site_ops(const SiteOpsConfig& config) {
  SiteOpsConfig cfg = config;
  if (cfg.members.empty()) cfg.members = default_site_members();
  if (cfg.site_bound_w <= 0.0 || cfg.rebalance_period_s <= 0.0 ||
      cfg.record_period_s <= 0.0) {
    throw std::invalid_argument("run_site_ops: nonpositive bound or period");
  }

  // The site policy drives both the coordinator's apportionment and the
  // submission-side deferral decisions (one object, one tariff clock).
  std::unique_ptr<manager::SitePolicy> policy =
      manager::make_site_policy(cfg.site_policy, cfg.tariff);
  const manager::PriceSignal price{cfg.tariff};

  // Generate the arrival stream before any simulation state exists: the
  // workload is a pure function of (config, member shapes).
  std::vector<MemberWorkload> shapes;
  shapes.reserve(cfg.members.size());
  for (const SiteMemberSpec& m : cfg.members) {
    MemberWorkload shape = m.workload;
    shape.platform = m.platform;
    shape.max_nodes = std::min(shape.max_nodes, m.nodes);
    shapes.push_back(std::move(shape));
  }
  const std::vector<SiteJobSpec> arrivals =
      make_site_workload(cfg.workload, shapes);

  sim::Simulation sim;

  std::vector<std::unique_ptr<MemberRuntime>> members;
  members.reserve(cfg.members.size());
  for (const SiteMemberSpec& spec : cfg.members) {
    auto m = std::make_unique<MemberRuntime>();
    m->spec = spec;
    m->cluster = hwsim::make_cluster(sim, spec.platform, spec.nodes, spec.name);
    std::vector<hwsim::Node*> nodes;
    nodes.reserve(static_cast<std::size_t>(spec.nodes));
    for (int i = 0; i < spec.nodes; ++i) nodes.push_back(&m->cluster.node(i));
    m->instance = std::make_unique<flux::Instance>(sim, std::move(nodes));

    apps::LauncherOptions lopts;
    lopts.platform = spec.platform;
    lopts.step_s = cfg.app_step_s;
    m->instance->jobs().set_launcher(apps::make_launcher(lopts));

    manager::PowerManagerConfig pm;
    // The coordinator pushes real shares from the first rebalance; until
    // then the member runs against its floor (conservative, deterministic).
    pm.cluster_power_bound_w =
        spec.floor_w > 0.0 ? spec.floor_w : spec.node_peak_w * spec.nodes;
    pm.node_peak_w = spec.node_peak_w;
    pm.node_policy = manager::NodePolicy::DirectGpuBudget;
    m->instance->load_module_on_all<manager::PowerManagerModule>(pm);

    if (!cfg.sched_policy.empty()) {
      m->instance->scheduler().set_policy(cfg.sched_policy);
    }
    members.push_back(std::move(m));
  }

  // Track starts/completions through the same public job events any Flux
  // tool would consume.
  std::vector<TrackedJob> tracked;
  tracked.reserve(arrivals.size());
  int completed = 0;
  for (auto& m : members) {
    MemberRuntime* mp = m.get();
    mp->instance->root().subscribe_event(
        "job.state-run", [mp, &tracked, &sim](const flux::Message& msg) {
          const auto id = static_cast<flux::JobId>(msg.payload.int_or("id", 0));
          const auto it = mp->by_id.find(id);
          if (it == mp->by_id.end()) return;
          TrackedJob& t = tracked[it->second];
          t.started = true;
          t.t_start = sim.now();
        });
    mp->instance->root().subscribe_event(
        "job.state-inactive",
        [mp, &tracked, &completed](const flux::Message& msg) {
          const auto id = static_cast<flux::JobId>(msg.payload.int_or("id", 0));
          const auto it = mp->by_id.find(id);
          if (it == mp->by_id.end()) return;
          TrackedJob& t = tracked[it->second];
          if (t.done) return;
          t.done = true;
          ++completed;
        });
  }

  // Schedule every submission. Deferral is decided against the *original*
  // submit time (the moment the user would have submitted); SLO clocks keep
  // running from that moment too, so shifting is never free.
  int jobs_deferred = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const SiteJobSpec& j = arrivals[i];
    TrackedJob t;
    t.spec = j;
    t.actual_submit_s = j.submit_time_s;
    if (j.deferrable && policy->defer_submission(j.submit_time_s)) {
      t.actual_submit_s = policy->deferral_release_s(j.submit_time_s);
      if (t.actual_submit_s > j.submit_time_s) ++jobs_deferred;
    }
    MemberRuntime* mp = members[static_cast<std::size_t>(j.member)].get();
    tracked.push_back(t);
    sim.schedule_at(t.actual_submit_s, [mp, i, &arrivals] {
      const SiteJobSpec& job = arrivals[i];
      const flux::JobSpec spec =
          apps::make_jobspec(job.kind, mp->spec.platform, job.nnodes,
                             job.work_scale, job.eco_tolerance);
      const flux::JobId id = mp->instance->jobs().submit(spec);
      mp->by_id[id] = i;
    });
  }

  manager::SiteCoordinator coord(sim, cfg.site_bound_w,
                                 cfg.rebalance_period_s);
  for (auto& m : members) {
    coord.add_member({m->spec.name, m->instance.get(), m->spec.node_peak_w,
                      m->spec.floor_w});
  }
  coord.set_policy(std::move(policy));

  // Operator scorecard: tariff-priced energy cost, facility-bound
  // violations, draw statistics.
  double cost_usd = 0.0;
  double violation_min = 0.0;
  double peak_draw = 0.0;
  double draw_sum = 0.0;
  std::size_t draw_ticks = 0;
  sim::PeriodicTask recorder(
      sim, cfg.record_period_s,
      [&] {
        double draw = 0.0;
        for (auto& m : members) draw += m->cluster.total_draw_w();
        cost_usd += draw * cfg.record_period_s *
                    price.price_usd_per_ws(sim.now());
        if (draw > cfg.site_bound_w) {
          violation_min += cfg.record_period_s / 60.0;
        }
        peak_draw = std::max(peak_draw, draw);
        draw_sum += draw;
        ++draw_ticks;
        return true;
      },
      /*initial_delay=*/0.0);

  const double max_time_s = cfg.max_time_s > 0.0
                                ? cfg.max_time_s
                                : cfg.workload.duration_s + 2.0 * 86400.0;
  const int expected = static_cast<int>(tracked.size());
  while (completed < expected && sim.now() < max_time_s) {
    if (!sim.step()) break;
  }

  SiteOpsResult result;
  result.site_policy = cfg.site_policy;
  result.jobs_total = expected;
  result.jobs_deferred = jobs_deferred;
  for (const TrackedJob& t : tracked) {
    if (t.started) ++result.jobs_started;
    if (t.done) ++result.jobs_completed;
    if (t.started &&
        t.t_start - t.spec.submit_time_s <= t.spec.start_deadline_s) {
      ++result.slo_met;
    }
  }
  result.slo_attainment =
      expected > 0 ? static_cast<double>(result.slo_met) / expected : 0.0;
  for (auto& m : members) {
    SiteMemberStats stats;
    stats.name = m->spec.name;
    stats.jobs = static_cast<int>(m->by_id.size());
    for (const auto& [id, index] : m->by_id) {
      if (tracked[index].done) ++stats.completed;
    }
    stats.energy_j = m->cluster.total_energy_joules();
    result.energy_j += stats.energy_j;
    result.members.push_back(std::move(stats));
  }
  result.energy_cost_usd = cost_usd;
  result.cap_violation_min = violation_min;
  result.peak_site_draw_w = peak_draw;
  result.avg_site_draw_w =
      draw_ticks > 0 ? draw_sum / static_cast<double>(draw_ticks) : 0.0;
  result.rebalances = coord.rebalances();
  result.rounds_completed = coord.rounds_completed();
  result.member_misses = coord.member_misses();
  result.end_s = sim.now();
  return result;
}

}  // namespace fluxpower::experiments
