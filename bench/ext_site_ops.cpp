// Extension: production-site operations study (roadmap scenario pack).
//
// A heterogeneous federation — a Lassen-like GPU machine, a Tioga-like
// MI250X machine, and an ARM Grace CPU pool — shares one 14 kW facility
// budget for two simulated weeks of diurnally modulated arrivals. Each
// site-apportionment policy replays the *same* workload (same seed, same
// candidate arrival skeleton), so the table isolates the policy decision:
// what the site pays for energy under a time-of-use tariff, how many jobs
// start within their requested deadline (SLO, measured against the
// original submit time — deferral is never free), and how many minutes the
// site spends above its facility bound.
#include <iostream>

#include "bench/common.hpp"
#include "experiments/site_ops.hpp"
#include "manager/site_policy.hpp"
#include "util/table.hpp"

using namespace fluxpower;

int main() {
  bench::banner("Extension",
                "production-site operations: two weeks, three clusters, one "
                "14 kW budget, three site policies");

  experiments::SiteOpsConfig base;
  base.workload.duration_s = 14.0 * 86400.0;
  base.workload.jobs_per_hour_peak = 30.0;
  base.site_bound_w = 14000.0;

  std::printf(
      "federation: lassen (8n AC922) + tioga (6n EX235a) + grace (8n ARM), "
      "%.0f W site bound\n",
      base.site_bound_w);
  std::printf(
      "workload: %.0f days, %.0f jobs/h at the diurnal plateau, %.0f%% "
      "deferrable, %.0f%% eco-enrolled\n",
      base.workload.duration_s / 86400.0, base.workload.jobs_per_hour_peak,
      base.workload.deferrable_frac * 100.0, base.workload.eco_frac * 100.0);
  std::printf(
      "tariff: %.0f / %.0f / %.0f USD/MWh (off-peak / shoulder / peak, "
      "weekday peak %.0f-%.0fh)\n",
      base.tariff.offpeak_usd_mwh, base.tariff.shoulder_usd_mwh,
      base.tariff.peak_usd_mwh, base.tariff.peak_start_h,
      base.tariff.peak_end_h);

  util::TextTable table({"site policy", "jobs", "deferred", "energy MWh",
                         "cost USD", "SLO %", "cap-viol min", "peak kW",
                         "rounds"});
  for (const policy::PolicyInfo& info : manager::site_policies()) {
    experiments::SiteOpsConfig cfg = base;
    cfg.site_policy = info.name;
    const experiments::SiteOpsResult r = experiments::run_site_ops(cfg);
    table.add_row({info.name, bench::num(r.jobs_total, 0),
                   bench::num(r.jobs_deferred, 0),
                   bench::num(r.energy_j / 3.6e9, 3),
                   bench::num(r.energy_cost_usd, 2),
                   bench::num(r.slo_attainment * 100.0, 1),
                   bench::num(r.cap_violation_min, 0),
                   bench::num(r.peak_site_draw_w / 1000.0, 2),
                   bench::num(r.rounds_completed, 0)});
  }
  table.print(std::cout);
  bench::note(
      "shape: tariff-aware-dr buys the lowest energy cost by shifting "
      "deferrable submissions out of the weekday peak window and tightening "
      "the apportioned bound while the price is at its peak tier, at a "
      "small SLO cost; fair-share trades SLO for predictable per-tenant "
      "headroom; demand-proportional is the throughput baseline.");
  return 0;
}
