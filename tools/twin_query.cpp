// twin-query — digital-twin what-if console.
//
// Builds a scenario, runs it to a snapshot instant, then serves what-if
// queries against the frozen state: budget drops, budget scaling, node
// deaths. Each query forks the snapshot copy-on-write, injects the
// perturbation, fast-forwards the fork to completion on a worker pool, and
// prints the typed deltas (energy, makespan, peak draw, bound overshoot)
// against the unperturbed baseline.
//
//   twin-query --nodes 8 --bound 9600 --snapshot-at 120 \
//       --job gemm:6:1.2 --job lammps:2:1.5:15 \
//       --what-if budget=0.8@150 --what-if kill=3@180:60 \
//       --what-if budget-w=6000@150 [--workers 4] [--chaos-seed N]
//
// What-if syntax:
//   budget=F@T       scale the cluster bound by factor F at time T
//   budget-w=W@T     set the cluster bound to W watts at time T
//   kill=R@T[:D]     crash node rank R at time T (down D seconds, def. 60)
// Values and times must be finite, T no earlier than --snapshot-at and D
// non-negative.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "parse_number.hpp"
#include "twin/server.hpp"

using namespace fluxpower;

[[noreturn]] void tools::usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s [options] --job app:nnodes[:scale[:t0]] "
               "--what-if SPEC [--what-if ...]\n"
               "options:\n"
               "  --nodes N            cluster size (default 8)\n"
               "  --bound WATTS        cluster power bound (default 9600)\n"
               "  --snapshot-at T      freeze the twin at sim time T (default 120)\n"
               "  --max-time T         simulation deadline (default 2400)\n"
               "  --workers N          query worker threads (default 4)\n"
               "  --chaos-seed N       enable the fault plane with seed N\n"
               "what-if specs:\n"
               "  budget=F@T           scale cluster bound by F at time T\n"
               "  budget-w=W@T         set cluster bound to W watts at time T\n"
               "  kill=R@T[:D]         crash rank R at T for D seconds (default 60)\n"
               "  (F, W, T and D finite, T >= --snapshot-at, D >= 0)\n",
               argv0);
  std::exit(2);
}

namespace {

using tools::parse_number;
using tools::usage;

apps::AppKind parse_app(const std::string& s, const char* argv0) {
  if (s == "lammps") return apps::AppKind::Lammps;
  if (s == "gemm") return apps::AppKind::Gemm;
  if (s == "quicksilver") return apps::AppKind::Quicksilver;
  if (s == "laghos") return apps::AppKind::Laghos;
  if (s == "nqueens") return apps::AppKind::NQueens;
  if (s == "kripke") return apps::AppKind::Kripke;
  usage(argv0, "unknown app " + s);
}

experiments::JobRequest parse_job(const std::string& spec, const char* argv0) {
  experiments::JobRequest req;
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() < 2 || parts.size() > 4) usage(argv0, "bad job " + spec);
  req.kind = parse_app(parts[0], argv0);
  req.nnodes = parse_number<int>("--job nnodes", parts[1], argv0);
  if (parts.size() > 2) {
    req.work_scale = parse_number<double>("--job work_scale", parts[2], argv0);
  }
  if (parts.size() > 3) {
    req.submit_time_s =
        parse_number<double>("--job submit time", parts[3], argv0);
  }
  if (req.nnodes <= 0) usage(argv0, "bad nnodes in " + spec);
  if (!(req.work_scale > 0.0) || !std::isfinite(req.work_scale)) {
    usage(argv0, "work_scale must be positive and finite in " + spec);
  }
  if (!(req.submit_time_s >= 0.0) || !std::isfinite(req.submit_time_s)) {
    usage(argv0, "submit time must be non-negative and finite in " + spec);
  }
  return req;
}

twin::WhatIfQuery parse_what_if(const std::string& spec, const char* argv0) {
  const std::size_t eq = spec.find('=');
  const std::size_t at = spec.find('@');
  if (eq == std::string::npos || at == std::string::npos || at < eq) {
    usage(argv0, "bad what-if " + spec);
  }
  const std::string kind = spec.substr(0, eq);
  const std::string value = spec.substr(eq + 1, at - eq - 1);
  std::string when = spec.substr(at + 1);

  twin::WhatIfQuery q;
  q.label = spec;
  twin::Perturbation p;
  if (kind == "budget") {
    p.kind = twin::Perturbation::Kind::BudgetScale;
    p.value = parse_number<double>("what-if factor", value, argv0);
  } else if (kind == "budget-w") {
    p.kind = twin::Perturbation::Kind::BudgetSet;
    p.value = parse_number<double>("what-if watts", value, argv0);
  } else if (kind == "kill") {
    p.kind = twin::Perturbation::Kind::NodeKill;
    p.rank = parse_number<int>("what-if rank", value, argv0);
    const std::size_t colon = when.find(':');
    if (colon != std::string::npos) {
      p.down_s = parse_number<double>("what-if down time",
                                      when.substr(colon + 1), argv0);
      when.resize(colon);
    } else {
      p.down_s = 60.0;
    }
    if (!(p.down_s >= 0.0) || !std::isfinite(p.down_s)) {
      usage(argv0, "down time must be non-negative and finite in " + spec);
    }
  } else {
    usage(argv0, "unknown what-if kind " + kind);
  }
  // A NaN bound would act as no bound at all.
  if (!std::isfinite(p.value)) {
    usage(argv0, "value must be finite in " + spec);
  }
  p.at_s = parse_number<double>("what-if time", when, argv0);
  if (!std::isfinite(p.at_s)) usage(argv0, "time must be finite in " + spec);
  q.perturbations.push_back(p);
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  twin::TwinSpec spec;
  spec.scenario.nodes = 8;
  spec.scenario.load_manager = true;
  spec.scenario.manager.cluster_power_bound_w = 9600.0;
  spec.scenario.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  spec.max_time_s = 2400.0;
  double snapshot_at = 120.0;
  int workers = 4;
  std::vector<twin::WhatIfQuery> queries;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], arg + " needs a value");
      return argv[++i];
    };
    auto number = [&]<typename T>(T& out) {
      out = parse_number<T>(arg, next(), argv[0]);
    };
    if (arg == "--nodes") {
      number(spec.scenario.nodes);
    } else if (arg == "--bound") {
      number(spec.scenario.manager.cluster_power_bound_w);
    } else if (arg == "--snapshot-at") {
      number(snapshot_at);
    } else if (arg == "--max-time") {
      number(spec.max_time_s);
    } else if (arg == "--workers") {
      number(workers);
    } else if (arg == "--chaos-seed") {
      faultsim::FaultPlaneConfig f;
      number(f.seed);
      f.msg_drop_rate = 0.05;
      f.node_mtbf_s = 400.0;
      f.node_reboot_s = 20.0;
      f.cap_write_failure_rate = 0.1;
      spec.scenario.faults = f;
    } else if (arg == "--job") {
      spec.jobs.push_back(parse_job(next(), argv[0]));
    } else if (arg == "--what-if") {
      queries.push_back(parse_what_if(next(), argv[0]));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      usage(argv[0], "unknown option " + arg);
    }
  }
  if (spec.jobs.empty()) usage(argv[0], "at least one --job required");
  if (queries.empty()) usage(argv[0], "at least one --what-if required");
  // Inputs the scenario cannot run are usage errors, not aborts mid-run.
  const int nodes = spec.scenario.nodes;
  if (nodes <= 0) usage(argv[0], "--nodes must be positive");
  if (!(snapshot_at >= 0.0) || !std::isfinite(snapshot_at)) {
    usage(argv[0], "--snapshot-at must be non-negative and finite");
  }
  for (const experiments::JobRequest& job : spec.jobs) {
    if (job.nnodes > nodes) {
      usage(argv[0], "a job needs " + std::to_string(job.nnodes) +
                         " nodes but the cluster has " + std::to_string(nodes));
    }
  }
  for (const twin::WhatIfQuery& q : queries) {
    for (const twin::Perturbation& p : q.perturbations) {
      if (p.kind == twin::Perturbation::Kind::NodeKill &&
          (p.rank < 0 || p.rank >= nodes)) {
        usage(argv[0], q.label + ": rank outside [0, " +
                           std::to_string(nodes) + ")");
      }
      // The twin cannot rewrite the past it restored.
      if (p.at_s < snapshot_at) {
        char at[32];
        std::snprintf(at, sizeof at, "%g", snapshot_at);
        usage(argv[0],
              q.label + ": time before the snapshot at " + at + " s");
      }
    }
  }

  std::printf("twin: %d nodes, bound %.0f W, %zu jobs; freezing at t=%.1f s\n",
              spec.scenario.nodes, spec.scenario.manager.cluster_power_bound_w,
              spec.jobs.size(), snapshot_at);
  twin::TwinSession session(spec);
  session.advance_to(snapshot_at);
  auto snap = std::make_shared<const twin::Snapshot>(
      twin::Snapshot::capture(session));
  std::size_t state_bytes = 0;
  for (const twin::StateSection& s : snap->image().sections) {
    state_bytes += s.bytes.size();
  }
  std::printf("snapshot: t=%.3f s, %zu state bytes, digest %016llx\n",
              snap->time(), state_bytes,
              static_cast<unsigned long long>(snap->state_digest()));

  twin::TwinServer server(snap, workers);
  const twin::WhatIfResult base = server.baseline();
  std::printf(
      "baseline: energy %.1f kJ, makespan %.1f s, peak %.1f W, %d jobs\n\n",
      base.energy_j / 1e3, base.makespan_s, base.peak_w, base.completed_jobs);

  std::vector<std::future<twin::WhatIfResult>> futures;
  futures.reserve(queries.size());
  for (const twin::WhatIfQuery& q : queries) futures.push_back(server.submit(q));

  std::printf("%-24s %12s %12s %10s %12s %9s\n", "what-if", "dEnergy(kJ)",
              "dMakespan(s)", "dPeak(W)", "overshoot(W)", "lat(ms)");
  for (auto& f : futures) {
    const twin::WhatIfResult r = f.get();
    std::printf("%-24s %+12.1f %+12.1f %+10.1f %12.1f %9.2f\n",
                r.label.c_str(), r.d_energy_j / 1e3, r.d_makespan_s, r.d_peak_w,
                r.overshoot_w, r.latency_s * 1e3);
  }
  std::printf("\nserved %llu queries over %llu forks\n",
              static_cast<unsigned long long>(server.queries_served()),
              static_cast<unsigned long long>(server.forks_materialized()));
  return 0;
}
