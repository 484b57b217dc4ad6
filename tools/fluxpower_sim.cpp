// fluxpower-sim — command-line driver for the framework.
//
// Runs an arbitrary job mix on a simulated cluster under a chosen power
// policy and prints per-job results; optionally dumps machine-readable
// CSV/JSON for plotting.
//
//   fluxpower-sim --platform lassen --nodes 8 --policy prop --bound 9600 \
//       --node-cap 1950 --job gemm:6:2.0 --job quicksilver:2:27.5 \
//       [--sched NAME] [--seed N] \
//       [--csv PREFIX] [--json] [--timeline JOBID]
//
// Job syntax: app:nnodes[:work_scale[:submit_time_s]] with app one of
// lammps, gemm, quicksilver, laghos, nqueens.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "flux/hostlist.hpp"
#include "parse_number.hpp"
#include "util/table.hpp"

using namespace fluxpower;
using namespace fluxpower::experiments;

[[noreturn]] void tools::usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s [options] --job app:nnodes[:scale[:t0]] [--job ...]\n"
               "options:\n"
               "  --platform lassen|tioga|intel|arm   (default lassen)\n"
               "  --nodes N                           (default 8)\n"
               "  --policy none|ibm|static|prop|fpp|progress  (default none)\n"
               "  --bound WATTS                       cluster power bound\n"
               "  --node-cap WATTS                    static/safety node cap\n"
               "  --sched NAME                        scheduler policy: fcfs (default),\n"
               "                                      easy-backfill, power-aware,\n"
               "                                      power-aware-easy, eco-mode\n"
               "  --seed N                            (default 42)\n"
               "  --variability                       enable run-to-run jitter\n"
               "  --csv PREFIX                        write PREFIX_{jobs,cluster}.csv\n"
               "  --json                              print result JSON to stdout\n"
               "  --timeline JOBID                    print job timeline CSV\n",
               argv0);
  std::exit(2);
}

namespace {

using tools::parse_number;
using tools::usage;

hwsim::Platform parse_platform(const std::string& s, const char* argv0) {
  if (s == "lassen") return hwsim::Platform::LassenIbmAc922;
  if (s == "tioga") return hwsim::Platform::TiogaCrayEx235a;
  if (s == "intel") return hwsim::Platform::GenericIntelXeon;
  if (s == "arm") return hwsim::Platform::GenericArmGrace;
  usage(argv0, "unknown platform " + s);
}

JobRequest parse_job(const std::string& spec, const char* argv0) {
  JobRequest req;
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t colon = std::min(spec.find(':', start), spec.size());
    parts.push_back(spec.substr(start, colon - start));
    if (colon >= spec.size()) break;
    start = colon + 1;
  }
  if (parts.size() < 2 || parts.size() > 4) {
    usage(argv0, "bad --job spec '" + spec + "'");
  }
  try {
    req.kind = apps::app_kind_from_name(parts[0]);
  } catch (const std::exception& e) {
    usage(argv0, "bad --job spec '" + spec + "': " + e.what());
  }
  req.nnodes = parse_number<int>("--job nnodes", parts[1], argv0);
  if (parts.size() >= 3) {
    req.work_scale = parse_number<double>("--job work_scale", parts[2], argv0);
  }
  if (parts.size() >= 4) {
    req.submit_time_s =
        parse_number<double>("--job submit time", parts[3], argv0);
  }
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioConfig cfg;
  cfg.nodes = 8;
  std::vector<JobRequest> jobs;
  std::string policy = "none";
  std::string sched = "fcfs";
  std::string csv_prefix;
  bool print_json = false;
  long long timeline_job = -1;
  double bound = 0.0, node_cap = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], arg + " needs a value");
      return argv[++i];
    };
    auto number = [&]<typename T>(T& out) {
      out = parse_number<T>(arg, next(), argv[0]);
    };
    if (arg == "--platform") cfg.platform = parse_platform(next(), argv[0]);
    else if (arg == "--nodes") number(cfg.nodes);
    else if (arg == "--policy") policy = next();
    else if (arg == "--bound") number(bound);
    else if (arg == "--node-cap") number(node_cap);
    else if (arg == "--sched") sched = next();
    else if (arg == "--seed") number(cfg.seed);
    else if (arg == "--variability") cfg.runtime_variability = true;
    else if (arg == "--csv") csv_prefix = next();
    else if (arg == "--json") print_json = true;
    else if (arg == "--timeline") number(timeline_job);
    else if (arg == "--job") jobs.push_back(parse_job(next(), argv[0]));
    else if (arg == "--help" || arg == "-h") usage(argv[0]);
    else usage(argv[0], "unknown option " + arg);
  }
  if (jobs.empty()) usage(argv[0], "at least one --job required");
  for (const JobRequest& job : jobs) {
    if (job.nnodes > cfg.nodes) {
      usage(argv[0], "a job needs " + std::to_string(job.nnodes) +
                         " nodes but the cluster has " +
                         std::to_string(cfg.nodes));
    }
  }

  cfg.manager.cluster_power_bound_w = bound;
  cfg.manager.static_node_cap_w = node_cap;
  if (policy == "none") {
    cfg.load_manager = bound > 0.0 || node_cap > 0.0;
    cfg.manager.node_policy = manager::NodePolicy::None;
  } else if (policy == "ibm") {
    cfg.load_manager = true;
    cfg.manager.node_policy = manager::NodePolicy::IbmDefaultNodeCap;
  } else if (policy == "static") {
    cfg.load_manager = true;
    cfg.manager.node_policy = manager::NodePolicy::None;
  } else if (policy == "prop") {
    cfg.load_manager = true;
    cfg.manager.node_policy = manager::NodePolicy::DirectGpuBudget;
  } else if (policy == "fpp") {
    cfg.load_manager = true;
    cfg.manager.node_policy = manager::NodePolicy::Fpp;
  } else if (policy == "progress") {
    cfg.load_manager = true;
    cfg.manager.node_policy = manager::NodePolicy::ProgressBased;
    cfg.report_progress = true;
  } else {
    usage(argv[0], "unknown policy " + policy);
  }

  cfg.sched_policy = sched;

  std::unique_ptr<Scenario> scenario;
  try {
    scenario = std::make_unique<Scenario>(cfg);
  } catch (const std::invalid_argument& e) {
    usage(argv[0], e.what());  // unknown --sched name lists the known ones
  }

  std::sort(jobs.begin(), jobs.end(),
            [](const JobRequest& a, const JobRequest& b) {
              return a.submit_time_s < b.submit_time_s;
            });
  try {
    for (const JobRequest& job : jobs) scenario->submit(job);
  } catch (const std::invalid_argument& e) {
    usage(argv[0], e.what());  // e.g. a non-positive or non-finite scale
  }
  const ScenarioResult result = scenario->run();

  if (print_json) {
    std::cout << experiments::to_json(result, timeline_job >= 0).dump(2)
              << "\n";
  } else {
    util::TextTable table({"job", "app", "nodes", "start s", "runtime s",
                           "avg W/node", "peak W/node", "kJ/node",
                           "telemetry"});
    for (const JobResult& j : result.jobs) {
      table.add_row({std::to_string(j.id), j.app, std::to_string(j.nnodes),
                     util::TextTable::num(j.t_start, 1),
                     util::TextTable::num(j.runtime_s, 1),
                     util::TextTable::num(j.avg_node_power_w, 0),
                     util::TextTable::num(j.max_node_power_w, 0),
                     util::TextTable::num(j.exact_avg_node_energy_j / 1e3, 1),
                     j.telemetry_complete ? "complete" : "partial"});
    }
    table.print(std::cout);
    std::printf(
        "makespan %.1f s | peak cluster %.2f kW | avg cluster %.2f kW | "
        "total %.2f MJ\n",
        result.makespan_s, result.max_cluster_power_w / 1e3,
        result.avg_cluster_power_w / 1e3, result.total_energy_j / 1e6);
  }

  if (!csv_prefix.empty()) {
    std::ofstream jobs_csv(csv_prefix + "_jobs.csv");
    experiments::write_jobs_csv(result, jobs_csv);
    std::ofstream cluster_csv(csv_prefix + "_cluster.csv");
    experiments::write_cluster_timeline_csv(result, cluster_csv);
    std::fprintf(stderr, "wrote %s_jobs.csv and %s_cluster.csv\n",
                 csv_prefix.c_str(), csv_prefix.c_str());
  }
  if (timeline_job >= 0 && !print_json) {
    experiments::write_job_timeline_csv(
        result, static_cast<flux::JobId>(timeline_job), std::cout);
  }
  return 0;
}
