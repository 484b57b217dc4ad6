#include "apps/workload.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace fluxpower::apps {

std::vector<WorkloadJob> paper_queue(std::uint64_t seed) {
  util::Rng rng(seed);
  // Mix from §IV-E: mostly compute-intensive. Work scales stretch the
  // short-running weak-scaled baselines into multi-minute jobs so the
  // queue has realistic occupancy (total makespan ~1539 s in the paper).
  std::vector<WorkloadJob> jobs;
  auto add = [&](AppKind kind, int count, double min_scale, double max_scale) {
    for (int i = 0; i < count; ++i) {
      WorkloadJob j;
      j.kind = kind;
      j.nnodes = static_cast<int>(rng.uniform_int(1, 8));
      j.work_scale = rng.uniform(min_scale, max_scale);
      j.submit_delay_s = rng.uniform(0.0, 20.0);
      jobs.push_back(j);
    }
  };
  add(AppKind::Laghos, 3, 25.0, 45.0);       // ~315-570 s
  add(AppKind::Quicksilver, 2, 20.0, 38.0);  // ~260-500 s
  add(AppKind::Lammps, 3, 4.0, 9.0);         // strong-scaled, ~120-1100 s
  add(AppKind::Gemm, 2, 1.2, 2.6);           // ~330-710 s

  // Deterministic shuffle (Fisher-Yates with our seeded RNG).
  for (std::size_t i = jobs.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(jobs[i - 1], jobs[j]);
  }
  return jobs;
}

std::vector<WorkloadJob> random_queue(std::uint64_t seed, int count,
                                      int max_nodes,
                                      const std::vector<AppKind>& kinds) {
  if (kinds.empty() || count <= 0 || max_nodes <= 0) return {};
  util::Rng rng(seed);
  std::vector<WorkloadJob> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    WorkloadJob j;
    j.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kinds.size()) - 1))];
    j.nnodes = static_cast<int>(rng.uniform_int(1, max_nodes));
    j.work_scale = rng.uniform(5.0, 20.0);
    j.submit_delay_s = rng.exponential(15.0);
    jobs.push_back(j);
  }
  return jobs;
}

flux::JobSpec make_jobspec(AppKind kind, hwsim::Platform platform, int nnodes,
                           double work_scale, double eco_tolerance) {
  flux::JobSpec spec;
  spec.name =
      std::string(app_kind_name(kind)) + "-" + std::to_string(nnodes) + "n";
  spec.app = app_kind_name(kind);
  spec.nnodes = nnodes;
  spec.tasks_per_node = 4;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = work_scale;
  // The power-aware scheduling policies admit against the model's peak
  // estimate (FCFS/backfill ignore it).
  spec.attributes["power_estimate_w_per_node"] = estimate_peak_node_power_w(
      make_profile(kind, platform, std::max(1, nnodes), work_scale));
  if (eco_tolerance > 0.0) {
    // Eco-mode enrollment travels like any other user attribute; absent
    // for non-enrolled jobs.
    spec.attributes["eco_tolerance"] = eco_tolerance;
  }
  return spec;
}

}  // namespace fluxpower::apps
