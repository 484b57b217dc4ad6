// workload.hpp — job-queue generation for the §IV-E experiment.
//
// The paper's queue study uses 10 jobs on a 16-node allocation: 3 Laghos,
// 2 Quicksilver, 3 LAMMPS and 2 GEMM jobs, each requesting 1–8 nodes, in a
// random order. The generator reproduces that mix deterministically from a
// seed, and supports generic mixes for the extension studies.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/app_model.hpp"
#include "flux/jobspec.hpp"

namespace fluxpower::apps {

struct WorkloadJob {
  AppKind kind = AppKind::Gemm;
  int nnodes = 1;
  double work_scale = 1.0;
  double submit_delay_s = 0.0;  ///< delay after the previous submission
};

/// The paper's §IV-E queue: 3 Laghos, 2 Quicksilver, 3 LAMMPS, 2 GEMM with
/// 1–8 nodes each, shuffled deterministically by `seed`. Work scales are
/// inflated so each job runs minutes (actual runs, not toy lengths).
std::vector<WorkloadJob> paper_queue(std::uint64_t seed);

/// A general random mix drawn from the given kinds.
std::vector<WorkloadJob> random_queue(std::uint64_t seed, int count,
                                      int max_nodes,
                                      const std::vector<AppKind>& kinds);

/// The jobspec every submission path builds: "<app>-<n>n", four tasks per
/// node, and the attributes work_scale, the model's per-node peak-power
/// estimate and, when positive, eco_tolerance, inserted in that order.
flux::JobSpec make_jobspec(AppKind kind, hwsim::Platform platform, int nnodes,
                           double work_scale, double eco_tolerance);

}  // namespace fluxpower::apps
