// app_model.hpp — application power/performance models.
//
// The paper evaluates five applications (§II-D): LAMMPS (strong-scaled MPI,
// GPU compute bound), GEMM from RajaPerf (weak-scaled, compute bound),
// Quicksilver (weak-scaled Monte Carlo with periodic phase behaviour),
// Laghos (weak-scaled, CPU-heavy with minor phases) and NQueens (CPU-only
// Charm++). Since real executables cannot run here, each application is an
// iteration/phase-structured model calibrated to the paper's published
// measurements (Fig 1 power shapes, Table II runtimes and powers, Table IV
// power/energy under caps). The two properties the power-management results
// depend on are preserved:
//   1. the *shape* of the power signal (flat vs periodic, amplitude,
//      CPU/GPU split), which FPP's FFT observes; and
//   2. the *power-performance sensitivity* (how much a GPU power cap slows
//      the application), which drives every energy/runtime trade-off.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "hwsim/cluster.hpp"
#include "hwsim/types.hpp"

namespace fluxpower::apps {

/// The paper's five evaluated applications plus the two it *attempted* on
/// Tioga (§V): SW4lite (no HIP variant existed) and Kripke (execution
/// failed on Tioga). Both run on Lassen; requesting them on Tioga throws,
/// reproducing the porting gap the paper reports.
enum class AppKind { Lammps, Gemm, Quicksilver, Laghos, NQueens, Sw4lite, Kripke };
enum class Scaling { Strong, Weak };

const char* app_kind_name(AppKind kind) noexcept;

/// Parse an application name ("lammps", "gemm", ...); throws on unknown.
AppKind app_kind_from_name(const std::string& name);

/// The canonical input the paper runs each application with (Table I).
/// Recorded for provenance; the models are calibrated against runs of
/// exactly these inputs.
const char* canonical_input(AppKind kind) noexcept;

/// Task partition (x, y, z) for rank-partitioned applications (Quicksilver
/// and Laghos, §II-D): (2,2,1) for 4 ranks up to (4,4,4) for 64. Throws
/// std::invalid_argument for rank counts the paper does not define.
struct TaskPartition {
  int x = 1, y = 1, z = 1;
  int ranks() const { return x * y * z; }
  bool operator==(const TaskPartition&) const = default;
};
TaskPartition task_partition(int ranks);

/// One phase of an application iteration. Power demands are absolute watts
/// per device; weights say how much of the phase's progress is bound to each
/// device class (remainder is power-insensitive, e.g. communication).
struct AppPhase {
  std::string name;
  double work_frac = 1.0;  ///< share of an iteration's work
  double gpu_w = 0.0;      ///< demand per GPU (per GCD on AMD)
  double cpu_w = 0.0;      ///< demand per socket
  double mem_w = 0.0;
  double gpu_weight = 0.0;  ///< progress sensitivity to GPU power
  double cpu_weight = 0.0;  ///< progress sensitivity to CPU power
};

/// Piecewise-linear speed response to a power ratio r = granted/demand.
/// Anchored so that small cap reductions near the top cost little
/// performance (DVFS region: power ~ V^2 f, perf ~ f) while deep throttling
/// costs nearly proportionally — the response the paper's GEMM numbers
/// imply (1200 W IBM cap → 2.09x slowdown; 1950 W cap → 1.03x).
using PerfCurve = std::vector<std::pair<double, double>>;

double eval_perf_curve(const PerfCurve& curve, double ratio);

struct AppProfile {
  AppKind kind = AppKind::Gemm;
  hwsim::Platform platform = hwsim::Platform::LassenIbmAc922;
  Scaling scaling = Scaling::Weak;
  int nnodes = 1;
  int tasks_per_node = 4;
  std::vector<AppPhase> phases;
  double iteration_s = 10.0;  ///< nominal wall seconds per iteration
  double runtime_s = 100.0;   ///< nominal unconstrained runtime
  PerfCurve perf_curve;
  /// How strongly CPU draw follows throttled progress (0 = CPU power
  /// independent of GPU throttling, 1 = fully coupled).
  double cpu_coupling = 0.7;

  /// Total work in "nominal seconds" (== runtime_s; progress at full power
  /// advances 1 work-second per wall second).
  double total_work() const { return runtime_s; }
};

/// Build the calibrated profile for an application at the given scale.
/// `work_scale` multiplies the problem size (the paper's §IV-C experiments
/// use a 10x Quicksilver problem and 2x GEMM iterations). Throws
/// std::invalid_argument unless `nnodes` is positive and `work_scale` is
/// positive and finite.
AppProfile make_profile(AppKind kind, hwsim::Platform platform, int nnodes,
                        double work_scale = 1.0);

/// Empirical run-to-run variability (relative sigma of runtime) for the
/// overhead study: the paper observed >20% swings for Laghos and
/// Quicksilver at 1–2 Lassen nodes (attributed to OS jitter and network
/// congestion, §IV-B) and near-zero variability on Tioga.
double runtime_sigma(AppKind kind, hwsim::Platform platform, int nnodes);

/// Compute a phase's progress speed (0..1] given demands and grants on one
/// node, using the profile's perf curve. Exposed for unit tests.
double phase_speed(const AppProfile& profile, const AppPhase& phase,
                   const hwsim::LoadDemand& demand, const hwsim::Grants& grants);

/// Peak per-node power (watts) the application can demand on its platform —
/// the estimate the power-aware scheduler admits jobs against. Computed
/// from the hottest phase on the platform's canonical node shape.
double estimate_peak_node_power_w(const AppProfile& profile);

}  // namespace fluxpower::apps
