#include "apps/app_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fluxpower::apps {

using hwsim::Platform;

const char* app_kind_name(AppKind kind) noexcept {
  switch (kind) {
    case AppKind::Lammps: return "lammps";
    case AppKind::Gemm: return "gemm";
    case AppKind::Quicksilver: return "quicksilver";
    case AppKind::Laghos: return "laghos";
    case AppKind::NQueens: return "nqueens";
    case AppKind::Sw4lite: return "sw4lite";
    case AppKind::Kripke: return "kripke";
  }
  return "unknown";
}

AppKind app_kind_from_name(const std::string& name) {
  if (name == "lammps") return AppKind::Lammps;
  if (name == "gemm") return AppKind::Gemm;
  if (name == "quicksilver") return AppKind::Quicksilver;
  if (name == "laghos") return AppKind::Laghos;
  if (name == "nqueens") return AppKind::NQueens;
  if (name == "sw4lite") return AppKind::Sw4lite;
  if (name == "kripke") return AppKind::Kripke;
  throw std::invalid_argument("unknown application: " + name);
}

const char* canonical_input(AppKind kind) noexcept {
  // Verbatim from Table I (SW4lite/Kripke have no published inputs: the
  // paper could not run them on Tioga, §V).
  switch (kind) {
    case AppKind::Lammps: return "-v nx 64 -v ny 64 -v nz 64";
    case AppKind::Gemm: return "--sizefact 700 -repfact 50";
    case AppKind::Quicksilver:
      return "derived from rank count; base mesh 16, 300 particles per "
             "mesh, nsteps=40";
    case AppKind::Laghos:
      return "-pt {task-partition} -m {input-mesh} -rp 2 -tf 0.6 -no-vis "
             "-pa -d cuda --max-steps 40";
    case AppKind::NQueens: return "+p160, with 14 queens, grainsize=1000";
    case AppKind::Sw4lite: return "(no HIP variant; not run in the paper)";
    case AppKind::Kripke: return "(execution failed on Tioga; §V)";
  }
  return "";
}

TaskPartition task_partition(int ranks) {
  // §II-D: partitions for Quicksilver and Laghos by MPI rank count.
  switch (ranks) {
    case 4: return {2, 2, 1};
    case 8: return {2, 2, 2};
    case 16: return {2, 2, 4};
    case 32: return {4, 4, 2};
    case 64: return {4, 4, 4};
    default:
      throw std::invalid_argument(
          "task_partition: the paper defines partitions only for "
          "4/8/16/32/64 ranks");
  }
}

double eval_perf_curve(const PerfCurve& curve, double ratio) {
  if (curve.empty()) return std::clamp(ratio, 0.0, 1.0);
  const double r = std::clamp(ratio, 0.0, 1.0);
  if (r <= curve.front().first) return curve.front().second;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (r <= curve[i].first) {
      const auto& [x0, y0] = curve[i - 1];
      const auto& [x1, y1] = curve[i];
      const double t = (r - x0) / (x1 - x0);
      return y0 + t * (y1 - y0);
    }
  }
  return curve.back().second;
}

namespace {

/// Default power-performance response, shared by the GPU codes. Flat near
/// full power (DVFS headroom) then steepening — see header comment.
PerfCurve default_curve() {
  // Anchors solved from the paper's own measurements: GEMM at 35% of
  // demanded GPU power runs at ~0.48x (IBM-1200 row, 548 s -> 1145 s);
  // at ~75% of demand it keeps ~0.95x (proportional-sharing row); at 90%
  // it keeps ~0.98x (static-1950 row). Flat DVFS region near full power,
  // steep collapse below ~half the demand.
  return {{0.0, 0.0},   {0.20, 0.20}, {0.35, 0.40}, {0.55, 0.75},
          {0.70, 0.93}, {0.85, 0.97}, {1.0, 1.0}};
}

/// LAMMPS strong-scaling fit (Amdahl): T(n) = Wp/n + Ws, anchored to the
/// paper's Lassen runtimes (77.17 s @ 4 nodes, 46.33 s @ 8 nodes) and Tioga
/// runtimes (51.0 @ 4, 29.67 @ 8).
struct AmdahlFit {
  double par_s;
  double ser_s;
  double runtime(int n) const { return par_s / n + ser_s; }
  double utilization(int n) const {
    const double t = runtime(n);
    return (par_s / n) / t;
  }
};

constexpr AmdahlFit kLammpsLassen{247.4, 15.3};  // T(4)=77.2, T(8)=46.2
constexpr AmdahlFit kLammpsTioga{170.6, 8.35};   // T(4)=51.0, T(8)=29.7

AppProfile lassen_profile(AppKind kind, int nnodes, double work_scale) {
  AppProfile p;
  p.kind = kind;
  p.platform = Platform::LassenIbmAc922;
  p.nnodes = nnodes;
  p.tasks_per_node = 4;  // one MPI rank per GPU
  p.perf_curve = default_curve();

  switch (kind) {
    case AppKind::Lammps: {
      p.scaling = Scaling::Strong;
      p.runtime_s = kLammpsLassen.runtime(nnodes) * work_scale;
      // GPU utilization (and thus demand) falls as the strong-scaled
      // problem shrinks per node; calibrated to Table II average node
      // power: 1283.7 W @ 4 nodes, 1155.1 W @ 8 nodes.
      const double util = kLammpsLassen.utilization(nnodes);
      const double gpu_demand = 35.0 + 235.0 * util;
      p.phases = {
          {"md-step", 0.90, gpu_demand, 110.0, 70.0, 0.90, 0.05},
          {"neighbor", 0.10, 0.60 * gpu_demand, 130.0, 70.0, 0.55, 0.35},
      };
      p.iteration_s = 5.0;
      p.cpu_coupling = 0.6;
      break;
    }
    case AppKind::Gemm: {
      p.scaling = Scaling::Weak;
      p.runtime_s = 274.0 * work_scale;  // Table IV: 548 s at 2x iterations
      // Compute-dominant with a staging trough; peak node draw ~1523 W and
      // average ~1325-1400 W (Table IV unconstrained row).
      p.phases = {
          {"staging", 0.15, 140.0, 110.0, 55.0, 0.50, 0.30},
          {"dgemm", 0.85, 280.0, 100.0, 60.0, 0.93, 0.05},
      };
      p.iteration_s = 25.0;
      p.cpu_coupling = 0.8;
      break;
    }
    case AppKind::Quicksilver: {
      p.scaling = Scaling::Weak;
      // Weak-scaled baseline ~12.8 s @ 4 nodes, creeping up with scale
      // (Table II); §IV-C uses a 10x problem via work_scale.
      p.runtime_s = (12.0 + 0.4 * std::log2(std::max(1, nnodes))) * work_scale;
      // Periodic square wave (Fig 1b): GPU tracking bursts over a CPU-side
      // baseline. Average node ~540 W, peak ~950 W.
      p.phases = {
          {"cycle-tracking", 0.22, 140.0, 115.0, 70.0, 0.80, 0.15},
          {"cpu-phase", 0.78, 35.0, 77.0, 55.0, 0.05, 0.85},
      };
      p.iteration_s = p.runtime_s / 40.0;  // nsteps=40
      p.cpu_coupling = 0.6;
      break;
    }
    case AppKind::Laghos: {
      p.scaling = Scaling::Weak;
      p.runtime_s = 12.55 * work_scale;
      // CPU-heavy with minor GPU bursts; average node ~470 W (Table II).
      p.phases = {
          {"assembly", 0.92, 35.0, 85.0, 55.0, 0.05, 0.90},
          {"cuda-kernel", 0.08, 110.0, 80.0, 60.0, 0.60, 0.30},
      };
      p.iteration_s = p.runtime_s / 40.0;  // --max-steps 40
      p.cpu_coupling = 0.5;
      break;
    }
    case AppKind::NQueens: {
      p.scaling = Scaling::Weak;
      p.tasks_per_node = 80;  // +p160 over 2 nodes
      p.runtime_s = 120.0 * work_scale;
      // Charm++ CPU-only: GPUs stay at idle for the whole run.
      p.phases = {
          {"solve", 1.0, 35.0, 165.0, 55.0, 0.0, 0.95},
      };
      p.iteration_s = 6.0;
      p.cpu_coupling = 0.3;
      break;
    }
    case AppKind::Sw4lite: {
      // Seismic finite differences: memory-bandwidth bound. Moderate GPU
      // draw, high memory draw, weak power sensitivity (stalls dominate).
      p.scaling = Scaling::Weak;
      p.runtime_s = 90.0 * work_scale;
      p.phases = {
          {"stencil", 0.85, 185.0, 100.0, 105.0, 0.45, 0.25},
          {"boundary", 0.15, 90.0, 120.0, 80.0, 0.20, 0.55},
      };
      p.iteration_s = 7.0;
      p.cpu_coupling = 0.4;
      break;
    }
    case AppKind::Kripke: {
      // Sn transport: wavefront sweeps alternate with scattering — strong
      // periodic phase behaviour, similar in kind to Quicksilver's.
      p.scaling = Scaling::Weak;
      p.runtime_s = 80.0 * work_scale;
      p.phases = {
          {"sweep", 0.45, 235.0, 95.0, 85.0, 0.85, 0.10},
          {"scattering", 0.55, 70.0, 125.0, 70.0, 0.15, 0.75},
      };
      p.iteration_s = 9.0;
      p.cpu_coupling = 0.5;
      break;
    }
  }
  return p;
}

AppProfile tioga_profile(AppKind kind, int nnodes, double work_scale) {
  AppProfile p;
  p.kind = kind;
  p.platform = Platform::TiogaCrayEx235a;
  p.nnodes = nnodes;
  p.tasks_per_node = 8;  // one rank per GCD
  p.perf_curve = default_curve();

  switch (kind) {
    case AppKind::Lammps: {
      p.scaling = Scaling::Strong;
      p.runtime_s = kLammpsTioga.runtime(nnodes) * work_scale;
      const double util = kLammpsTioga.utilization(nnodes);
      const double gcd_demand = 45.0 + 155.0 * util;  // Table II: 1552 W @ 4n
      p.phases = {
          {"md-step", 0.90, gcd_demand, 185.0, 70.0, 0.90, 0.05},
          {"neighbor", 0.10, 0.60 * gcd_demand, 210.0, 70.0, 0.55, 0.35},
      };
      p.iteration_s = 4.0;
      p.cpu_coupling = 0.6;
      break;
    }
    case AppKind::Gemm: {
      p.scaling = Scaling::Weak;
      p.runtime_s = 180.0 * work_scale;
      p.phases = {
          {"staging", 0.15, 90.0, 200.0, 60.0, 0.50, 0.30},
          {"dgemm", 0.85, 210.0, 180.0, 70.0, 0.93, 0.05},
      };
      p.iteration_s = 20.0;
      p.cpu_coupling = 0.8;
      break;
    }
    case AppKind::Quicksilver: {
      p.scaling = Scaling::Weak;
      // The HIP variant anomaly (§IV-A, Table II): expected 24–28 s from
      // task doubling under weak scaling, observed 102–106 s. Modelled as a
      // 4x work inflation in the HIP port.
      const double expected = 25.5 + 0.3 * std::log2(std::max(1, nnodes));
      const double hip_anomaly = 4.05;
      p.runtime_s = expected * hip_anomaly * work_scale;
      p.phases = {
          {"cycle-tracking", 0.30, 150.0, 150.0, 70.0, 0.80, 0.15},
          {"cpu-phase", 0.70, 80.0, 100.0, 55.0, 0.05, 0.85},
      };
      p.iteration_s = p.runtime_s / 40.0;
      p.cpu_coupling = 0.6;
      break;
    }
    case AppKind::Laghos: {
      p.scaling = Scaling::Weak;
      // Task count doubled (8 GCDs) with problem scaled accordingly:
      // runtime roughly doubles vs Lassen (Table II: 26.7 s).
      p.runtime_s = 26.71 * work_scale;
      p.phases = {
          {"assembly", 0.92, 48.0, 130.0, 55.0, 0.05, 0.90},
          {"hip-kernel", 0.08, 75.0, 110.0, 60.0, 0.60, 0.30},
      };
      p.iteration_s = p.runtime_s / 40.0;
      p.cpu_coupling = 0.5;
      break;
    }
    case AppKind::NQueens: {
      p.scaling = Scaling::Weak;
      p.tasks_per_node = 64;
      p.runtime_s = 110.0 * work_scale;
      p.phases = {
          {"solve", 1.0, 45.0, 230.0, 55.0, 0.0, 0.95},
      };
      p.iteration_s = 6.0;
      p.cpu_coupling = 0.3;
      break;
    }
    case AppKind::Sw4lite:
      // §V: "we could not obtain a HIP variant for SW4lite".
      throw std::invalid_argument(
          "sw4lite: no HIP variant available on this platform");
    case AppKind::Kripke:
      // §V: "Kripke execution failed on the Tioga system".
      throw std::invalid_argument("kripke: execution fails on this platform");
  }
  return p;
}

AppProfile cpu_only_profile(AppKind kind, Platform platform, int nnodes,
                            double work_scale) {
  // Generic CPU-only platforms (Intel RAPL, ARM Grace) used by
  // vendor-neutrality tests: reuse the Lassen profile shapes but fold GPU
  // demand onto the sockets.
  AppProfile p = lassen_profile(kind, nnodes, work_scale);
  p.platform = platform;
  const double socket_ceiling =
      platform == Platform::GenericArmGrace ? 480.0 : 330.0;
  p.tasks_per_node = platform == Platform::GenericArmGrace ? 1 : 2;
  for (AppPhase& phase : p.phases) {
    phase.cpu_w = std::min(socket_ceiling, phase.cpu_w + 2.0 * phase.gpu_w * 0.5);
    phase.cpu_weight = std::min(0.95, phase.cpu_weight + phase.gpu_weight);
    phase.gpu_w = 0.0;
    phase.gpu_weight = 0.0;
  }
  return p;
}

}  // namespace

AppProfile make_profile(AppKind kind, Platform platform, int nnodes,
                        double work_scale) {
  if (nnodes <= 0) {
    throw std::invalid_argument("make_profile: nnodes must be positive");
  }
  if (!std::isfinite(work_scale) || work_scale <= 0.0) {
    throw std::invalid_argument(
        "make_profile: work_scale must be positive and finite");
  }
  switch (platform) {
    case Platform::LassenIbmAc922: return lassen_profile(kind, nnodes, work_scale);
    case Platform::TiogaCrayEx235a: return tioga_profile(kind, nnodes, work_scale);
    case Platform::GenericIntelXeon:
    case Platform::GenericArmGrace:
      return cpu_only_profile(kind, platform, nnodes, work_scale);
  }
  throw std::invalid_argument("make_profile: unknown platform");
}

double runtime_sigma(AppKind kind, Platform platform, int nnodes) {
  if (platform == Platform::TiogaCrayEx235a) return 0.002;
  if (platform == Platform::GenericIntelXeon ||
      platform == Platform::GenericArmGrace) {
    return 0.005;
  }
  // Lassen: Laghos and Quicksilver are jitter-sensitive at small node
  // counts (>20% run-to-run swings at 1–2 nodes, §IV-B / Fig 4).
  if (kind == AppKind::Laghos || kind == AppKind::Quicksilver) {
    if (nnodes <= 2) return 0.10;
    return 0.012;
  }
  return 0.006;
}

double estimate_peak_node_power_w(const AppProfile& profile) {
  // Canonical node shapes per platform (sockets, accelerators, base/mem
  // floors) matching the hwsim defaults.
  int sockets = 2, gpus = 4;
  double base = 100.0, mem_idle = 50.0;
  switch (profile.platform) {
    case Platform::LassenIbmAc922: break;
    case Platform::TiogaCrayEx235a:
      sockets = 1;
      gpus = 8;
      base = 90.0;
      mem_idle = 40.0;
      break;
    case Platform::GenericIntelXeon:
      sockets = 2;
      gpus = 0;
      base = 80.0;
      mem_idle = 35.0;
      break;
    case Platform::GenericArmGrace:
      sockets = 1;
      gpus = 0;
      base = 60.0;
      mem_idle = 30.0;
      break;
  }
  double peak = 0.0;
  for (const AppPhase& ph : profile.phases) {
    const double node = sockets * ph.cpu_w + gpus * ph.gpu_w +
                        std::max(ph.mem_w, mem_idle) + base;
    peak = std::max(peak, node);
  }
  return peak;
}

double phase_speed(const AppProfile& profile, const AppPhase& phase,
                   const hwsim::LoadDemand& demand,
                   const hwsim::Grants& grants) {
  auto device_ratio = [](const auto& want, const auto& got) {
    double w = 0.0, g = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      w += want[i];
      g += i < got.size() ? got[i] : 0.0;
    }
    if (w <= 0.0) return 1.0;
    return std::clamp(g / w, 0.0, 1.0);
  };
  const double gpu_speed =
      eval_perf_curve(profile.perf_curve, device_ratio(demand.gpu_w, grants.gpu_w));
  const double cpu_speed =
      eval_perf_curve(profile.perf_curve, device_ratio(demand.cpu_w, grants.cpu_w));
  const double insensitive =
      std::max(0.0, 1.0 - phase.gpu_weight - phase.cpu_weight);
  return std::clamp(
      phase.gpu_weight * gpu_speed + phase.cpu_weight * cpu_speed + insensitive,
      0.0, 1.0);
}

}  // namespace fluxpower::apps
