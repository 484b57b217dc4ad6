// ibm_ac922.hpp — Lassen-style IBM Power AC922 node model.
//
// Reproduces the power-management behaviour the paper documents for Lassen
// (§II-A, §IV-C, §V):
//   * In-band OCC sensors at node / socket / memory / GPU level; the node
//     sensor is direct and includes uncore components.
//   * OPAL node-level power capping: 3050 W max, 500 W minimum *soft* cap
//     (not guaranteed), 1000 W minimum *hard* cap with GPU activity.
//   * IBM's default algorithm derives a conservative per-GPU maximum from
//     the node cap (PSR = 100%). The derivation is calibrated to the
//     paper's measured pairs in Table III: 1200→100 W, 1800→216 W,
//     1950→253 W, 3050→300 W.
//   * NVML per-GPU capping, 100–300 W, with the intermittent failure mode
//     reported in §V (at low node caps a cap write silently keeps the last
//     value or resets to the maximum).
#pragma once

#include "hwsim/node.hpp"

namespace fluxpower::hwsim {

struct IbmAc922Config {
  int sockets = 2;
  int gpus = 4;

  // Idle floors chosen to reproduce the paper's measured 400 W idle node.
  double cpu_idle_w = 55.0;
  double gpu_idle_w = 35.0;
  double mem_idle_w = 50.0;
  double base_w = 100.0;  ///< fans/board/uncore; constant

  double cpu_max_w = 190.0;
  double gpu_max_w = 300.0;
  double gpu_min_cap_w = 100.0;  ///< NVML floor
  double mem_max_w = 110.0;

  double node_max_cap_w = 3050.0;
  double node_soft_min_cap_w = 500.0;
  double node_hard_min_cap_w = 1000.0;

  /// Power Shifting Ratio, 0–100: fraction of cap headroom preferentially
  /// given to GPUs. The paper always runs PSR = 100 (default).
  double psr = 100.0;

  /// Probability that an NVML cap write silently fails when the node cap is
  /// at or below `nvml_failure_below_node_cap_w`. Defaults keep the failure
  /// mode off so headline tables are exact; §V experiments enable it.
  double nvml_failure_rate = 0.0;
  double nvml_failure_below_node_cap_w = 1200.0;

  /// Cap-application latency: real firmware takes time to settle a new
  /// limit ("documentation on ... steady state convergence is sparse", §V).
  /// When > 0, a cap write returns immediately but only takes effect after
  /// the latency elapses (last writer wins). Defaults 0 keep the headline
  /// tables exact; the convergence ablation turns these on.
  double node_cap_latency_s = 0.0;
  double gpu_cap_latency_s = 0.0;
};

class IbmAc922Node final : public Node {
 public:
  IbmAc922Node(sim::Simulation& sim, std::string hostname,
               IbmAc922Config config = {});

  int socket_count() const override { return config_.sockets; }
  int gpu_count() const override { return config_.gpus; }
  const char* vendor_name() const override { return "ibm_power9"; }

  PowerSample read_sensors() override;

  CapResult do_set_node_power_cap(double watts) override;
  CapResult do_clear_node_power_cap() override;
  CapResult do_set_gpu_power_cap(int gpu, double watts) override;

  /// IBM's conservative node-cap → per-GPU-cap derivation at PSR=100,
  /// piecewise linear through the paper's measured points. Exposed for the
  /// Table III bench and for tests.
  double derived_gpu_cap(double node_cap_w) const;

  const IbmAc922Config& config() const noexcept { return config_; }

  /// Count of NVML cap writes that silently failed (§V reproduction).
  int nvml_silent_failures() const noexcept { return nvml_failures_; }

  /// True if the GPU is currently wedged at its maximum because a failed
  /// NVML write reset it (the OCC's derived cap is applied through the
  /// same NVML path, so a wedged GPU escapes it until a write succeeds).
  bool gpu_cap_wedged(int gpu) const;

 protected:
  Grants compute_grants(const LoadDemand& demand) const override;

 private:
  /// Store GPU `idx`'s cap and wedge flag together (see Node::store_cap).
  void store_gpu_cap(std::size_t idx, double watts, bool wedged);

  IbmAc922Config config_;
  int nvml_failures_ = 0;
  std::vector<bool> wedged_;
  // Latency bookkeeping: a newer write supersedes any in-flight one.
  std::uint64_t node_cap_epoch_ = 0;
  std::vector<std::uint64_t> gpu_cap_epochs_;
};

}  // namespace fluxpower::hwsim
