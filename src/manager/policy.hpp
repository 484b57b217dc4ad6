// policy.hpp — power-management policy configuration (§III-B).
//
// The cluster-level policy decides how much power each job (and hence each
// node) may draw; the node-level policy decides how a node enforces its
// limit on the local hardware:
//   * IbmDefaultNodeCap — hand the limit to the platform's node dial
//     (OPAL on AC922). IBM's firmware then derives conservative GPU caps;
//     this is the paper's static baseline (Table III) and what it shows to
//     be wasteful.
//   * DirectGpuBudget — measure the node's non-GPU draw and cap each GPU at
//     (limit − non-GPU)/n_gpus via NVML; the enforcement used under the
//     proportional-sharing evaluation.
//   * Fpp — DirectGpuBudget to obtain the per-GPU ceiling, then the
//     FFT-based controller (Algorithm 1) adjusts each GPU's cap
//     independently below that ceiling.
#pragma once

#include <array>

#include "dsp/period.hpp"

namespace fluxpower::manager {

enum class NodePolicy {
  None,
  IbmDefaultNodeCap,
  DirectGpuBudget,
  Fpp,
  /// Progress-guarded capping: the other §III-B hook ("policies based on
  /// ... measured performance counters, or other progress metrics").
  /// Consumes `job.progress` events, lowers the per-GPU cap in steps while
  /// the measured progress rate stays within tolerance of the baseline,
  /// and restores the last good cap when progress degrades. Unlike FPP it
  /// needs application cooperation (progress reporting) but works on
  /// aperiodic applications where an FFT sees nothing.
  ProgressBased,
  /// PI-controlled degradation bound (PAPERS.md "Sustaining Performance
  /// While Reducing Energy Consumption: A Control Theory Approach"): a
  /// proportional-integral loop steers the uniform device cap so the
  /// measured progress-rate degradation converges to a configured bound —
  /// the deepest cap that still honors the performance contract. Needs
  /// progress reporting, like ProgressBased, but replaces its
  /// probe-and-hold walk with a closed-loop controller that tracks phase
  /// changes instead of latching the first good cap.
  PiBound,
};

const char* node_policy_name(NodePolicy policy) noexcept;

/// ProgressBased parameters.
struct ProgressPolicyConfig {
  double control_period_s = 30.0;
  double step_w = 25.0;      ///< cap reduction per accepted probe
  double tolerance = 0.03;   ///< acceptable relative progress-rate loss
};

/// PiBound parameters. Gains are in watts per unit of relative-degradation
/// error; the integral accumulates one error sample per control tick and is
/// clamped to the actuator range (anti-windup), so the steady-state cap
/// settles where measured degradation equals the bound.
struct PiPolicyConfig {
  double control_period_s = 30.0;
  double degradation_bound = 0.05;  ///< acceptable relative slowdown
  double kp = 400.0;                ///< proportional gain (W per unit error)
  double ki = 8.0;                  ///< integral gain (W per unit error-tick)
};

/// Algorithm 1 parameters (paper defaults; "these values are customizable").
struct FppConfig {
  double converge_th_s = 2.0;
  double change_th_s = 5.0;
  double p_reduce_w = 50.0;
  std::array<double, 3> powercap_levels_w{10.0, 15.0, 25.0};
  double powercap_time_s = 90.0;  ///< control interval (MAIN loop)
  double fft_update_s = 30.0;     ///< FFT-GET-PERIOD refresh interval
  double sample_period_s = 2.0;   ///< power-sample spacing in the FFT buffer
  double max_gpu_cap_w = 300.0;   ///< vendor-specified maximum (V100)
  double min_gpu_cap_w = 100.0;   ///< NVML floor
  /// Cap range used when FPP operates on CPU sockets instead of GPUs
  /// (CPU-only platforms; §III-B2: the policy is device-agnostic).
  double max_socket_cap_w = 350.0;
  double min_socket_cap_w = 75.0;
  dsp::PeriodMethod period_method = dsp::PeriodMethod::HannPeriodogram;

  /// Reproduction note: Algorithm 1 as printed only *reduces* power when a
  /// period estimate shrinks by 2–5 s between control rounds, which on
  /// real hardware is triggered by estimator noise. The simulator's
  /// estimates are too stable for that, so by default FPP performs one
  /// deterministic exploratory reduction before it may latch convergence —
  /// the paper's own narrative ("FPP first tries to reduce power ...").
  /// Disable to run the strictly literal algorithm.
  bool exploratory_first_reduce = true;

  /// Ablation: run at most one controller's decision per 90 s round,
  /// rotating across the node's GPUs, instead of all simultaneously. This
  /// divides each controller's decision rate by the GPU count, so typical
  /// jobs end before most controllers probe — the policy collapses toward
  /// plain proportional sharing (measured in bench/ablation_fpp_stagger).
  bool stagger_probes = false;
};

struct PowerManagerConfig {
  /// Global cluster power bound P_G in watts; <= 0 means unconstrained
  /// (every node may draw its theoretical peak and no caps are set).
  double cluster_power_bound_w = 0.0;

  /// Theoretical per-node peak used by the proportional-sharing arithmetic
  /// (3050 W for AC922).
  double node_peak_w = 3050.0;

  /// Static IBM node cap installed on every node at module load (Table III
  /// baselines use 1200/1800/1950 W; 0 = none). Acts as a safety cap under
  /// the dynamic policies, as in Table IV where the dynamic rows keep the
  /// 1950 W node cap.
  double static_node_cap_w = 0.0;

  NodePolicy node_policy = NodePolicy::None;

  /// Node-level enforcement loop period (budget re-derivation).
  double control_period_s = 10.0;

  /// CPU time stolen per manager telemetry sweep. Default 0: in production
  /// the manager shares the monitor's samples; the monitor carries the
  /// overhead accounting.
  double sample_cost_s = 0.0;

  /// Park unallocated nodes in the platform low-power state (deeper
  /// C-states, fans down) and wake them on allocation. Off by default to
  /// match the paper's experiments; the queue bench quantifies the saving.
  bool idle_low_power = false;

  /// Allocation-history recording on the root (0 disables). Served via
  /// `power-manager.history` for dashboards and post-mortems.
  double history_period_s = 30.0;
  std::size_t history_capacity = 4096;

  /// Emergency power response (§V closing-the-loop): vendor capping can
  /// fail silently, so allocation arithmetic alone cannot guarantee the
  /// bound. When enabled, the cluster-level-manager measures the actual
  /// cluster draw every `emergency_check_period_s`; if it exceeds
  /// `cluster_power_bound_w x emergency_threshold` for
  /// `emergency_consecutive` consecutive checks, deep uniform node limits
  /// (bound / cluster size, scaled by `emergency_margin`) are pushed to
  /// every node and a `power-manager.emergency` event is published.
  /// Normal proportional limits are restored once the draw falls back
  /// under the bound.
  bool emergency_response = false;
  double emergency_check_period_s = 15.0;
  double emergency_threshold = 1.05;
  int emergency_consecutive = 2;
  double emergency_margin = 0.9;

  /// Graceful degradation under transient cap-write failures (§V: capping
  /// interfaces fail intermittently in production). The node-level-manager
  /// retries a failed enforcement with capped exponential backoff
  /// (initial, doubling, ceiling); only CapStatus::IoError counts as a
  /// failure — Unsupported/PermissionDenied are permanent platform answers
  /// and retrying them would be noise.
  double cap_retry_initial_s = 1.0;
  double cap_retry_max_s = 30.0;

  /// Root-level quarantine: after this many *consecutive* failed limit
  /// pushes to a rank (RPC error, timeout, or an ack with applied=false),
  /// the rank is quarantined — its budget is reserved at node_peak_w (it
  /// can no longer be trusted to enforce a cap) and the remainder is
  /// redistributed. Pushes continue as probes; the first applied ack
  /// lifts the quarantine. Must be >= 1.
  int quarantine_threshold = 3;
  /// Timeout for each limit-push RPC before it counts as a strike.
  double push_timeout_s = 5.0;
  /// While a rank is quarantined, re-push its limit at this period so
  /// recovery (an applied ack) is detected without waiting for the next
  /// allocation event.
  double quarantine_probe_s = 30.0;
  /// Root-level reconciliation: periodically re-assert every allocated
  /// rank's current limit even when nothing changed, so a crashed rank is
  /// *detected* (its pushes time out and accrue strikes) rather than only
  /// noticed at the next allocation event. 0 (default) disables — the
  /// event-driven push traffic stays exactly as before.
  double limit_refresh_s = 0.0;

  FppConfig fpp;
  ProgressPolicyConfig progress;
  PiPolicyConfig pi;
};

}  // namespace fluxpower::manager
