// policy.hpp — the pluggable power-policy plane (observe/act contracts).
//
// The paper's §III-B policy hooks appear twice in this reproduction: the
// scheduler decides *when a job may start* (admission under node and power
// constraints) and the per-node manager decides *how a node enforces its
// limit* (cap placement across GPUs/sockets). Both used to be closed enums
// with if/else dispatch; this header carves out the common interface so new
// policies from the related work (PI-bounded degradation, eco-mode
// user-assisted capping, power-aware EASY) plug in without editing every
// layer by hand.
//
// Observe/act contract:
//   * SchedulerPolicy observes the queue scan (one admit() verdict per
//     queued job, in submission order) plus a SchedView snapshot of the
//     cluster ledger, and acts through scheduling hints (Start / HoldQueue
//     / SkipJob) and an admission charge against the admitted-power ledger.
//   * NodePolicyPlugin observes pushed node limits, job progress events and
//     the host module's telemetry (typed PowerSample windows via the FPP
//     engine, obs gauges via the broker registry), and acts through the
//     module's cap primitives — every watt written to hardware still flows
//     through the existing push/retry/quarantine machinery.
//
// Determinism rules (DESIGN.md "Policy plane"):
//   * Policies must be pure functions of their observed inputs: no wall
//     clock, no RNG, no hidden globals. A policy re-run from a twin
//     snapshot must produce the identical decision sequence.
//   * admit() is consulted once per queued job per scan; it must not
//     mutate shared state (the scheduler owns the ledger and commits the
//     admission charge only when the job actually starts).
//   * Mutable policy state must be exposed via encode_state() so the twin's
//     POL section can fingerprint it (FNV-1a digest tripwires).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flux/jobspec.hpp"

namespace fluxpower::policy {

/// Catalog entry for `list` surfaces (benches, docs, error messages).
struct PolicyInfo {
  std::string name;
  std::string summary;
};

/// Verdict for one queued job during the scheduler's queue scan.
enum class SchedHint {
  Start,      ///< admit: try to place the job now
  HoldQueue,  ///< head-of-line block: stop the scan entirely
  SkipJob,    ///< pass over this job; scan may continue if backfill() allows
};

/// Read-only snapshot of the scheduler's ledger, taken once per scan.
/// Policies decide from this view only — never from the scheduler's
/// internals — so a decision is reproducible from the twin's POL section.
struct SchedView {
  double now_s = 0.0;             ///< sim time of the scan
  double cluster_bound_w = 0.0;   ///< 0 = no power admission control
  double node_peak_w = 3050.0;    ///< per-node peak assumed without estimate
  double admitted_power_w = 0.0;  ///< sum of running-job estimates
  std::size_t admitted_jobs = 0;  ///< running jobs charged to the ledger
  int free_nodes = 0;
  int total_nodes = 0;
};

/// Estimated peak draw of a job: the jobspec attribute
/// `power_estimate_w_per_node` (node peak assumed when absent) times the
/// node count. Shared by every power-aware scheduler policy so their
/// ledgers agree byte-for-byte.
inline double job_power_estimate_w(const SchedView& view,
                                   const flux::Job& job) {
  const double per_node = job.spec.attributes.number_or(
      "power_estimate_w_per_node", view.node_peak_w);
  return per_node * job.spec.nnodes;
}

/// Scheduler-side policy: admission hints + power-ledger charges.
class SchedulerPolicy {
 public:
  virtual ~SchedulerPolicy() = default;

  virtual const char* name() const noexcept = 0;

  /// Verdict for `job` during the queue scan. `blocked_head` is the first
  /// job the scan passed over (nullptr while no job has been skipped) —
  /// power-aware EASY uses it to reserve the head job's power.
  virtual SchedHint admit(const SchedView& view, const flux::Job& job,
                          const flux::Job* blocked_head) = 0;

  /// May the scan continue past a job that failed node placement?
  /// (EASY-style backfill; false = strict FCFS head-of-line blocking.)
  virtual bool backfill() const noexcept { return false; }

  /// Power charged against the admitted-power ledger when the job starts;
  /// <= 0 means the job is not tracked by the ledger.
  virtual double admission_estimate_w(const SchedView& view,
                                      const flux::Job& job) const {
    (void)view;
    (void)job;
    return 0.0;
  }

  /// Self-imposed per-node cap the policy requests for a starting job
  /// (eco-mode); 0 = none. Flows into the job.state-run event as
  /// `power_limit_w_per_node`, i.e. through the manager's existing
  /// water-filling — no new message shapes.
  virtual double requested_node_power_w(const flux::Job& job) const {
    (void)job;
    return 0.0;
  }

  /// Serialize mutable policy state for the twin's POL section (empty for
  /// stateless policies). Must be deterministic.
  virtual void encode_state(std::vector<std::uint8_t>& out) const {
    (void)out;
  }
};

/// Node-side policy: how a node enforces its pushed power limit. Concrete
/// plugins live next to the power-manager module (they act through its cap
/// primitives); this interface is what the module dispatches through.
class NodePolicyPlugin {
 public:
  virtual ~NodePolicyPlugin() = default;

  virtual const char* name() const noexcept = 0;

  // -- capability flags: which of the host module's periodic machinery is
  //    wired up at load. Mirrors the former enum gating exactly.
  virtual bool wants_progress() const noexcept { return false; }
  virtual bool wants_control_tick() const noexcept { return false; }
  virtual bool wants_fpp_engine() const noexcept { return false; }
  /// Period of the progress-driven control tick (only consulted when
  /// wants_progress()).
  virtual double progress_tick_period_s() const noexcept { return 0.0; }

  // -- observe
  /// A local job reported cumulative work `work_done` at sim time `now_s`.
  virtual void on_progress(double work_done, double now_s) {
    (void)work_done;
    (void)now_s;
  }
  /// Periodic progress-control tick (period = progress_tick_period_s()).
  virtual void on_progress_tick() {}
  /// The node limit was freshly installed or raised (new headroom epoch).
  virtual void on_limit_refresh() {}

  // -- act
  /// Apply the active node limit to the local hardware; false only on a
  /// transient cap-write failure (arms the host's backoff ladder).
  virtual bool enforce() = 0;

  // -- introspection (keeps the twin MGR section byte-compatible: the
  //    defaults equal the former module members' initial values).
  virtual double progress_rate() const noexcept { return -1.0; }
  virtual double progress_cap_w() const noexcept { return 0.0; }
  virtual bool progress_holding() const noexcept { return false; }

  /// Serialize mutable plugin state for the twin's POL section.
  virtual void encode_state(std::vector<std::uint8_t>& out) const {
    (void)out;
  }
};

}  // namespace fluxpower::policy
