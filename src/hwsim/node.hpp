// node.hpp — abstract compute-node model.
//
// A Node owns the vendor-neutral state every platform shares (hostname,
// workload demand, energy meter, sensor noise) and defers two things to the
// vendor subclass: how demand + caps become *granted* power
// (compute_grants) and which sensors exist (sample). All power-management
// software in this repository — Variorum, the monitor, the manager — touches
// hardware exclusively through this interface.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "hwsim/energy_meter.hpp"
#include "hwsim/types.hpp"
#include "sim/simulation.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace fluxpower::hwsim {

class Node;

/// Fault-injection hook installed on a node (see src/faultsim). The tap sits
/// between the public telemetry/capping API and the vendor implementation:
/// every sensor sweep passes through on_sample (dropouts, stuck-at readings,
/// dead sensors) and every cap write may be failed transiently. A null tap —
/// the default — is a perfect machine and costs one pointer compare.
class NodeFaultTap {
 public:
  virtual ~NodeFaultTap() = default;

  /// Mutate a freshly read sample in place (clear domains, freeze values)
  /// and set sample.sensor_fault when the sweep should read as failed.
  virtual void on_sample(Node& node, PowerSample& sample) = 0;

  /// Return true to fail the pending cap write with CapStatus::IoError.
  virtual bool fail_cap_write(Node& node, DomainType domain) = 0;
};

class Node {
 public:
  Node(sim::Simulation& sim, std::string hostname);
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& hostname() const noexcept { return hostname_; }
  sim::Simulation& simulation() noexcept { return sim_; }

  virtual int socket_count() const = 0;
  virtual int gpu_count() const = 0;
  virtual const char* vendor_name() const = 0;

  /// Idle power floors (absolute watts at zero load), installed once by the
  /// vendor constructor. The low-power state scales them inside refresh()
  /// without changing this value.
  const LoadDemand& idle_demand() const noexcept { return idle_floor_; }

  // -- Workload interface ---------------------------------------------------

  /// Set the instantaneous demand. Recomputes grants and advances the energy
  /// integral. Demands below the idle floor are raised to it. A request
  /// equal bit for bit to the one in force only advances the integral: the
  /// grants are a pure function of inputs that did not move.
  void set_demand(const LoadDemand& demand);

  /// Return the node to idle draw. Always recomputes grants (the vendor
  /// constructors call it to derive the first ones).
  void idle();

  const LoadDemand& demand() const noexcept { return demand_; }

  /// Power granted per domain under the active caps — the workload model
  /// reads this to derive its progress rate.
  const Grants& grants() const noexcept { return grants_; }

  /// Instantaneous total node draw (watts), including base power: the sum
  /// of the grants, stored when refresh() derives them.
  double node_draw_w() const noexcept { return draw_w_; }

  /// Exact energy consumed since construction (or last reset_energy).
  double energy_joules() const { return meter_.joules(sim_.now()); }
  void reset_energy() { meter_.reset(sim_.now()); }

  // -- Low-power (idle) state -------------------------------------------------
  // Real clusters park unallocated nodes in deeper C-states with fans
  // spun down; the power manager's idle-node policy drives this. In the
  // low-power state the node's idle floors are scaled by
  // `low_power_factor()`; load demands still raise draw normally (waking
  // the node is instantaneous in the model).
  void set_low_power_state(bool enabled) {
    if (low_power_ == enabled) return;
    low_power_ = enabled;
    refresh();
  }
  bool low_power_state() const noexcept { return low_power_; }
  static constexpr double low_power_factor() { return 0.62; }

  // -- Host-side interference accounting -------------------------------------
  // Telemetry agents and OS daemons steal CPU time from the application on
  // this node. Producers (e.g. the monitor's node-agent) deposit stolen
  // seconds here; the workload runtime drains them and loses that much
  // progress. This is how the monitor's measurable overhead (§IV-B) arises.
  void add_stolen_time(double seconds) { stolen_s_ += seconds; }
  double drain_stolen_time() {
    const double s = stolen_s_;
    stolen_s_ = 0.0;
    return s;
  }
  /// Undrained stolen seconds (read-only; the twin probe digests this —
  /// pending interference is sim state the runtime has not yet consumed).
  double stolen_time() const noexcept { return stolen_s_; }

  // -- Telemetry ------------------------------------------------------------

  /// Read the node's power sensors. Which fields are populated is
  /// vendor-specific. Sensor readings include multiplicative noise of
  /// `sensor_noise` (relative sigma) when enabled. The installed fault tap
  /// (if any) is applied to the vendor's reading before it is returned.
  PowerSample sample();
  /// Prefetch what sample() and add_stolen_time() touch: the object's head
  /// and the fields from the grants through the fault tap. A sweep over
  /// many nodes calls it a few nodes ahead of the one it samples.
  void prefetch_sample() const noexcept {
    util::prefetch(this);
    prefetch_span(&grants_, &fault_tap_ + 1);
  }
  /// Prefetch the grants and the draw node_draw_w() reads, the same way.
  void prefetch_grants() const noexcept {
    prefetch_span(&grants_, &draw_w_ + 1);
  }

  /// Relative sensor noise sigma (0 disables). Sensors on real machines
  /// jitter at the ~0.5% level; tables integrate the exact meter instead.
  void set_sensor_noise(double sigma) { sensor_noise_ = sigma; }
  void reseed_sensor_noise(std::uint64_t seed) { rng_.reseed(seed); }
  /// Sensor-noise substream position (twin probe: the next noisy read of a
  /// restored replica must draw the same deviate as the original run).
  const util::Rng& sensor_rng() const noexcept { return rng_; }

  // -- Fault injection -------------------------------------------------------

  /// Install (or, with nullptr, remove) the fault tap. The tap must outlive
  /// the attachment; src/faultsim's FaultPlane detaches itself on
  /// destruction.
  void set_fault_tap(NodeFaultTap* tap) noexcept { fault_tap_ = tap; }
  NodeFaultTap* fault_tap() const noexcept { return fault_tap_; }

  /// Lifetime count of cap writes failed by the tap with IoError.
  std::uint64_t cap_write_faults() const noexcept { return cap_write_faults_; }

  // -- Capping --------------------------------------------------------------
  // Public entry points are non-virtual: they consult the fault tap (a
  // faulted write returns CapStatus::IoError without reaching the firmware)
  // and then defer to the protected vendor virtuals below.

  /// Node-level power cap (direct hardware support on IBM AC922 only).
  CapResult set_node_power_cap(double watts);
  CapResult clear_node_power_cap();
  virtual std::optional<double> node_power_cap() const { return node_cap_; }

  /// Per-GPU power cap (NVML on Lassen; ROCm-SMI on Tioga, fused off).
  CapResult set_gpu_power_cap(int gpu, double watts);
  virtual std::optional<double> gpu_power_cap(int gpu) const;

  /// Per-socket cap (RAPL-style; used by best-effort node capping on
  /// platforms without a node dial).
  CapResult set_socket_power_cap(int socket, double watts);
  virtual std::optional<double> socket_power_cap(int socket) const;

 protected:
  /// Vendor constructors call this before anything else: it rejects device
  /// counts beyond the inline capacity (kMaxSockets, kMaxGpuSensors) with
  /// std::invalid_argument, sizes the cap tables and installs the idle
  /// floor. The constructor then calls idle().
  void init_devices(int sockets, double cpu_idle_w, int gpus,
                    double gpu_idle_w, double mem_idle_w);

  /// Vendor rule: demand + caps -> granted watts per domain.
  virtual Grants compute_grants(const LoadDemand& demand) const = 0;

  /// Vendor sensor sweep (see sample() for the public contract).
  virtual PowerSample read_sensors() = 0;

  /// Vendor cap implementations. Defaults report Unsupported.
  virtual CapResult do_set_node_power_cap(double watts);
  virtual CapResult do_clear_node_power_cap();
  virtual CapResult do_set_gpu_power_cap(int gpu, double watts);
  virtual CapResult do_set_socket_power_cap(int socket, double watts);

  /// Recompute grants and their sum (draw_w_) from the current demand and
  /// update the energy meter. Must follow any change to a grant input; cap
  /// stores get it through store_cap().
  void refresh();

  /// Store a cap register value and refresh(). When `slot` already holds
  /// `watts` bit for bit and `other_input_changed` is false, the grants
  /// cannot move, so only the energy meter ticks, at the same split point
  /// refresh() would make. Every vendor cap store goes through here; pass
  /// `other_input_changed` when the store changes another grant input too.
  void store_cap(std::optional<double>& slot, std::optional<double> watts,
                 bool other_input_changed = false);

  double noisy(double w);
  /// Prefetch every cache line of the member range [first, end).
  static void prefetch_span(const void* first, const void* end) noexcept {
    const auto* p = static_cast<const char*>(first);
    const auto* last = static_cast<const char*>(end) - 1;
    for (; p < last; p += 64) util::prefetch(p);
    util::prefetch(last);
  }

  sim::Simulation& sim_;
  std::string hostname_;
  LoadDemand idle_floor_;  ///< awake idle floor (see idle_demand())
  LoadDemand requested_;   ///< raw workload request (pre-flooring)
  LoadDemand demand_;      ///< request floored at the active idle floor
  Grants grants_;
  double draw_w_ = 0.0;  ///< grants_.total(), stored by refresh()
  EnergyMeter meter_;
  util::Rng rng_;
  double sensor_noise_ = 0.0;
  std::optional<double> node_cap_;
  std::vector<std::optional<double>> gpu_caps_;
  std::vector<std::optional<double>> socket_caps_;
  double stolen_s_ = 0.0;
  bool low_power_ = false;
  NodeFaultTap* fault_tap_ = nullptr;
  std::uint64_t cap_write_faults_ = 0;
};

}  // namespace fluxpower::hwsim
