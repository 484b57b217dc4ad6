#include "taps.hpp"

#include <string_view>

#include "flux/instance.hpp"
#include "monitor/power_monitor.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulation.hpp"

using namespace fluxpower;

namespace perfbench {
namespace {

LayerCounts g_counts;

std::uint64_t registry_value(const obs::MetricsRegistry& registry,
                             std::string_view name) {
  return static_cast<std::uint64_t>(registry.value(name).value_or(0.0));
}

constexpr std::string_view kFaultCounters[] = {
    "fluxpower_faultsim_msgs_dropped_total",
    "fluxpower_faultsim_msgs_blackholed_total",
    "fluxpower_faultsim_msgs_duplicated_total",
    "fluxpower_faultsim_msgs_delayed_total",
    "fluxpower_faultsim_node_crashes_total",
    "fluxpower_faultsim_node_reboots_total",
    "fluxpower_faultsim_sensor_dropouts_total",
    "fluxpower_faultsim_sensor_stuck_sweeps_total",
    "fluxpower_faultsim_cap_write_failures_total",
};

void add_instance(flux::Instance& instance) {
  LayerCounts& c = g_counts;
  ++c.instances_torn_down;
  c.messages_routed += instance.messages_routed();
  for (flux::Rank r = 0; r < instance.size(); ++r) {
    flux::Broker& broker = instance.broker(r);
    const obs::MetricsRegistry& reg = broker.metrics();
    c.rpc_timeouts += registry_value(reg, "fluxpower_broker_rpc_timeouts_total");
    c.monitor_merge_bytes +=
        registry_value(reg, "fluxpower_monitor_merge_bytes_total");
    c.limit_pushes += registry_value(reg, "fluxpower_manager_limit_pushes_total");
    c.cap_retries += registry_value(reg, "fluxpower_manager_cap_retries_total");
    c.quarantine_events +=
        registry_value(reg, "fluxpower_manager_quarantine_events_total");
    c.sched_decisions +=
        registry_value(reg, "fluxpower_policy_sched_decisions_total");
    c.sched_starts += registry_value(reg, "fluxpower_policy_sched_starts_total");
    c.sched_holds += registry_value(reg, "fluxpower_policy_sched_holds_total");
    c.sched_skips += registry_value(reg, "fluxpower_policy_sched_skips_total");
    for (std::string_view name : kFaultCounters) {
      c.faults_injected += registry_value(reg, name);
    }
    // The buffer gauges refresh only on exposition; the module's own
    // accessors are live.
    if (const auto* mon = dynamic_cast<const monitor::PowerMonitorModule*>(
            broker.find_module("power-monitor"))) {
      c.monitor_samples += mon->samples_taken();
      c.monitor_sensor_failures += mon->sensor_failures();
      c.monitor_retained += mon->store()->size();
      c.monitor_evicted += mon->store()->evicted();
    }
  }
}

}  // namespace

const LayerCounts& torn_down_counts() { return g_counts; }

std::vector<std::string> ledger_violations(const LayerCounts& c) {
  std::vector<std::string> out;
  if (c.monitor_samples !=
      c.monitor_evicted + c.monitor_retained + c.monitor_sensor_failures) {
    out.push_back("monitor ledger: samples " +
                  std::to_string(c.monitor_samples) + " != evicted " +
                  std::to_string(c.monitor_evicted) + " + retained " +
                  std::to_string(c.monitor_retained) + " + sensor failures " +
                  std::to_string(c.monitor_sensor_failures));
  }
  if (c.sched_decisions != c.sched_starts + c.sched_holds + c.sched_skips) {
    out.push_back("scheduler ledger: decisions " +
                  std::to_string(c.sched_decisions) + " != starts " +
                  std::to_string(c.sched_starts) + " + holds " +
                  std::to_string(c.sched_holds) + " + skips " +
                  std::to_string(c.sched_skips));
  }
  return out;
}

}  // namespace perfbench

// GNU ld --wrap: the program's calls to each destructor land here, and
// __real_* is the original. Mangled names match the list in CMakeLists.txt.
extern "C" {

void __real__ZN9fluxpower3sim10SimulationD1Ev(sim::Simulation* self);
void __wrap__ZN9fluxpower3sim10SimulationD1Ev(sim::Simulation* self) {
  ++perfbench::g_counts.simulations_torn_down;
  perfbench::g_counts.events += self->events_executed();
  perfbench::g_counts.callback_heap_allocs += self->callback_heap_allocs();
  __real__ZN9fluxpower3sim10SimulationD1Ev(self);
}

void __real__ZN9fluxpower3sim13ShardedEngineD1Ev(sim::ShardedEngine* self);
void __wrap__ZN9fluxpower3sim13ShardedEngineD1Ev(sim::ShardedEngine* self) {
  ++perfbench::g_counts.engines_torn_down;
  perfbench::g_counts.windows += self->windows_executed();
  perfbench::g_counts.cross_island_posts += self->posts_delivered();
  __real__ZN9fluxpower3sim13ShardedEngineD1Ev(self);
}

void __real__ZN9fluxpower4flux8InstanceD1Ev(flux::Instance* self);
void __wrap__ZN9fluxpower4flux8InstanceD1Ev(flux::Instance* self) {
  perfbench::add_instance(*self);
  __real__ZN9fluxpower4flux8InstanceD1Ev(self);
}

}  // extern "C"
