// taps.hpp — layer counts read off the stack's public surfaces.
//
// federation-2w runs behind a single call (experiments::run_site_ops) that
// builds and destroys its engine and instances internally, so the counts
// cannot be read after it returns. Instead both driver binaries wrap three
// destructors (GNU ld --wrap, see CMakeLists.txt): just before a
// Simulation, ShardedEngine or flux::Instance goes away, its public
// counters are added to one process-wide tally. Every workload reads its
// counts the same way, after its objects are torn down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Sums over every engine and instance torn down so far in this process.
/// Written only from the thread that destroys those objects.
struct LayerCounts {
  // Teardowns each tap saw. A tap that never fires (say, because its
  // destructor became inline and escaped the wrap) leaves every count it
  // feeds at 0, so the driver fails the run when one of these is 0.
  std::uint64_t simulations_torn_down = 0;
  std::uint64_t engines_torn_down = 0;
  std::uint64_t instances_torn_down = 0;
  // Simulation (every island counts as one engine).
  std::uint64_t events = 0;
  std::uint64_t callback_heap_allocs = 0;
  // ShardedEngine.
  std::uint64_t windows = 0;
  std::uint64_t cross_island_posts = 0;
  // flux::Instance and the per-broker registries, summed over ranks.
  std::uint64_t messages_routed = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t monitor_samples = 0;
  std::uint64_t monitor_sensor_failures = 0;
  std::uint64_t monitor_retained = 0;
  std::uint64_t monitor_evicted = 0;
  std::uint64_t monitor_merge_bytes = 0;
  std::uint64_t limit_pushes = 0;
  std::uint64_t cap_retries = 0;
  std::uint64_t quarantine_events = 0;
  std::uint64_t sched_decisions = 0;
  std::uint64_t sched_starts = 0;
  std::uint64_t sched_holds = 0;
  std::uint64_t sched_skips = 0;
  std::uint64_t faults_injected = 0;
};

const LayerCounts& torn_down_counts();

/// The monitor ledger (samples == evicted + retained + sensor failures) and
/// the scheduler ledger (decisions == starts + holds + skips); one message
/// per identity that does not hold.
std::vector<std::string> ledger_violations(const LayerCounts& counts);

}  // namespace perfbench
