// Heap a broker stack holds, and what a broadcast and a sensor sweep
// allocate. Each broker keeps its services in one contiguous table whose
// topics point into the process-wide interned table, so a service costs a
// table slot rather than a tree node and a topic copy, and its node-agent
// is one slot in a sweep batch rather than a periodic task of its own. A
// broadcast schedules one event per instant (per placement cell when
// sharded), so its blocks grow with those batches: one shared rank block
// for the long ones and one mailbox closure per batch bound for another
// island, never one per leg. A sweep of a full ring allocates nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "counting_allocator.hpp"
#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/power_monitor.hpp"
#include "sim/sharded_engine.hpp"

namespace fluxpower::flux {
namespace {

/// Live usable bytes one broker and its monitor node-agent hold right after
/// load, averaged over a 64-broker instance.
std::int64_t stack_bytes_per_broker() {
  constexpr int kNodes = 64;
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, kNodes);
  std::vector<hwsim::Node*> nodes;
  for (int i = 0; i < kNodes; ++i) nodes.push_back(&cluster.node(i));
  const monitor::PowerMonitorConfig cfg =
      monitor::PowerMonitorConfig::for_lassen();
  const std::int64_t before = test::heap_live_bytes();
  auto instance = std::make_unique<Instance>(sim, std::move(nodes));
  instance->load_module_on_all<monitor::PowerMonitorModule>(cfg);
  return (test::heap_live_bytes() - before) / kNodes;
}

TEST(BrokerHeap, LiveBytesPerBrokerOfAMonitoredStack) {
  // The first stack interns the process-wide metric schemas and topics;
  // the measured one pays only what every broker pays.
  stack_bytes_per_broker();
  const std::int64_t per_broker = stack_bytes_per_broker();
  // 2,146 B measured. A periodic sampler task per broker held 2,199 B, and
  // a map node and a topic copy per service 2,686 B before that.
  EXPECT_LE(per_broker, 2176) << per_broker << " B per broker";
  RecordProperty("bytes_per_broker", static_cast<int>(per_broker));
}

TEST(BrokerHeap, SweepOf4096AgentsAllocatesNothingPerSweep) {
  constexpr int kNodes = 4096;
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, kNodes);
  std::vector<hwsim::Node*> nodes;
  for (int i = 0; i < kNodes; ++i) nodes.push_back(&cluster.node(i));
  Instance instance(sim, std::move(nodes));
  monitor::PowerMonitorConfig cfg = monitor::PowerMonitorConfig::for_lassen();
  cfg.buffer_capacity = 16;
  cfg.archive_jobs = false;
  instance.load_module_on_all<monitor::PowerMonitorModule>(cfg);
  // Twenty sweeps fill every ring; from then on a sweep overwrites rows.
  sim.run_until(40.0);
  const std::uint64_t events = sim.events_executed();
  const std::uint64_t before = test::heap_allocations();
  sim.run_until(80.0);
  EXPECT_EQ(test::heap_allocations() - before, 0u);
  // One batch of 4,096 agents: one engine event per sweep.
  EXPECT_EQ(sim.events_executed() - events, 20u);
}

TEST(BrokerHeap, ShardedBroadcastAllocatesPerBatchNotPerLeg) {
  constexpr int kBrokers = 4096;
  constexpr int kFanout = 4;
  constexpr int kIslands = 4;
  const Tbon tbon(kBrokers, kFanout);
  std::vector<int> island_of(kBrokers, 0);
  std::set<std::pair<int, Rank>> batches;  // {hops from the root, cell}
  std::set<std::pair<int, Rank>> remote;   // ... on an island other than 0
  for (Rank r = 0; r < kBrokers; ++r) {
    const Rank cell = tbon.root_child(r);
    const int island = r == 0 ? 0 : (cell - 1) % kIslands;
    island_of[static_cast<std::size_t>(r)] = island;
    batches.insert({tbon.hops(kRootRank, r), cell});
    if (island != 0) remote.insert({tbon.hops(kRootRank, r), cell});
  }
  sim::ShardedEngine engine(kIslands);
  Instance instance(engine, std::move(island_of),
                    std::vector<hwsim::Node*>(kBrokers, nullptr),
                    InstanceConfig{kFanout});
  auto broadcast = [&] {
    instance.root().publish_event("bcast", util::Json());
    engine.run();
  };
  // Two broadcasts warm the event pools, wheel buckets and mailboxes: the
  // second also grows the overflow heap of the bucket the first drained.
  broadcast();
  broadcast();
  const std::uint64_t before = test::heap_allocations();
  broadcast();
  const std::uint64_t allocations = test::heap_allocations() - before;
  for (Rank r = 0; r < kBrokers; ++r) {
    ASSERT_EQ(instance.broker(r).messages_received(), 3u) << "rank " << r;
  }
  // The shared Message, the shared rank block, and one mailbox closure per
  // batch bound for another island.
  EXPECT_LE(allocations, remote.size() + 2)
      << allocations << " allocations for " << batches.size()
      << " batches of " << kBrokers << " legs";
  RecordProperty("broadcast_allocations", static_cast<int>(allocations));
  RecordProperty("batches", static_cast<int>(batches.size()));
}

}  // namespace
}  // namespace fluxpower::flux
