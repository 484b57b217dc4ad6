// Heap a broker stack holds and a broadcast allocates. Each broker keeps its
// services in one contiguous table whose topics point into the process-wide
// interned table, so a service costs a table slot rather than a tree node
// and a topic copy. A broadcast schedules one event per instant (per
// placement cell when sharded), so its blocks grow with those batches: one
// shared rank block for the long ones and one mailbox closure per batch
// bound for another island, never one per leg.
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
  // 2,199 B measured; a map node and a topic copy per service held 2,686 B.
  EXPECT_LE(per_broker, 2304) << per_broker << " B per broker";
  RecordProperty("bytes_per_broker", static_cast<int>(per_broker));
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
