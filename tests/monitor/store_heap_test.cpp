// Heap held by one node-agent sample store: one block of rows, sized to the
// slots in use and the widest sample seen, plus the one-entry hostname
// table. At 65,536 node-agents every byte here is multiplied by the site
// size, and power-monitor.status reports it.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "counting_allocator.hpp"
#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "monitor/power_monitor.hpp"
#include "monitor/sample_store.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::monitor {
namespace {

/// One AC922 sensor sweep: 2 sockets and 4 GPUs, node and memory sensors.
hwsim::PowerSample lassen_sample() {
  sim::Simulation sim;
  hwsim::IbmAc922Node node(sim, "lassen0");
  return node.sample();
}

TEST(StoreHeap, LassenStoreFitsInThreeBlocks) {
  hwsim::PowerSample s = lassen_sample();
  ASSERT_EQ(s.cpu_w.size(), 2u);
  ASSERT_EQ(s.gpu_w.size(), 4u);

  const std::int64_t bytes_before = test::heap_live_bytes();
  const std::int64_t blocks_before = test::heap_live_blocks();
  std::int64_t bytes = 0;
  std::int64_t blocks = 0;
  std::uint64_t wrap_news = 0;
  {
    ColumnarSampleStore store(16);
    for (int i = 0; i < 40; ++i) {
      if (i == 16) wrap_news = test::heap_allocations();
      s.timestamp_s = 2.0 * i;
      store.push(s);
    }
    wrap_news = test::heap_allocations() - wrap_news;
    bytes = test::heap_live_bytes() - bytes_before;
    blocks = test::heap_live_blocks() - blocks_before;
    EXPECT_EQ(store.size(), 16u);
    EXPECT_TRUE(store.check_integrity());
  }
  EXPECT_EQ(test::heap_live_bytes(), bytes_before)
      << "a destroyed store returns its heap";
  EXPECT_EQ(wrap_news, 0u) << "pushes into a full ring allocate nothing";
  // The row block and the hostname table: the metadata lives in the rows.
  EXPECT_LE(blocks, 2);
  EXPECT_LE(bytes, 1456) << "usable heap of one capacity-16 Lassen store";
  RecordProperty("live_bytes", static_cast<int>(bytes));
  RecordProperty("live_blocks", static_cast<int>(blocks));
}

// power-monitor.status reports the ring's real footprint: one row per
// stored sweep and the heap the store owns, as a store holding the same
// sweeps measures it here. The allocator rounds each block up by less than
// 16 bytes.
TEST(StoreHeap, StatusReportsTheStoreHeap) {
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, 1);
  flux::Instance instance(sim, {&cluster.node(0)});
  PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen();
  cfg.buffer_capacity = 16;
  instance.load_module_on_all<PowerMonitorModule>(cfg);
  sim.run_until(101.0);
  util::Json status;
  instance.root().rpc(flux::kRootRank, kStatusTopic, util::Json::object(),
                      [&](const flux::Message& resp) { status = resp.payload; });
  sim.run_until(101.5);
  ASSERT_EQ(status.int_or("buffer_size", 0), 16);

  const auto* module = dynamic_cast<const PowerMonitorModule*>(
      instance.root().find_module("power-monitor"));
  ASSERT_NE(module, nullptr);
  const ColumnarSampleStore& ring = *module->store();
  const std::int64_t bytes_before = test::heap_live_bytes();
  const std::int64_t blocks_before = test::heap_live_blocks();
  ColumnarSampleStore same(16);
  for (std::size_t i = 0; i < ring.size(); ++i) same.push(ring.get(i));
  const std::int64_t measured = test::heap_live_bytes() - bytes_before;
  const std::int64_t blocks = test::heap_live_blocks() - blocks_before;

  const std::int64_t reported = status.int_or("buffer_bytes", 0);
  EXPECT_LE(reported, measured);
  EXPECT_GT(reported + 16 * blocks, measured);
  // Timestamp, node, estimate, memory, 2 sockets, 4 GPUs and the metadata.
  EXPECT_EQ(status.int_or("sample_bytes", 0), 88);
  RecordProperty("reported_bytes", static_cast<int>(reported));
  RecordProperty("measured_bytes", static_cast<int>(measured));
}

}  // namespace
}  // namespace fluxpower::monitor
