// Heap held by node-agent sample stores. The stores of one sweep batch are
// the columns of one slot-major table, allocated by pages of slots as the
// columns enter them, so a store costs its rows and a share of the table's
// bookkeeping and allocates no block of its own. At 65,536 node-agents
// every byte here is multiplied by the site size, and power-monitor.status
// reports it.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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

constexpr std::size_t kColumns = 64;

// Named for the layout before shared tables, when a store was a row block
// and a hostname table of its own. The gate is now per store of a shared
// table: 64 capacity-16 Lassen stores after 40 sweeps each.
TEST(StoreHeap, LassenStoreFitsInThreeBlocks) {
  hwsim::PowerSample s = lassen_sample();
  ASSERT_EQ(s.cpu_w.size(), 2u);
  ASSERT_EQ(s.gpu_w.size(), 4u);

  std::vector<ColumnarSampleStore> stores;
  stores.reserve(kColumns);
  const std::int64_t bytes_before = test::heap_live_bytes();
  const std::int64_t blocks_before = test::heap_live_blocks();
  std::int64_t bytes = 0;
  std::int64_t blocks = 0;
  std::uint64_t wrap_news = 0;
  {
    auto table = std::make_shared<SampleTable>(kColumns, 16, 2, 4);
    for (std::size_t c = 0; c < kColumns; ++c) {
      stores.emplace_back(16);
      ASSERT_TRUE(stores.back().attach(table, c));
    }
    for (int i = 0; i < 40; ++i) {
      if (i == 16) wrap_news = test::heap_allocations();
      s.timestamp_s = 2.0 * i;
      for (ColumnarSampleStore& store : stores) store.push(s);
    }
    wrap_news = test::heap_allocations() - wrap_news;
    bytes = test::heap_live_bytes() - bytes_before;
    blocks = test::heap_live_blocks() - blocks_before;
    for (const ColumnarSampleStore& store : stores) {
      EXPECT_EQ(store.size(), 16u);
      EXPECT_TRUE(store.check_integrity());
    }
    stores.clear();
  }
  EXPECT_EQ(test::heap_live_bytes(), bytes_before)
      << "destroyed stores return the table's heap";
  EXPECT_EQ(wrap_news, 0u) << "pushes into full rings allocate nothing";
  // The table object, its page pointers, its column flags and five pages
  // (1, 2, 4, 8 and 1 slots): the stores allocate nothing of their own.
  EXPECT_LE(blocks, 8);
  const std::int64_t per_store = bytes / static_cast<std::int64_t>(kColumns);
  // 16 rows of 88 B are 1,408 B; a store of its own used 1,456 B.
  EXPECT_LE(per_store, 1456) << "usable heap per capacity-16 Lassen store";
  RecordProperty("live_bytes_per_store", static_cast<int>(per_store));
  RecordProperty("live_blocks", static_cast<int>(blocks));
}

// power-monitor.status reports the ring's real footprint: one row per
// stored sweep and the heap that holds it, as stores sharing a table the
// way the node-agents' do measure it here. The allocator rounds each block
// up by less than 16 bytes, so the report may fall short of the measure by
// that much per block, spread over the table's columns.
TEST(StoreHeap, StatusReportsTheStoreHeap) {
  sim::Simulation sim;
  hwsim::Cluster cluster = hwsim::make_cluster(
      sim, hwsim::Platform::LassenIbmAc922, static_cast<int>(kColumns));
  std::vector<hwsim::Node*> nodes;
  for (std::size_t i = 0; i < kColumns; ++i) {
    nodes.push_back(&cluster.node(static_cast<int>(i)));
  }
  flux::Instance instance(sim, std::move(nodes));
  PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen();
  cfg.buffer_capacity = 16;
  cfg.archive_jobs = false;
  instance.load_module_on_all<PowerMonitorModule>(cfg);
  sim.run_until(101.0);
  util::Json status;
  instance.root().rpc(7, kStatusTopic, util::Json::object(),
                      [&](const flux::Message& resp) { status = resp.payload; });
  sim.run_until(101.5);
  ASSERT_EQ(status.int_or("buffer_size", 0), 16);

  const auto* module = dynamic_cast<const PowerMonitorModule*>(
      instance.broker(7).find_module("power-monitor"));
  ASSERT_NE(module, nullptr);
  const ColumnarSampleStore& ring = *module->store();
  ASSERT_NE(ring.table(), nullptr);
  ASSERT_EQ(ring.table()->columns(), kColumns);

  std::vector<ColumnarSampleStore> same;
  same.reserve(kColumns);
  const std::int64_t bytes_before = test::heap_live_bytes();
  const std::int64_t blocks_before = test::heap_live_blocks();
  auto table = std::make_shared<SampleTable>(kColumns, 16, 2, 4);
  for (std::size_t c = 0; c < kColumns; ++c) {
    same.emplace_back(16);
    ASSERT_TRUE(same.back().attach(table, c));
  }
  table.reset();
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const hwsim::PowerSample s = ring.get(i);
    for (ColumnarSampleStore& store : same) store.push(s);
  }
  const std::int64_t measured = (test::heap_live_bytes() - bytes_before) /
                                static_cast<std::int64_t>(kColumns);
  const std::int64_t blocks = test::heap_live_blocks() - blocks_before;

  const std::int64_t reported = status.int_or("buffer_bytes", 0);
  EXPECT_EQ(reported, static_cast<std::int64_t>(same.front().heap_bytes()));
  EXPECT_LE(reported, measured);
  // Each block's rounding and the table's control block, per column.
  EXPECT_GE(reported + (16 * (blocks + 1) + static_cast<std::int64_t>(kColumns) - 1) /
                           static_cast<std::int64_t>(kColumns),
            measured);
  EXPECT_LE(reported, 1456);
  // Timestamp, node, estimate, memory, 2 sockets, 4 GPUs and the metadata.
  EXPECT_EQ(status.int_or("sample_bytes", 0), 88);
  RecordProperty("reported_bytes", static_cast<int>(reported));
  RecordProperty("measured_bytes", static_cast<int>(measured));
}

// The 100k-sample default is never allocated up front: a store allocates
// its table at its first push and a page each time it enters one, slots
// 2^k - 1 for k = 0, 1, ..., and nothing else, not even when it wraps.
TEST(StoreHeap, HundredThousandSlotStoreAllocatesOnlyOnEnteringAPage) {
  constexpr std::size_t kCapacity = 100000;
  hwsim::PowerSample s = lassen_sample();
  ColumnarSampleStore store(kCapacity);
  const std::int64_t bytes_before = test::heap_live_bytes();
  s.timestamp_s = 0.0;
  store.push(s);
  EXPECT_LT(test::heap_live_bytes() - bytes_before, 1024)
      << "the first push allocates a one-column table and a one-slot page";
  std::size_t pages = 1;
  for (std::size_t slot = 1; slot < kCapacity + 1000; ++slot) {
    const std::uint64_t before = test::heap_allocations();
    s.timestamp_s = 2.0 * static_cast<double>(slot);
    store.push(s);
    const std::uint64_t news = test::heap_allocations() - before;
    const bool enters_page = slot < kCapacity && std::has_single_bit(slot + 1);
    ASSERT_EQ(news, enters_page ? 1u : 0u) << "slot " << slot;
    pages += news;
  }
  EXPECT_EQ(pages, 17u);  // slots 0, 1, 3, ..., 65535
  EXPECT_EQ(store.size(), kCapacity);
  EXPECT_EQ(store.evicted(), 1000u);
  EXPECT_TRUE(store.check_integrity());
  // Rows for the capacity exactly, no more.
  EXPECT_EQ(store.table()->allocated_slots(), kCapacity);
}

}  // namespace
}  // namespace fluxpower::monitor
