// Regression tests for the sample store: it must reproduce
// util::RingBuffer<PowerSample> semantics exactly — element-for-element,
// across wraparound, late widening and lifetime inheritance — and its rows
// must never desynchronize from the per-slot metadata (check_integrity).
// The ColumnarStoreTable cases check stores that share one slot-major
// table, alone and as the node-agents of a sweep batch.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "hwsim/types.hpp"
#include "monitor/power_monitor.hpp"
#include "monitor/sample_store.hpp"
#include "sim/simulation.hpp"
#include "util/ring_buffer.hpp"

namespace fluxpower::monitor {
namespace {

using hwsim::PowerSample;

// Deterministic sample generator: varied domain presence, counts and
// flags so every column and flag bit is exercised.
struct SampleGen {
  std::uint64_t state;
  double t = 0.0;

  explicit SampleGen(std::uint64_t seed) : state(seed * 2654435761u + 1) {}

  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 17;
  }
  double watts() { return 100.0 + static_cast<double>(next() % 10000) / 13.0; }

  /// At most `max_cpu` sockets and `max_gpu` GPUs.
  PowerSample sample(std::size_t max_cpu = hwsim::kMaxSockets,
                     std::size_t max_gpu = hwsim::kMaxGpuSensors) {
    PowerSample s;
    t += 0.5 + static_cast<double>(next() % 4);  // strictly increasing
    s.timestamp_s = t;
    s.hostname = (next() % 2) == 0 ? "lassen7" : "tioga42";
    if (next() % 3 != 0) s.node_w = watts();
    if (next() % 2 == 0) s.node_estimate_w = watts();
    const std::size_t ncpu = next() % (max_cpu + 1);
    for (std::size_t c = 0; c < ncpu; ++c) s.cpu_w.push_back(watts());
    if (next() % 4 != 0) s.mem_w = watts();
    const std::size_t ngpu = next() % (max_gpu + 1);
    for (std::size_t g = 0; g < ngpu; ++g) s.gpu_w.push_back(watts());
    s.gpu_is_oam = (next() % 2) == 0;
    s.sensor_fault = (next() % 16) == 0;
    return s;
  }

  /// Every socket and GPU a PowerSample can carry.
  PowerSample widest() {
    PowerSample s = sample(0, 0);
    for (std::size_t c = 0; c < hwsim::kMaxSockets; ++c) {
      s.cpu_w.push_back(watts());
    }
    for (std::size_t g = 0; g < hwsim::kMaxGpuSensors; ++g) {
      s.gpu_w.push_back(watts());
    }
    return s;
  }
};

void expect_same_sample(const PowerSample& a, const PowerSample& b) {
  EXPECT_EQ(a.timestamp_s, b.timestamp_s);
  EXPECT_EQ(a.hostname.view(), b.hostname.view());
  EXPECT_EQ(a.node_w, b.node_w);
  EXPECT_EQ(a.node_estimate_w, b.node_estimate_w);
  EXPECT_TRUE(a.cpu_w == b.cpu_w);
  EXPECT_EQ(a.mem_w, b.mem_w);
  EXPECT_TRUE(a.gpu_w == b.gpu_w);
  EXPECT_EQ(a.gpu_is_oam, b.gpu_is_oam);
  EXPECT_EQ(a.sensor_fault, b.sensor_fault);
  EXPECT_EQ(a.best_node_w(), b.best_node_w());
}

/// Push `s` into both, then require the same ledger and an intact store.
void push_both(ColumnarSampleStore& store,
               util::RingBuffer<PowerSample>& reference,
               const PowerSample& s) {
  store.push(s);
  reference.push(s);
  ASSERT_EQ(store.size(), reference.size());
  ASSERT_EQ(store.total_pushed(), reference.total_pushed());
  ASSERT_EQ(store.evicted(), reference.evicted());
  ASSERT_TRUE(store.check_integrity())
      << "capacity " << store.capacity() << " push " << store.total_pushed();
}

void expect_same_contents(const ColumnarSampleStore& store,
                          const util::RingBuffer<PowerSample>& reference) {
  ASSERT_EQ(store.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_same_sample(store.get(i), reference[i]);
    EXPECT_EQ(store.timestamp_at(i), reference[i].timestamp_s);
  }
  expect_same_sample(store.front(), reference.front());
  expect_same_sample(store.back(), reference.back());
}

TEST(ColumnarStore, MatchesRingBufferAcrossWraparound) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                     std::size_t{64}, std::size_t{100}}) {
    ColumnarSampleStore store(capacity);
    util::RingBuffer<PowerSample> reference(capacity);
    SampleGen gen(capacity);
    // Wrap several times over.
    for (std::size_t i = 0; i < capacity * 4 + 3; ++i) {
      ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.sample()));
    }
    expect_same_contents(store, reference);
  }

  // Late widening: Lassen-width samples past the first wrap, then one with
  // every socket and GPU (the store re-lays out with its ring wrapped),
  // then narrow samples again.
  ColumnarSampleStore store(8);
  util::RingBuffer<PowerSample> reference(8);
  SampleGen gen(11);
  for (int i = 0; i < 11; ++i) {
    ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.sample(2, 4)));
  }
  ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.widest()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.sample(2, 4)));
  }
  expect_same_contents(store, reference);
  for (int i = 0; i < 12; ++i) {
    ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.sample(2, 4)));
  }
  expect_same_contents(store, reference);
}

TEST(ColumnarStore, LedgerIdentityAcrossClearAndInherit) {
  ColumnarSampleStore store(8);
  SampleGen gen(99);
  for (int i = 0; i < 20; ++i) store.push(gen.sample());
  EXPECT_EQ(store.total_pushed(), 20u);
  EXPECT_EQ(store.evicted(), 12u);

  // A set-config buffer swap clears the retained samples: the replacement
  // store inherits the predecessor's lifetime, exactly like
  // RingBuffer::inherit_lifetime, so every sample it never held counts as
  // evicted.
  ColumnarSampleStore replacement(4);
  replacement.inherit_lifetime(store.total_pushed());
  EXPECT_EQ(replacement.size(), 0u);
  EXPECT_EQ(replacement.evicted(), 20u);
  EXPECT_TRUE(replacement.check_integrity());
  for (int i = 0; i < 6; ++i) replacement.push(gen.sample());
  EXPECT_EQ(replacement.total_pushed(), 26u);
  EXPECT_EQ(replacement.size(), 4u);
  EXPECT_EQ(replacement.evicted(), 22u);
  EXPECT_TRUE(replacement.check_integrity());
}

TEST(ColumnarStore, WindowRangeMatchesLinearScan) {
  ColumnarSampleStore store(50);
  util::RingBuffer<PowerSample> reference(50);
  SampleGen gen(7);
  for (int i = 0; i < 130; ++i) {
    const PowerSample s = gen.sample();
    store.push(s);
    reference.push(s);
  }
  for (const auto [start, end] :
       {std::pair{0.0, 1e9}, std::pair{120.0, 200.0}, std::pair{0.0, 50.0},
        std::pair{200.0, 150.0}, std::pair{171.0, 171.0}}) {
    const auto [lo, hi] = store.window_range(start, end);
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (reference[i].timestamp_s >= start && reference[i].timestamp_s <= end) {
        expect.push_back(i);
      }
    }
    ASSERT_EQ(hi - lo, expect.size()) << "window [" << start << "," << end
                                      << "]";
    for (std::size_t k = 0; k < expect.size(); ++k) {
      EXPECT_EQ(lo + k, expect[k]);
    }
  }
}

TEST(ColumnarStore, ZeroCapacityThrows) {
  EXPECT_THROW(ColumnarSampleStore(0), std::invalid_argument);
}

TEST(ColumnarStoreTable, SharedStoresMatchRingBuffersUnderInterleavedPushes) {
  constexpr std::size_t kStores = 5;
  constexpr std::size_t kCapacity = 7;
  auto table = std::make_shared<SampleTable>(kStores, kCapacity, 2, 4);
  std::vector<ColumnarSampleStore> stores;
  std::vector<util::RingBuffer<PowerSample>> references;
  std::vector<SampleGen> gens;
  for (std::size_t i = 0; i < kStores; ++i) {
    stores.emplace_back(kCapacity);
    references.emplace_back(kCapacity);
    gens.emplace_back(100 + i);
    // Columns go to the preferred position when free: ask in reverse.
    ASSERT_TRUE(stores[i].attach(table, kStores - 1 - i));
    EXPECT_EQ(stores[i].column(), kStores - 1 - i);
  }
  EXPECT_EQ(table->free_columns(), 0u);
  ColumnarSampleStore extra(kCapacity);
  EXPECT_FALSE(extra.attach(table, 0)) << "a full table takes no column";
  ColumnarSampleStore other_capacity(kCapacity + 1);
  EXPECT_FALSE(other_capacity.attach(std::make_shared<SampleTable>(1, 7, 2, 4), 0))
      << "a table's slots must equal the store's capacity";

  // Uneven interleaving: store k takes a push on every step where the
  // generator of store 0 says so, so the columns wrap at different times.
  SampleGen order(1);
  for (int step = 0; step < 200; ++step) {
    const std::size_t k = order.next() % kStores;
    ASSERT_NO_FATAL_FAILURE(
        push_both(stores[k], references[k], gens[k].sample(2, 4)));
  }
  for (std::size_t k = 0; k < kStores; ++k) {
    EXPECT_EQ(stores[k].table(), table.get());
    expect_same_contents(stores[k], references[k]);
  }
}

TEST(ColumnarStoreTable, WiderSampleMovesOnlyItsOwnStore) {
  auto table = std::make_shared<SampleTable>(3, 8, 2, 4);
  std::vector<ColumnarSampleStore> stores;
  std::vector<util::RingBuffer<PowerSample>> references;
  std::vector<SampleGen> gens;
  for (std::size_t i = 0; i < 3; ++i) {
    stores.emplace_back(8);
    references.emplace_back(8);
    gens.emplace_back(40 + i);
    ASSERT_TRUE(stores[i].attach(table, i));
  }
  for (int round = 0; round < 11; ++round) {
    for (std::size_t k = 0; k < 3; ++k) {
      ASSERT_NO_FATAL_FAILURE(
          push_both(stores[k], references[k], gens[k].sample(2, 4)));
    }
  }
  // Store 1's ring has wrapped; a sample with every socket and GPU moves it,
  // rows and all, to a one-column table at the full widths.
  ASSERT_NO_FATAL_FAILURE(push_both(stores[1], references[1], gens[1].widest()));
  ASSERT_NE(stores[1].table(), table.get());
  EXPECT_EQ(stores[1].table()->columns(), 1u);
  EXPECT_EQ(stores[1].table()->cpu_width(), hwsim::kMaxSockets);
  EXPECT_EQ(stores[1].table()->gpu_width(), hwsim::kMaxGpuSensors);
  EXPECT_EQ(table->free_columns(), 1u);
  for (std::size_t k : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_EQ(stores[k].table(), table.get());
    EXPECT_EQ(stores[k].column(), k);
    EXPECT_EQ(stores[k].row_bytes(), 11 * sizeof(double));
  }
  for (int round = 0; round < 5; ++round) {
    for (std::size_t k = 0; k < 3; ++k) {
      ASSERT_NO_FATAL_FAILURE(
          push_both(stores[k], references[k], gens[k].sample(2, 4)));
    }
  }
  for (std::size_t k = 0; k < 3; ++k) {
    expect_same_contents(stores[k], references[k]);
  }
  // A column given back is taken again.
  ColumnarSampleStore late(8);
  ASSERT_TRUE(late.attach(table, 2));
  EXPECT_EQ(late.column(), 1u);
}

/// Lassen node-agents in one instance, loaded in rank order, so they join
/// one sweep batch in rank order.
class ColumnarStoreSweep : public ::testing::Test {
 protected:
  static constexpr int kNodes = 16;

  ColumnarStoreSweep() {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922,
                                   kNodes);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < kNodes; ++i) nodes.push_back(&cluster_.node(i));
    instance_ = std::make_unique<flux::Instance>(sim_, std::move(nodes));
    instance_->load_module_on_all<PowerMonitorModule>(config());
  }

  static PowerMonitorConfig config() {
    PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen();
    cfg.buffer_capacity = 16;
    cfg.archive_jobs = false;
    return cfg;
  }

  const PowerMonitorModule* agent(flux::Rank r) {
    return dynamic_cast<const PowerMonitorModule*>(
        instance_->broker(r).find_module("power-monitor"));
  }

  /// samples == evicted + size + sensor_failures on every rank.
  void expect_ledgers_hold() {
    for (flux::Rank r = 0; r < kNodes; ++r) {
      const PowerMonitorModule* a = agent(r);
      ASSERT_NE(a, nullptr);
      EXPECT_EQ(a->samples_taken(), a->store()->evicted() + a->store()->size() +
                                        a->sensor_failures())
          << "rank " << r;
      EXPECT_TRUE(a->store()->check_integrity()) << "rank " << r;
    }
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<flux::Instance> instance_;
};

TEST_F(ColumnarStoreSweep, OneSweepWritesOneRunOfRows) {
  sim_.run_until(2.5);  // one sweep
  const SampleTable* table = agent(0)->store()->table();
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->columns(), static_cast<std::size_t>(kNodes));
  const std::size_t row_bytes = agent(0)->store()->row_bytes();
  EXPECT_EQ(row_bytes, 88u);
  for (int sweep = 1; sweep <= 3; ++sweep) {
    // The newest row of each agent: slot size - 1, since no ring wrapped.
    for (flux::Rank r = 0; r < kNodes; ++r) {
      const ColumnarSampleStore& store = *agent(r)->store();
      ASSERT_EQ(store.table(), table);
      EXPECT_EQ(store.column(), static_cast<std::size_t>(r));
      ASSERT_EQ(store.size(), static_cast<std::size_t>(sweep));
      if (r == 0) continue;
      const auto* prev = reinterpret_cast<const char*>(
          table->find_row(store.size() - 1, store.column() - 1));
      const auto* mine = reinterpret_cast<const char*>(
          table->find_row(store.size() - 1, store.column()));
      EXPECT_EQ(mine - prev, static_cast<std::ptrdiff_t>(row_bytes))
          << "rank " << r << " sweep " << sweep;
    }
    sim_.run_until(sim_.now() + 2.0);
  }
}

TEST_F(ColumnarStoreSweep, SetConfigCapacityKeepsTheLedger) {
  sim_.run_until(41.0);  // every ring has wrapped
  const SampleTable* table = agent(0)->store()->table();
  bool acked = false;
  util::Json payload = util::Json::object();
  payload["buffer_capacity"] = 4;
  instance_->broker(5).rpc(5, kSetConfigTopic, std::move(payload),
                           [&](const flux::Message& resp) {
                             acked = resp.errnum == 0;
                           });
  sim_.run_until(41.5);
  ASSERT_TRUE(acked);
  ASSERT_NO_FATAL_FAILURE(expect_ledgers_hold());
  EXPECT_EQ(agent(5)->store()->size(), 0u);
  EXPECT_EQ(agent(5)->store()->evicted(), 20u);
  EXPECT_EQ(table->free_columns(), 1u) << "the old ring gave its column back";

  sim_.run_until(61.0);
  ASSERT_NO_FATAL_FAILURE(expect_ledgers_hold());
  // The new ring cannot live in a table of capacity-16 columns.
  const ColumnarSampleStore& moved = *agent(5)->store();
  EXPECT_NE(moved.table(), table);
  EXPECT_EQ(moved.table()->columns(), 1u);
  EXPECT_EQ(moved.size(), 4u);
  EXPECT_EQ(agent(6)->store()->table(), table);

  // Back to 16: the ring takes the free column again.
  payload = util::Json::object();
  payload["buffer_capacity"] = 16;
  instance_->broker(5).rpc(5, kSetConfigTopic, std::move(payload),
                           [](const flux::Message&) {});
  sim_.run_until(81.0);
  ASSERT_NO_FATAL_FAILURE(expect_ledgers_hold());
  EXPECT_EQ(agent(5)->store()->table(), table);
  EXPECT_EQ(agent(5)->store()->column(), 5u);
  EXPECT_EQ(table->free_columns(), 0u);
}

TEST_F(ColumnarStoreSweep, UnloadAndReloadReuseColumns) {
  sim_.run_until(10.0);  // the batch has just fired and re-armed
  const SampleTable* table = agent(0)->store()->table();
  for (flux::Rank r : {3, 9}) {
    instance_->broker(r).unload_module("power-monitor");
  }
  EXPECT_EQ(table->free_columns(), 2u);
  // Nothing was enqueued since the batch re-armed, so both reloaded agents
  // rejoin it, at the back, and take the two free columns.
  for (flux::Rank r : {9, 3}) {
    instance_->broker(r).load_module(
        std::make_shared<PowerMonitorModule>(config()));
  }
  sim_.run_until(30.0);
  EXPECT_EQ(table->free_columns(), 0u);
  EXPECT_EQ(agent(9)->store()->table(), table);
  EXPECT_EQ(agent(3)->store()->table(), table);
  EXPECT_EQ(agent(9)->store()->column() + agent(3)->store()->column(), 12u);
  ASSERT_NO_FATAL_FAILURE(expect_ledgers_hold());
  EXPECT_EQ(agent(3)->store()->size(), 10u);

  // Every agent out retires the batch and frees its table; back in, the
  // agents lay out a new one.
  for (flux::Rank r = 0; r < kNodes; ++r) {
    instance_->broker(r).unload_module("power-monitor");
  }
  instance_->load_module_on_all<PowerMonitorModule>(config());
  sim_.run_until(40.0);
  ASSERT_NO_FATAL_FAILURE(expect_ledgers_hold());
  EXPECT_EQ(agent(0)->store()->size(), 5u);
}

}  // namespace
}  // namespace fluxpower::monitor
