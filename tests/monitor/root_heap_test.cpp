// Heap held by the query root across repeated job queries. The subtree
// merge is stateless: each broker builds its batch for one query and the
// batch dies with the answer, so after the first query has warmed the
// brokers' RPC tables and event slots, further queries over every rank
// leave the live heap where it was. The rings are full (capacity 16), so
// sampling allocates nothing in between.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "apps/launcher.hpp"
#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/client.hpp"
#include "monitor/power_monitor.hpp"

// Test-local operator-new counter (the monitor_store_heap_test pattern):
// live usable bytes, so allocator rounding counts too. Scoped to this
// binary.
namespace {
std::int64_t g_live_bytes = 0;
}  // namespace
void* operator new(std::size_t n) {
  void* p = std::malloc(n);
  if (p == nullptr) throw std::bad_alloc{};
  g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace fluxpower::monitor {
namespace {

constexpr int kNodes = 64;

TEST(RootHeap, RepeatedJobQueriesLeaveHeapFlat) {
  sim::Simulation sim;
  hwsim::Cluster cluster =
      hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, kNodes);
  std::vector<hwsim::Node*> nodes;
  for (int i = 0; i < kNodes; ++i) nodes.push_back(&cluster.node(i));
  flux::Instance instance(sim, std::move(nodes));
  instance.jobs().set_launcher(
      apps::make_launcher({.platform = hwsim::Platform::LassenIbmAc922}));
  PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen();
  cfg.buffer_capacity = 16;
  cfg.archive_jobs = false;
  instance.load_module_on_all<PowerMonitorModule>(cfg);

  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = kNodes;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = 2.0;
  const flux::JobId id = instance.jobs().submit(spec);
  while (!instance.jobs().job(id).done() && sim.step()) {
  }
  sim.run_until(sim.now() + 40.0);  // every ring has wrapped

  MonitorClient client(instance);
  // Queries are spaced past the longest RPC timeout (15 s), so each one's
  // timer entries have drained before the next is issued.
  auto query = [&] {
    const auto data = client.query_blocking(id);
    ASSERT_TRUE(data.has_value());
    ASSERT_EQ(data->nodes.size(), static_cast<std::size_t>(kNodes));
    sim.run_until(sim.now() + 20.0);
  };
  const std::int64_t before = g_live_bytes;
  ASSERT_NO_FATAL_FAILURE(query());
  const std::int64_t warmed = g_live_bytes;
  for (int q = 0; q < 20; ++q) ASSERT_NO_FATAL_FAILURE(query());
  const std::int64_t after = g_live_bytes;

  EXPECT_EQ(after, warmed) << "repeated queries hold no heap";
  // A per-rank mirror of a capacity-16 Lassen ring takes about 1.6 KB, so
  // 63 of them would be ~100 KB.
  EXPECT_LE(warmed - before, 8192) << "the first query keeps only plumbing";
  RecordProperty("first_query_bytes", static_cast<int>(warmed - before));
  RecordProperty("later_query_bytes", static_cast<int>(after - warmed));
}

}  // namespace
}  // namespace fluxpower::monitor
