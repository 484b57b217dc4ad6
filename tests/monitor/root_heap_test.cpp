// Heap the query path allocates and holds. The subtree merge is
// stateless: each broker builds its batch for one query and the batch dies
// with the answer, so after the first query has warmed the brokers' RPC
// tables and event slots, further queries over every rank leave the live
// heap where it was. And the samples are copied once, out of each
// node-agent's ring: TBON hops and the client share the entries by
// pointer. The rings are full (capacity 16), so sampling allocates nothing
// in between.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "apps/launcher.hpp"
#include "counting_allocator.hpp"
#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/client.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower::monitor {
namespace {

constexpr int kNodes = 64;

/// 64 Lassen node-agents with capacity-16 rings, all wrapped after a job
/// that ran on every node.
class RootHeap : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922,
                                   kNodes);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < kNodes; ++i) nodes.push_back(&cluster_.node(i));
    instance_ = std::make_unique<flux::Instance>(sim_, std::move(nodes));
    instance_->jobs().set_launcher(
        apps::make_launcher({.platform = hwsim::Platform::LassenIbmAc922}));
    PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen();
    cfg.buffer_capacity = 16;
    cfg.archive_jobs = false;
    instance_->load_module_on_all<PowerMonitorModule>(cfg);

    flux::JobSpec spec;
    spec.name = "laghos";
    spec.app = "laghos";
    spec.nnodes = kNodes;
    spec.attributes = util::Json::object();
    spec.attributes["work_scale"] = 2.0;
    job_ = instance_->jobs().submit(spec);
    while (!instance_->jobs().job(job_).done() && sim_.step()) {
    }
    sim_.run_until(sim_.now() + 40.0);  // every ring has wrapped
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<flux::Instance> instance_;
  flux::JobId job_ = 0;
};

TEST_F(RootHeap, RepeatedJobQueriesLeaveHeapFlat) {
  MonitorClient client(*instance_);
  // Queries are spaced past the longest RPC timeout (15 s), so each one's
  // timer entries have drained before the next is issued.
  auto query = [&] {
    const auto data = client.query_blocking(job_);
    ASSERT_TRUE(data.has_value());
    ASSERT_EQ(data->nodes.size(), static_cast<std::size_t>(kNodes));
    sim_.run_until(sim_.now() + 20.0);
  };
  const std::int64_t before = test::heap_live_bytes();
  ASSERT_NO_FATAL_FAILURE(query());
  const std::int64_t warmed = test::heap_live_bytes();
  for (int q = 0; q < 20; ++q) ASSERT_NO_FATAL_FAILURE(query());
  const std::int64_t after = test::heap_live_bytes();

  EXPECT_EQ(after, warmed) << "repeated queries hold no heap";
  // A per-rank mirror of a capacity-16 Lassen ring takes about 1.6 KB, so
  // 63 of them would be ~100 KB.
  EXPECT_LE(warmed - before, 8192) << "the first query keeps only plumbing";
  RecordProperty("first_query_bytes", static_cast<int>(warmed - before));
  RecordProperty("later_query_bytes", static_cast<int>(after - warmed));
}

// One window query over every full ring ships 64 x 16 samples. Each is
// copied once, out of its ring, and TBON hops and the client share it by
// pointer. Each merging hop keeps only a reply address, not a copy of its
// request and rank list, and RPC timeouts read their topic from the
// interned table, so the rest of the query (requests, rank lists, entry and
// batch headers) stays under three quarters of the samples' bytes: 376,712
// B allocated in all for 221,184 B of samples, where copying each request
// took 419,258 B. A copy per TBON level would not fit either.
TEST_F(RootHeap, WindowQueryCopiesEachSampleOnce) {
  MonitorClient client(*instance_);
  std::vector<flux::Rank> ranks(kNodes);
  std::iota(ranks.begin(), ranks.end(), 0);
  const std::uint64_t before = test::heap_requested_bytes();
  const auto data = client.query_window_blocking(ranks, 0.0, sim_.now());
  const std::uint64_t allocated = test::heap_requested_bytes() - before;
  ASSERT_TRUE(data.has_value());
  ASSERT_EQ(data->nodes.size(), static_cast<std::size_t>(kNodes));
  std::size_t samples = 0;
  for (const NodePowerData& n : data->nodes) samples += n.samples.size();
  ASSERT_EQ(samples, static_cast<std::size_t>(kNodes) * 16);
  const std::uint64_t sample_bytes = samples * sizeof(hwsim::PowerSample);
  EXPECT_LE(allocated, sample_bytes + 3 * sample_bytes / 4)
      << allocated << " B allocated for " << sample_bytes << " B of samples";
  RecordProperty("query_bytes", static_cast<int>(allocated));
}

}  // namespace
}  // namespace fluxpower::monitor
