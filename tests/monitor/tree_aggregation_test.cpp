// Tests for the TBON tree-reduction telemetry aggregation.
#include <gtest/gtest.h>

#include "apps/launcher.hpp"
#include "flux/instance.hpp"
#include "flux/telemetry.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/client.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower::monitor {
namespace {

class TreeAggregationTest : public ::testing::Test {
 protected:
  void build(int nodes, int fanout, bool tree) {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922, nodes);
    std::vector<hwsim::Node*> ptrs;
    for (int i = 0; i < nodes; ++i) ptrs.push_back(&cluster_.node(i));
    flux::InstanceConfig icfg;
    icfg.tbon_fanout = fanout;
    instance_ = std::make_unique<flux::Instance>(sim_, std::move(ptrs), icfg);
    instance_->jobs().set_launcher(apps::make_launcher(
        {.platform = hwsim::Platform::LassenIbmAc922}));
    PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen();
    cfg.tree_aggregation = tree;
    instance_->load_module_on_all<PowerMonitorModule>(cfg);
  }

  util::Json subtree_query(const std::vector<flux::Rank>& ranks, double start,
                           double end) {
    util::Json req = util::Json::object();
    req["start"] = start;
    req["end"] = end;
    util::Json arr = util::Json::array();
    for (flux::Rank r : ranks) arr.push_back(r);
    req["ranks"] = std::move(arr);
    util::Json got;
    instance_->root().rpc(flux::kRootRank, kGetSubtreeTopic, std::move(req),
                          [&](const flux::Message& resp) {
                            got = flux::render_telemetry_payload(
                                resp.payload, *resp.telemetry);
                          });
    sim_.run_until(sim_.now() + 1.0);
    return got;
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<flux::Instance> instance_;
};

TEST_F(TreeAggregationTest, SubtreeReturnsExactlyRequestedRanks) {
  build(15, 2, true);
  sim_.run_until(10.0);
  const auto got = subtree_query({0, 3, 7, 12, 14}, 0.0, 10.0);
  ASSERT_TRUE(got.is_object());
  ASSERT_EQ(got.at("nodes").size(), 5u);
  std::vector<int> seen;
  for (const util::Json& n : got.at("nodes").as_array()) {
    seen.push_back(static_cast<int>(n.int_or("rank", -1)));
    EXPECT_TRUE(n.bool_or("complete", false));
    EXPECT_EQ(n.at("samples").size(), 5u);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 3, 7, 12, 14}));
}

TEST_F(TreeAggregationTest, EmptyRankListYieldsEmptyNodes) {
  build(4, 2, true);
  sim_.run_until(5.0);
  const auto got = subtree_query({}, 0.0, 5.0);
  EXPECT_EQ(got.at("nodes").size(), 0u);
}

TEST_F(TreeAggregationTest, TreeAndFanOutAgree) {
  // Run the same job under both strategies; the client-visible results
  // must be identical in shape and statistics.
  auto run_mode = [](bool tree) {
    sim::Simulation sim;
    hwsim::Cluster cluster =
        hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, 8);
    std::vector<hwsim::Node*> ptrs;
    for (int i = 0; i < cluster.size(); ++i) ptrs.push_back(&cluster.node(i));
    flux::Instance instance(sim, std::move(ptrs));
    instance.jobs().set_launcher(apps::make_launcher(
        {.platform = hwsim::Platform::LassenIbmAc922}));
    PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen();
    cfg.tree_aggregation = tree;
    instance.load_module_on_all<PowerMonitorModule>(cfg);

    flux::JobSpec spec;
    spec.name = "laghos";
    spec.app = "laghos";
    spec.nnodes = 5;
    spec.attributes = util::Json::object();
    spec.attributes["work_scale"] = 3.0;
    const flux::JobId id = instance.jobs().submit(spec);
    while (!instance.jobs().job(id).done() && sim.step()) {
    }
    MonitorClient client(instance);
    return client.query_blocking(id);
  };
  const auto tree = run_mode(true);
  const auto fan = run_mode(false);
  ASSERT_TRUE(tree && fan);
  ASSERT_EQ(tree->nodes.size(), fan->nodes.size());
  EXPECT_EQ(tree->nodes.size(), 5u);
  for (std::size_t i = 0; i < tree->nodes.size(); ++i) {
    EXPECT_EQ(tree->nodes[i].rank, fan->nodes[i].rank);
    EXPECT_EQ(tree->nodes[i].samples.size(), fan->nodes[i].samples.size());
  }
  EXPECT_NEAR(tree->average_node_power_w(), fan->average_node_power_w(), 15.0);
}

TEST_F(TreeAggregationTest, RootFanInBoundedByFanout) {
  build(31, 2, true);
  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = 31;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = 2.0;
  const flux::JobId id = instance_->jobs().submit(spec);
  while (!instance_->jobs().job(id).done() && sim_.step()) {
  }
  const auto rx_before = instance_->root().messages_received();
  MonitorClient client(*instance_);
  auto data = client.query_blocking(id);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->nodes.size(), 31u);
  // Root receives: the client's query request, the job-info request (it is
  // also the responder), its own subtree request + 2 child responses —
  // far fewer than 31.
  EXPECT_LE(instance_->root().messages_received() - rx_before, 10u);
}

TEST_F(TreeAggregationTest, DeadSubtreeDegradesToPartialEntries) {
  build(7, 2, true);
  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = 7;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = 3.0;
  const flux::JobId id = instance_->jobs().submit(spec);
  while (!instance_->jobs().job(id).done() && sim_.step()) {
  }
  // Unload the monitor on rank 1: its entire subtree {1,3,4} goes dark for
  // subtree queries (rank 1 no longer forwards).
  instance_->broker(1).unload_module("power-monitor");
  MonitorClient client(*instance_);
  auto data = client.query_blocking(id);
  ASSERT_TRUE(data.has_value());
  ASSERT_EQ(data->nodes.size(), 7u);
  int partial = 0;
  for (const auto& n : data->nodes) {
    if (!n.complete) ++partial;
  }
  EXPECT_EQ(partial, 3);  // ranks 1, 3, 4
}

TEST_F(TreeAggregationTest, DecimationAppliesPerNodeThroughTree) {
  build(7, 2, true);
  sim_.run_until(120.0);
  util::Json req = util::Json::object();
  req["start"] = 0.0;
  req["end"] = 120.0;
  req["max_samples"] = 10;
  util::Json arr = util::Json::array();
  for (int r = 0; r < 7; ++r) arr.push_back(r);
  req["ranks"] = std::move(arr);
  util::Json got;
  instance_->root().rpc(flux::kRootRank, kGetSubtreeTopic, std::move(req),
                        [&](const flux::Message& resp) {
                          got = flux::render_telemetry_payload(
                              resp.payload, *resp.telemetry);
                        });
  sim_.run_until(121.0);
  ASSERT_EQ(got.at("nodes").size(), 7u);
  for (const util::Json& n : got.at("nodes").as_array()) {
    EXPECT_TRUE(n.bool_or("decimated", false));
    EXPECT_EQ(n.at("samples").size(), 10u);
  }
}

}  // namespace
}  // namespace fluxpower::monitor
