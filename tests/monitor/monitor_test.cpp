// Tests for flux-power-monitor: node-agent, root-agent, client (§III-A).
#include "monitor/power_monitor.hpp"

#include <gtest/gtest.h>

#include "apps/launcher.hpp"
#include "flux/codec.hpp"
#include "flux/instance.hpp"
#include "flux/telemetry.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/client.hpp"
#include "util/csv.hpp"
#include "variorum/variorum.hpp"

namespace fluxpower::monitor {
namespace {

using hwsim::Platform;

class MonitorTest : public ::testing::Test {
 protected:
  void build(int nodes, Platform platform = Platform::LassenIbmAc922,
             PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen()) {
    cluster_ = hwsim::make_cluster(sim_, platform, nodes);
    std::vector<hwsim::Node*> ptrs;
    for (int i = 0; i < nodes; ++i) ptrs.push_back(&cluster_.node(i));
    instance_ = std::make_unique<flux::Instance>(sim_, std::move(ptrs));
    apps::LauncherOptions lopts;
    lopts.platform = platform;
    instance_->jobs().set_launcher(apps::make_launcher(lopts));
    instance_->load_module_on_all<PowerMonitorModule>(cfg);
  }

  PowerMonitorModule* module(int rank) {
    return dynamic_cast<PowerMonitorModule*>(
        instance_->broker(rank).find_module("power-monitor"));
  }

  /// Send `payload` exactly as given (no protocol key) and return the
  /// response.
  flux::Message ask(flux::Rank dest, const char* topic, util::Json payload) {
    flux::Message got;
    instance_->root().rpc(dest, topic, std::move(payload),
                          [&](const flux::Message& resp) { got = resp; });
    sim_.run_until(sim_.now() + 1.0);
    return got;
  }

  /// Rank `rank`'s complete window [start, end] in the per-node shape of the
  /// JSON data plane, built from the node-agent's ring.
  util::Json historical_entry(flux::Rank rank, double start, double end) {
    const ColumnarSampleStore& store = *module(rank)->store();
    util::Json samples = util::Json::array();
    const auto [lo, hi] = store.window_range(start, end);
    for (std::size_t i = lo; i < hi; ++i) {
      samples.push_back(variorum::render_node_power_json(store.get(i)));
    }
    util::Json entry = util::Json::object();
    entry["hostname"] = cluster_.node(rank).hostname();
    entry["rank"] = rank;
    entry["complete"] = true;
    entry["decimated"] = false;
    entry["samples"] = std::move(samples);
    return entry;
  }

  /// The payload `resp` carries on the wire.
  static std::string wire_payload(const flux::Message& resp) {
    return util::Json::parse(flux::encode_message(resp)).at("payload").dump();
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<flux::Instance> instance_;
};

TEST_F(MonitorTest, SamplesEveryTwoSeconds) {
  build(2);
  sim_.run_until(20.5);
  EXPECT_EQ(module(0)->samples_taken(), 10u);
  EXPECT_EQ(module(1)->samples_taken(), 10u);
}

TEST_F(MonitorTest, CustomSamplingPeriod) {
  PowerMonitorConfig cfg;
  cfg.sample_period_s = 0.5;
  build(1, Platform::LassenIbmAc922, cfg);
  sim_.run_until(10.25);
  EXPECT_EQ(module(0)->samples_taken(), 20u);
}

TEST_F(MonitorTest, GetDataReturnsWindowedSamples) {
  build(1);
  sim_.run_until(30.0);
  util::Json window = util::Json::object();
  window["start"] = 10.0;
  window["end"] = 20.0;
  util::Json got;
  instance_->root().rpc(0, kGetDataTopic, std::move(window),
                        [&](const flux::Message& resp) {
                          got = flux::render_telemetry_payload(
                              resp.payload, *resp.telemetry);
                        });
  sim_.run_until(31.0);
  ASSERT_TRUE(got.is_object());
  EXPECT_TRUE(got.bool_or("complete", false));
  // Samples at t = 10..20 inclusive on the 2 s grid: 6 samples.
  EXPECT_EQ(got.at("samples").size(), 6u);
  EXPECT_EQ(got.string_or("hostname", ""), "lassen0");
}

TEST_F(MonitorTest, StatelessAgentKnowsNothingOfJobs) {
  // The node-agent samples while idle, before any job exists — that is
  // what "stateless" means in §III-A.
  build(1);
  sim_.run_until(6.0);
  EXPECT_GE(module(0)->samples_taken(), 2u);
}

TEST_F(MonitorTest, BufferEvictionFlagsPartialData) {
  PowerMonitorConfig cfg;
  cfg.buffer_capacity = 5;  // tiny buffer: wraps after 10 s
  build(1, Platform::LassenIbmAc922, cfg);
  sim_.run_until(60.0);
  util::Json window = util::Json::object();
  window["start"] = 0.0;
  window["end"] = 60.0;
  util::Json got;
  instance_->root().rpc(0, kGetDataTopic, std::move(window),
                        [&](const flux::Message& resp) {
                          got = flux::render_telemetry_payload(
                              resp.payload, *resp.telemetry);
                        });
  sim_.run_until(61.0);
  EXPECT_FALSE(got.bool_or("complete", true));
  EXPECT_EQ(got.at("samples").size(), 5u);
}

TEST_F(MonitorTest, StatusServiceReportsBufferState) {
  PowerMonitorConfig cfg;
  cfg.buffer_capacity = 4;
  build(1, Platform::LassenIbmAc922, cfg);
  sim_.run_until(21.0);
  util::Json got;
  instance_->root().rpc(0, kStatusTopic, util::Json::object(),
                        [&](const flux::Message& resp) { got = resp.payload; });
  sim_.run_until(22.0);
  EXPECT_EQ(got.int_or("samples_taken", 0), 10);
  EXPECT_EQ(got.int_or("buffer_size", 0), 4);
  EXPECT_EQ(got.int_or("evicted", 0), 6);
  EXPECT_DOUBLE_EQ(got.number_or("sample_period_s", 0.0), 2.0);
}

TEST_F(MonitorTest, QueryJobAggregatesAcrossNodes) {
  build(4);
  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = 3;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = 4.0;  // ~50 s
  const flux::JobId id = instance_->jobs().submit(spec);
  while (!instance_->jobs().job(id).done() && sim_.step()) {
  }
  MonitorClient client(*instance_);
  auto data = client.query_blocking(id);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->job_id, id);
  EXPECT_EQ(data->app, "laghos");
  ASSERT_EQ(data->nodes.size(), 3u);
  for (const NodePowerData& n : data->nodes) {
    EXPECT_TRUE(n.complete);
    EXPECT_GT(n.samples.size(), 10u);
  }
  // Ranks are sorted for stable presentation.
  EXPECT_LT(data->nodes[0].rank, data->nodes[1].rank);
  // Laghos draws ~470 W/node on Lassen (Table II).
  EXPECT_NEAR(data->average_node_power_w(), 470.0, 60.0);
  EXPECT_GT(data->max_aggregate_power_w(),
            0.9 * 3 * data->average_node_power_w());
}

// The job's peak aggregate sums each timestamp over every node that has
// it, wherever the nodes' grids start, stop or skip, and in whatever order
// a node lists its samples.
TEST(JobAggregates, MaxAggregateSumsEachTimestampAcrossNodes) {
  auto sample = [](double t, double w) {
    hwsim::PowerSample s;
    s.timestamp_s = t;
    s.node_w = w;
    return s;
  };
  const std::vector<hwsim::PowerSample> a = {
      sample(0, 100), sample(2, 110), sample(4, 120), sample(6, 130)};
  const std::vector<hwsim::PowerSample> b = {  // starts late, skips t = 4
      sample(2, 200), sample(6, 260), sample(8, 280)};
  const std::vector<hwsim::PowerSample> c = {  // out of order, t = 2 twice
      sample(6, 360), sample(2, 320), sample(2, 5), sample(0, 300)};
  JobPowerData data;
  for (const std::vector<hwsim::PowerSample>* v : {&a, &b, &c}) {
    NodePowerData node;
    node.samples = *v;
    data.nodes.push_back(std::move(node));
  }
  // Per timestamp: 400, 635, 120, 750 and 280 W.
  EXPECT_DOUBLE_EQ(data.max_aggregate_power_w(), 750.0);
}

TEST_F(MonitorTest, QueryUnknownJobFails) {
  build(2);
  MonitorClient client(*instance_);
  std::string error;
  bool called = false;
  client.query(999, [&](std::optional<JobPowerData> data, std::string err) {
    called = true;
    error = err;
    EXPECT_FALSE(data.has_value());
  });
  sim_.run_until(1.0);
  EXPECT_TRUE(called);
  EXPECT_FALSE(error.empty());
}

TEST_F(MonitorTest, QueryRunningJobUsesNowAsWindowEnd) {
  build(2);
  flux::JobSpec spec;
  spec.name = "gemm";
  spec.app = "gemm";
  spec.nnodes = 2;
  const flux::JobId id = instance_->jobs().submit(spec);
  sim_.run_until(30.0);
  ASSERT_TRUE(instance_->jobs().job(id).active());
  MonitorClient client(*instance_);
  std::optional<JobPowerData> got;
  client.query(id, [&](std::optional<JobPowerData> d, std::string) {
    got = std::move(d);
  });
  sim_.run_until(31.0);
  ASSERT_TRUE(got.has_value());
  EXPECT_GT(got->nodes[0].samples.size(), 10u);
}

TEST_F(MonitorTest, CsvHasCompletenessColumn) {
  build(2);
  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = 2;
  const flux::JobId id = instance_->jobs().submit(spec);
  while (!instance_->jobs().job(id).done() && sim_.step()) {
  }
  MonitorClient client(*instance_);
  auto data = client.query_blocking(id);
  ASSERT_TRUE(data.has_value());
  const std::string csv = MonitorClient::to_csv(*data);
  // Header row names the dataset column; every data row ends "complete".
  std::istringstream lines(csv);
  std::string header;
  std::getline(lines, header);
  auto cells = util::parse_csv_line(header);
  EXPECT_EQ(cells.front(), "jobid");
  EXPECT_EQ(cells.back(), "dataset");
  EXPECT_NE(std::find(cells.begin(), cells.end(), "gpu3_w"), cells.end());
  std::string row;
  int rows = 0;
  while (std::getline(lines, row)) {
    if (row.empty()) continue;
    EXPECT_EQ(util::parse_csv_line(row).back(), "complete");
    ++rows;
  }
  EXPECT_GT(rows, 4);
}

TEST_F(MonitorTest, TiogaCsvUsesOamColumns) {
  build(2, Platform::TiogaCrayEx235a, PowerMonitorConfig::for_tioga());
  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = 1;
  const flux::JobId id = instance_->jobs().submit(spec);
  while (!instance_->jobs().job(id).done() && sim_.step()) {
  }
  MonitorClient client(*instance_);
  auto data = client.query_blocking(id);
  ASSERT_TRUE(data.has_value());
  const std::string csv = MonitorClient::to_csv(*data);
  EXPECT_NE(csv.find("oam0_w"), std::string::npos);
  EXPECT_EQ(csv.find("gpu0_w"), std::string::npos);
}

TEST_F(MonitorTest, SamplingStealsCpuTime) {
  build(1);
  sim_.run_until(10.5);
  // 5 samples at 8 ms each.
  EXPECT_NEAR(cluster_.node(0).drain_stolen_time(), 5 * 0.008, 1e-9);
}

TEST_F(MonitorTest, UnloadStopsSamplingAndServices) {
  build(1);
  sim_.run_until(10.0);
  const auto taken = module(0)->samples_taken();
  instance_->broker(0).unload_module("power-monitor");
  sim_.run_until(30.0);
  EXPECT_FALSE(instance_->broker(0).has_service(kGetDataTopic));
  EXPECT_FALSE(instance_->broker(0).has_service(kQueryJobTopic));
  // A fresh module can be loaded again.
  instance_->broker(0).load_module(
      std::make_shared<PowerMonitorModule>(PowerMonitorConfig::for_lassen()));
  sim_.run_until(40.0);
  auto* fresh = module(0);
  ASSERT_NE(fresh, nullptr);
  EXPECT_GT(fresh->samples_taken(), 0u);
  EXPECT_GT(taken, 0u);
}

TEST_F(MonitorTest, PrometheusMetricsExposition) {
  build(1);
  flux::JobSpec spec;
  spec.name = "gemm";
  spec.app = "gemm";
  spec.nnodes = 1;
  instance_->jobs().submit(spec);
  sim_.run_until(20.5);
  const std::string text = module(0)->metrics_text();
  EXPECT_NE(text.find("fluxpower_monitor_samples_total{host=\"lassen0\"} 10"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("fluxpower_monitor_buffer_fill_ratio"), std::string::npos);
  EXPECT_NE(text.find("fluxpower_node_power_watts{host=\"lassen0\",domain=\"node\"}"),
            std::string::npos);
  EXPECT_NE(text.find("domain=\"gpu_watts_gpu_3\""), std::string::npos);
  EXPECT_NE(text.find("domain=\"cpu_watts_socket_0\""), std::string::npos);
  EXPECT_NE(text.find("domain=\"mem_watts\""), std::string::npos);
}

TEST_F(MonitorTest, JobArchiveWrittenToKvsOnCompletion) {
  build(2);
  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = 2;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = 3.0;
  const flux::JobId id = instance_->jobs().submit(spec);
  while (!instance_->jobs().job(id).done() && sim_.step()) {
  }
  // Archive fires one sample period after completion, plus RPC latency.
  sim_.run_until(sim_.now() + 5.0);
  const auto summary =
      instance_->kvs().get("jobs." + std::to_string(id) + ".power");
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->string_or("app", ""), "laghos");
  EXPECT_EQ(summary->string_or("nodes", ""), "lassen[0-1]");
  EXPECT_EQ(summary->int_or("nnodes", 0), 2);
  EXPECT_TRUE(summary->bool_or("complete", false));
  EXPECT_NEAR(summary->number_or("avg_node_power_w", 0.0), 470.0, 70.0);
  EXPECT_GT(summary->number_or("avg_node_energy_j", 0.0), 0.0);
}

TEST_F(MonitorTest, ArchiveDisabledByConfig) {
  PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen();
  cfg.archive_jobs = false;
  build(1, Platform::LassenIbmAc922, cfg);
  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = 1;
  const flux::JobId id = instance_->jobs().submit(spec);
  while (!instance_->jobs().job(id).done() && sim_.step()) {
  }
  sim_.run_until(sim_.now() + 5.0);
  EXPECT_FALSE(
      instance_->kvs().get("jobs." + std::to_string(id) + ".power").has_value());
}

TEST_F(MonitorTest, EnergyIntegrationTracksExactMeters) {
  build(2);
  flux::JobSpec spec;
  spec.name = "gemm";
  spec.app = "gemm";
  spec.nnodes = 2;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = 0.5;  // ~137 s
  const flux::JobId id = instance_->jobs().submit(spec);
  double e0 = cluster_.node(0).energy_joules() + cluster_.node(1).energy_joules();
  while (!instance_->jobs().job(id).done() && sim_.step()) {
  }
  const double exact =
      (cluster_.node(0).energy_joules() + cluster_.node(1).energy_joules() - e0) /
      2.0;
  MonitorClient client(*instance_);
  auto data = client.query_blocking(id);
  ASSERT_TRUE(data.has_value());
  // 2 s trapezoidal integration of noisy sensors tracks the exact meter
  // within a few percent.
  EXPECT_NEAR(data->average_node_energy_j(), exact, 0.05 * exact);
}

// Every telemetry answer is a typed batch, whatever the request carries,
// and the codec still renders it to the historical JSON bytes.
TEST_F(MonitorTest, BareGetDataGetsTypedBatch) {
  build(1);
  sim_.run_until(30.0);
  util::Json window = util::Json::object();
  window["start"] = 10.0;
  window["end"] = 20.0;
  const flux::Message resp = ask(0, kGetDataTopic, std::move(window));
  ASSERT_EQ(resp.errnum, 0);
  ASSERT_NE(resp.telemetry, nullptr);
  ASSERT_EQ(resp.telemetry->nodes.size(), 1u);
  EXPECT_EQ(resp.telemetry->nodes.front()->samples.size(), 6u);
  EXPECT_EQ(wire_payload(resp), historical_entry(0, 10.0, 20.0).dump());

  // A single-sample request keeps the newest in-window reading.
  util::Json one = util::Json::object();
  one["start"] = 10.0;
  one["end"] = 20.0;
  one["max_samples"] = 1;
  const flux::Message thin = ask(0, kGetDataTopic, std::move(one));
  ASSERT_NE(thin.telemetry, nullptr);
  const flux::TelemetryNodeEntry& entry = *thin.telemetry->nodes.front();
  EXPECT_TRUE(entry.decimated);
  ASSERT_EQ(entry.samples.size(), 1u);
  EXPECT_EQ(entry.samples.front().timestamp_s, 20.0);
}

TEST_F(MonitorTest, BareGetSubtreeGetsTypedBatch) {
  build(2);
  sim_.run_until(30.0);
  util::Json req = util::Json::object();
  req["start"] = 10.0;
  req["end"] = 20.0;
  util::Json ranks = util::Json::array();
  ranks.push_back(0);
  ranks.push_back(1);
  req["ranks"] = std::move(ranks);
  const flux::Message resp = ask(0, kGetSubtreeTopic, std::move(req));
  ASSERT_EQ(resp.errnum, 0);
  ASSERT_NE(resp.telemetry, nullptr);
  ASSERT_EQ(resp.telemetry->nodes.size(), 2u);

  util::Json expect = util::Json::object();
  expect["requested"] = 2;
  expect["responding"] = 2;
  util::Json nodes = util::Json::array();
  nodes.push_back(historical_entry(0, 10.0, 20.0));  // local entry first
  nodes.push_back(historical_entry(1, 10.0, 20.0));
  expect["nodes"] = std::move(nodes);
  EXPECT_EQ(wire_payload(resp), expect.dump());
}

// A negative max_samples must not wrap to a huge std::size_t and ship every
// in-window sample as a success.
TEST_F(MonitorTest, GetDataRejectsNegativeMaxSamples) {
  build(1);
  sim_.run_until(30.0);
  util::Json window = util::Json::object();
  window["start"] = 10.0;
  window["end"] = 20.0;
  window["max_samples"] = -1;
  const flux::Message resp = ask(0, kGetDataTopic, std::move(window));
  EXPECT_EQ(resp.errnum, flux::kEInval);
  EXPECT_EQ(resp.telemetry, nullptr);
}

TEST_F(MonitorTest, GetSubtreeRejectsNegativeMaxSamples) {
  build(2);
  sim_.run_until(30.0);
  util::Json req = util::Json::object();
  req["start"] = 10.0;
  req["end"] = 20.0;
  req["max_samples"] = -1;
  util::Json ranks = util::Json::array();
  ranks.push_back(0);
  ranks.push_back(1);
  req["ranks"] = std::move(ranks);
  const flux::Message resp = ask(0, kGetSubtreeTopic, std::move(req));
  EXPECT_EQ(resp.errnum, flux::kEInval);
  EXPECT_EQ(resp.telemetry, nullptr);
}

TEST_F(MonitorTest, BareQueryJobGetsTypedBatch) {
  PowerMonitorConfig cfg = PowerMonitorConfig::for_lassen();
  cfg.archive_jobs = false;
  build(2, Platform::LassenIbmAc922, cfg);
  flux::JobSpec spec;
  spec.name = "laghos";
  spec.app = "laghos";
  spec.nnodes = 2;
  spec.attributes = util::Json::object();
  spec.attributes["work_scale"] = 2.0;
  const flux::JobId id = instance_->jobs().submit(spec);
  while (!instance_->jobs().job(id).done() && sim_.step()) {
  }
  const flux::Job& job = instance_->jobs().job(id);
  util::Json req = util::Json::object();
  req["id"] = id;
  const flux::Message resp = ask(flux::kRootRank, kQueryJobTopic, req);
  ASSERT_EQ(resp.errnum, 0);
  ASSERT_NE(resp.telemetry, nullptr);
  ASSERT_EQ(resp.telemetry->nodes.size(), 2u);

  util::Json expect = util::Json::object();
  expect["id"] = static_cast<std::int64_t>(id);
  expect["app"] = "laghos";
  expect["t_start"] = job.t_start;
  expect["t_end"] = job.t_end;
  util::Json nodes = util::Json::array();
  nodes.push_back(historical_entry(0, job.t_start, job.t_end));
  nodes.push_back(historical_entry(1, job.t_start, job.t_end));
  expect["nodes"] = std::move(nodes);
  EXPECT_EQ(wire_payload(resp), expect.dump());
}

}  // namespace
}  // namespace fluxpower::monitor
