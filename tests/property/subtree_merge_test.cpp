// Property: the TBON subtree merge relays exactly what the node-agents
// hold. Across 50 seeds, every broker roots a query over its own subtree in
// three rounds: a cold one, a warm one and a decimated one (max_samples).
//  * Calm weather: each root's rendered per-rank entry must equal, byte for
//    byte, that rank's own get-data answer for the same explicit window.
//  * Fault weather (link drops, duplicates, delays, crash/reboot cycles,
//    sensor dropouts): every answered merge still covers each requested
//    rank exactly once with an honest responding count, and a rerun of the
//    seed reproduces every answer byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "faultsim/fault_plane.hpp"
#include "flux/instance.hpp"
#include "flux/telemetry.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower {
namespace {

constexpr int kNodes = 8;

struct Stack {
  sim::Simulation sim;
  hwsim::Cluster cluster;
  std::unique_ptr<flux::Instance> instance;
  std::unique_ptr<faultsim::FaultPlane> plane;

  explicit Stack(const faultsim::FaultPlaneConfig* faults) {
    cluster = hwsim::make_cluster(sim, hwsim::Platform::LassenIbmAc922, kNodes);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < cluster.size(); ++i) nodes.push_back(&cluster.node(i));
    flux::InstanceConfig icfg;
    icfg.tbon_fanout = 2;
    instance = std::make_unique<flux::Instance>(sim, std::move(nodes), icfg);
    if (faults != nullptr) {
      plane = std::make_unique<faultsim::FaultPlane>(*faults);
      plane->attach(*instance);
    }
    monitor::PowerMonitorConfig mcfg = monitor::PowerMonitorConfig::for_tioga();
    mcfg.archive_jobs = false;
    instance->load_module_on_all<monitor::PowerMonitorModule>(mcfg);
  }
};

/// A telemetry answer as the wire would carry it.
std::string rendered(const flux::Message& resp) {
  return resp.telemetry
             ? flux::render_telemetry_payload(resp.payload, *resp.telemetry)
                   .dump()
             : resp.payload.dump();
}

/// One get-subtree query of the script and its answer.
struct Observation {
  flux::Rank root = -1;
  util::Json window;  ///< start, end and (decimated round) max_samples
  std::string payload = "<no-response>";
  int errnum = -1;
  std::shared_ptr<const flux::TelemetryBatch> batch;
  std::int64_t requested = -1;
  std::int64_t responding = -1;
};

/// Drive one stack through the seed's deterministic query script: every
/// broker roots a query over its own subtree, in a cold round, a warm round
/// and a decimated round. Returns the answers in issue order, with the
/// stack left running for follow-up requests.
std::vector<Observation> run_script(Stack& stack, std::uint64_t seed,
                                    bool faulty) {
  const flux::Tbon& tbon = stack.instance->tbon();
  // Seed-derived script parameters so the 50 calm-weather runs differ too.
  const double warmup_s = 20.0 + static_cast<double>(seed % 7);
  const double settle_s = faulty ? 12.0 : 2.0;
  const std::size_t max_samples = 8 + seed % 9;

  auto results = std::make_shared<std::vector<Observation>>();
  results->resize(3 * kNodes);  // fixed size: callbacks index, never grow

  stack.sim.run_until(warmup_s);
  std::size_t slot = 0;
  for (int round = 0; round < 3; ++round) {
    for (int root = 0; root < kNodes; ++root, ++slot) {
      util::Json window = util::Json::object();
      window["start"] = 0.0;
      window["end"] = stack.sim.now();
      if (round == 2) {
        window["max_samples"] = static_cast<std::int64_t>(max_samples);
      }
      util::Json req = window;
      util::Json arr = util::Json::array();
      for (flux::Rank r : tbon.subtree(root)) arr.push_back(r);
      req["ranks"] = std::move(arr);
      (*results)[slot].root = root;
      (*results)[slot].window = std::move(window);
      const std::size_t idx = slot;
      stack.instance->broker(root).rpc(
          root, monitor::kGetSubtreeTopic, std::move(req),
          [results, idx](const flux::Message& resp) {
            Observation& o = (*results)[idx];
            o.payload = rendered(resp);
            o.errnum = resp.errnum;
            o.batch = resp.telemetry;
            o.requested = resp.payload.int_or("requested", -1);
            o.responding = resp.payload.int_or("responding", -1);
          },
          /*timeout_s=*/30.0);
      stack.sim.run_until(stack.sim.now() + settle_s);
    }
  }
  // Let straggling child timeouts and the 30 s guard fire so the late
  // observations (if any) land before the script returns.
  stack.sim.run_until(stack.sim.now() + 45.0);
  return *results;
}

/// `rank`'s own get-data answer for `window`, asked from `from`.
std::string own_answer(Stack& stack, flux::Rank from, flux::Rank rank,
                       const util::Json& window) {
  std::string got = "<no-response>";
  stack.instance->broker(from).rpc(
      rank, monitor::kGetDataTopic, window,
      [&got](const flux::Message& resp) { got = rendered(resp); });
  stack.sim.run_until(stack.sim.now() + 1.0);
  return got;
}

class SubtreeMerge : public ::testing::TestWithParam<std::uint64_t> {};

// Calm weather: every merge succeeds, and each merged entry is the rank's
// own windowed answer, cold, warm and decimated alike.
TEST_P(SubtreeMerge, CalmWeatherMatchesGetData) {
  const std::uint64_t seed = GetParam();
  Stack stack(nullptr);
  const std::vector<Observation> answers = run_script(stack, seed, false);
  const flux::Tbon& tbon = stack.instance->tbon();
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Observation& o = answers[i];
    ASSERT_EQ(o.errnum, 0) << "query " << i;
    ASSERT_NE(o.batch, nullptr) << "query " << i;
    const std::vector<flux::Rank> subtree = tbon.subtree(o.root);
    ASSERT_EQ(o.batch->nodes.size(), subtree.size()) << "query " << i;
    EXPECT_EQ(o.responding, static_cast<std::int64_t>(subtree.size()));
    for (const flux::TelemetryNodeEntry& entry : o.batch->nodes) {
      EXPECT_EQ(flux::render_telemetry_entry(entry).dump(),
                own_answer(stack, o.root, entry.rank, o.window))
          << "query " << i << " rank " << entry.rank;
    }
  }
}

// Fault weather: link drops, duplicates and delays plus node crash/reboot
// cycles (which wipe source buffers) and sensor faults. Degraded answers
// still account for every requested rank, and the deterministic fault
// schedule makes the whole run reproducible.
TEST_P(SubtreeMerge, ChaosWeatherCoversEveryRank) {
  faultsim::FaultPlaneConfig faults;
  faults.seed = GetParam() * 6151 + 29;
  faults.msg_drop_rate = 0.08;
  faults.msg_dup_rate = 0.05;
  faults.msg_delay_rate = 0.10;
  faults.msg_delay_max_s = 0.200;
  faults.node_mtbf_s = 150.0;
  faults.node_reboot_s = 15.0;
  faults.sensor_dropout_rate = 0.05;
  const std::uint64_t seed = GetParam();
  Stack first(&faults);
  const std::vector<Observation> answers = run_script(first, seed, true);
  Stack second(&faults);
  const std::vector<Observation> replay = run_script(second, seed, true);
  ASSERT_EQ(answers.size(), replay.size());
  const flux::Tbon& tbon = first.instance->tbon();
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const Observation& o = answers[i];
    EXPECT_EQ(o.errnum, replay[i].errnum) << "query " << i;
    EXPECT_EQ(o.payload, replay[i].payload) << "query " << i;
    if (o.errnum != 0) continue;
    ASSERT_NE(o.batch, nullptr) << "query " << i;
    std::vector<flux::Rank> subtree = tbon.subtree(o.root);
    std::vector<flux::Rank> covered;
    std::int64_t answered = 0;
    for (const flux::TelemetryNodeEntry& entry : o.batch->nodes) {
      covered.push_back(entry.rank);
      if (!entry.errored) ++answered;
    }
    std::sort(subtree.begin(), subtree.end());
    std::sort(covered.begin(), covered.end());
    EXPECT_EQ(covered, subtree) << "query " << i;
    EXPECT_EQ(o.requested, static_cast<std::int64_t>(subtree.size()));
    EXPECT_EQ(o.responding, answered) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SubtreeMerge,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
}  // namespace fluxpower
