// Sensor sweeps batch per placement cell and grid: one engine event per
// instant samples every member of a batch in join order. A member joins a
// batch only when that keeps the order a periodic task per member would
// give, and it leaves and re-joins on set-config, unload and reload. The
// sharded cases check that the batching is the same for every shard count.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "monitor/power_monitor.hpp"
#include "sim/sharded_engine.hpp"

namespace fluxpower::monitor {
namespace {

struct Sample {
  double t;
  int id;
  bool operator==(const Sample&) const = default;
};

/// Logs each sample it takes; `on_sample` runs after the log entry.
class LoggingMember final : public flux::SweepMember {
 public:
  LoggingMember(int id, std::vector<Sample>& log, sim::Simulation& sim)
      : id_(id), log_(log), sim_(sim) {}
  std::function<void()> on_sample;

 private:
  void take_sample() override {
    log_.push_back({sim_.now(), id_});
    if (on_sample) on_sample();
  }
  void prefetch_sample() const noexcept override {}

  int id_;
  std::vector<Sample>& log_;
  sim::Simulation& sim_;
};

/// Broker-only instance: members are joined by hand, one rank each.
class SweepBatch : public ::testing::Test {
 protected:
  static constexpr int kBrokers = 8;

  SweepBatch() : instance_(sim_, std::vector<hwsim::Node*>(kBrokers, nullptr)) {
    for (int id = 0; id < kBrokers; ++id) {
      members_.push_back(std::make_unique<LoggingMember>(id, log_, sim_));
    }
  }
  ~SweepBatch() override {
    for (auto& m : members_) instance_.leave_sweep(*m);
  }

  void join(int id, double period = 2.0) {
    instance_.join_sweep(id, period, *members_[static_cast<std::size_t>(id)]);
  }

  sim::Simulation sim_;
  flux::Instance instance_;
  std::vector<Sample> log_;
  std::vector<std::unique_ptr<LoggingMember>> members_;
};

TEST_F(SweepBatch, MembersSampleInJoinOrderOneEventPerInstant) {
  for (int id : {5, 2, 7, 0}) join(id);
  sim_.run_until(6.5);
  std::vector<Sample> expected;
  for (double t : {2.0, 4.0, 6.0}) {
    for (int id : {5, 2, 7, 0}) expected.push_back({t, id});
  }
  EXPECT_EQ(log_, expected);
  EXPECT_EQ(sim_.events_executed(), 3u);
  EXPECT_EQ(sim_.pending(), 1u);
}

TEST_F(SweepBatch, ZeroDelayEventFromAMemberFiresAfterTheLastMember) {
  for (int id = 0; id < 4; ++id) join(id);
  bool scheduled = false;
  members_[0]->on_sample = [this, &scheduled] {
    if (std::exchange(scheduled, true)) return;
    sim_.schedule_after(0.0, [this] { log_.push_back({sim_.now(), -1}); });
  };
  sim_.run_until(4.0);
  const std::vector<Sample> expected = {{2, 0}, {2, 1}, {2, 2}, {2, 3},
                                        {2, -1}, {4, 0}, {4, 1}, {4, 2},
                                        {4, 3}};
  EXPECT_EQ(log_, expected);
}

TEST_F(SweepBatch, MemberJoinedAfterAnotherEnqueueKeepsThePerTaskOrder) {
  // Members 0 and 1 batch; the event enqueued next would fire between them
  // and members 2 and 3 had each its own task, so 2 and 3 start a batch of
  // their own behind it.
  auto other = [this] { log_.push_back({sim_.now(), 99}); };
  join(0);
  join(1);
  sim_.schedule_at(2.0, other);
  join(2);
  join(3);
  sim_.run_until(4.0);

  // The same joins as one periodic task each.
  sim::Simulation reference_sim;
  std::vector<Sample> reference;
  std::vector<std::unique_ptr<sim::PeriodicTask>> tasks;
  auto task = [&](int id) {
    tasks.push_back(std::make_unique<sim::PeriodicTask>(
        reference_sim, 2.0, [&reference, &reference_sim, id] {
          reference.push_back({reference_sim.now(), id});
          return true;
        }));
  };
  task(0);
  task(1);
  reference_sim.schedule_at(2.0, [&] {
    reference.push_back({reference_sim.now(), 99});
  });
  task(2);
  task(3);
  reference_sim.run_until(4.0);

  EXPECT_EQ(log_, reference);
  // Two batches and the other event at t = 2, the two batches at t = 4,
  // where the tasks took nine events.
  EXPECT_EQ(sim_.events_executed(), 5u);
  EXPECT_EQ(reference_sim.events_executed(), 9u);
}

TEST_F(SweepBatch, AnotherGridIsAnotherBatch) {
  join(0, 2.0);
  join(1, 3.0);  // another grid: its own batch
  join(2, 2.0);  // the 3 s batch was enqueued after the 2 s one
  sim_.run_until(6.0);
  // At t = 6 the 3 s batch, re-armed at t = 3, fires first, as member 1's
  // own task would have.
  const std::vector<Sample> expected = {{2, 0}, {2, 2}, {3, 1}, {4, 0},
                                        {4, 2}, {6, 1}, {6, 0}, {6, 2}};
  EXPECT_EQ(log_, expected);
  EXPECT_EQ(sim_.events_executed(), 8u);
}

TEST_F(SweepBatch, LeavingIsImmediateAndTheLastMemberOutCancels) {
  for (int id = 0; id < 4; ++id) join(id);
  sim_.run_until(2.0);
  instance_.leave_sweep(*members_[1]);
  instance_.leave_sweep(*members_[1]);  // a no-op the second time
  sim_.run_until(4.0);
  const std::vector<Sample> expected = {{2, 0}, {2, 1}, {2, 2}, {2, 3},
                                        {4, 0}, {4, 2}, {4, 3}};
  EXPECT_EQ(log_, expected);
  for (int id : {0, 2, 3}) instance_.leave_sweep(*members_[static_cast<std::size_t>(id)]);
  EXPECT_EQ(sim_.pending(), 0u);
  EXPECT_THROW(join(0, 0.0), std::invalid_argument);
}

TEST_F(SweepBatch, MembersMayLeaveDuringTheSweep) {
  for (int id = 0; id < 4; ++id) join(id);
  // Member 1 takes itself and member 3 out at t = 2: 3 is skipped at once.
  members_[1]->on_sample = [this] {
    instance_.leave_sweep(*members_[1]);
    instance_.leave_sweep(*members_[3]);
  };
  sim_.run_until(4.0);
  std::vector<Sample> expected = {{2, 0}, {2, 1}, {2, 2}, {4, 0}, {4, 2}};
  EXPECT_EQ(log_, expected);
  // The last two leave from inside the sweep: the batch retires after it.
  members_[2]->on_sample = [this] {
    instance_.leave_sweep(*members_[0]);
    instance_.leave_sweep(*members_[2]);
  };
  sim_.run_until(8.0);
  expected.insert(expected.end(), {{6, 0}, {6, 2}});
  EXPECT_EQ(log_, expected);
  EXPECT_EQ(sim_.pending(), 0u);
}

/// Four Lassen node-agents sampling every second.
class MonitorSweep : public ::testing::Test {
 protected:
  static constexpr int kNodes = 4;

  MonitorSweep() {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922,
                                   kNodes);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < kNodes; ++i) nodes.push_back(&cluster_.node(i));
    instance_ = std::make_unique<flux::Instance>(sim_, std::move(nodes));
    instance_->load_module_on_all<PowerMonitorModule>(config());
  }

  static PowerMonitorConfig config() {
    PowerMonitorConfig cfg;
    cfg.sample_period_s = 1.0;
    cfg.buffer_capacity = 64;
    cfg.archive_jobs = false;
    return cfg;
  }

  std::uint64_t samples(flux::Rank rank) {
    auto* mod = dynamic_cast<PowerMonitorModule*>(
        instance_->broker(rank).find_module("power-monitor"));
    return mod != nullptr ? mod->samples_taken() : 0;
  }

  /// Events the engine executes over the next `seconds`.
  std::uint64_t events_over(double seconds) {
    const std::uint64_t before = sim_.events_executed();
    sim_.run_until(sim_.now() + seconds);
    return sim_.events_executed() - before;
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<flux::Instance> instance_;
};

TEST_F(MonitorSweep, SetConfigMovesAnAgentToABatchOnItsNewGrid) {
  EXPECT_EQ(events_over(10.0), 10u);  // one batch of four
  bool acked = false;
  util::Json payload = util::Json::object();
  payload["sample_period_s"] = 0.5;
  instance_->broker(2).rpc(2, kSetConfigTopic, std::move(payload),
                           [&](const flux::Message& resp) {
                             acked = resp.errnum == 0;
                           });
  sim_.run_until(10.5);
  ASSERT_TRUE(acked);
  const std::uint64_t before0 = samples(0), before2 = samples(2);
  // The old batch keeps three members at 1 s; rank 2 fires alone every
  // 0.5 s, on a grid from its set-config.
  EXPECT_EQ(events_over(10.0), 10u + 20u);
  EXPECT_EQ(samples(0) - before0, 10u);
  EXPECT_EQ(samples(2) - before2, 20u);
}

TEST_F(MonitorSweep, UnloadLeavesAndReloadRejoins) {
  sim_.run_until(10.0);  // the batch has just fired and re-armed
  instance_->broker(1).unload_module("power-monitor");
  EXPECT_EQ(samples(1), 0u);
  // Nothing was enqueued since the batch re-armed, so the reloaded agent
  // joins it at the back, where a task of its own would have fired.
  instance_->broker(1).load_module(std::make_shared<PowerMonitorModule>(config()));
  EXPECT_EQ(events_over(5.0), 5u);
  EXPECT_EQ(samples(1), 5u);
  EXPECT_EQ(samples(0), 15u);

  // Unloaded after another event was enqueued, the agent starts a batch
  // of its own.
  instance_->broker(1).unload_module("power-monitor");
  sim_.schedule_after(0.25, [] {});
  instance_->broker(1).load_module(std::make_shared<PowerMonitorModule>(config()));
  EXPECT_EQ(events_over(5.0), 1u + 10u);
  EXPECT_EQ(samples(1), 5u);

  // The last agent out cancels the batch's event.
  for (flux::Rank r = 0; r < kNodes; ++r) {
    instance_->broker(r).unload_module("power-monitor");
  }
  EXPECT_EQ(sim_.pending(), 0u);
}

/// 73 Lassen node-agents (fanout 8: 8 placement cells) on `islands` islands
/// and as many worker threads, cells dealt round-robin as the scenario does.
struct ShardedSite {
  static constexpr int kNodes = 73;
  static constexpr int kFanout = 8;

  explicit ShardedSite(int islands) : engine(islands, islands) {
    const flux::Tbon tbon(kNodes, kFanout);
    std::vector<int> island_of(kNodes, 0);
    for (flux::Rank r = 1; r < kNodes; ++r) {
      island_of[static_cast<std::size_t>(r)] =
          (tbon.root_child(r) - 1) % islands;
    }
    cluster = hwsim::make_cluster(
        [&](int r) -> sim::Simulation& {
          return engine.island(island_of[static_cast<std::size_t>(r)]);
        },
        hwsim::Platform::LassenIbmAc922, kNodes);
    cluster.set_sensor_noise(0.01);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < kNodes; ++i) {
      cluster.node(i).reseed_sensor_noise(1000 + static_cast<std::uint64_t>(i));
      nodes.push_back(&cluster.node(i));
    }
    instance = std::make_unique<flux::Instance>(
        engine, std::move(island_of), std::move(nodes),
        flux::InstanceConfig{kFanout});
    PowerMonitorConfig cfg;
    cfg.buffer_capacity = 16;
    cfg.archive_jobs = false;
    instance->load_module_on_all<PowerMonitorModule>(cfg);
  }

  const PowerMonitorModule& agent(flux::Rank r) {
    return *dynamic_cast<PowerMonitorModule*>(
        instance->broker(r).find_module("power-monitor"));
  }

  sim::ShardedEngine engine;
  hwsim::Cluster cluster;
  std::unique_ptr<flux::Instance> instance;
};

TEST(ShardedSweepBatch, EveryShardCountRunsTheSameSweeps) {
  ShardedSite reference(1);
  reference.engine.advance_until(60.0);
  // One batch per cell (the root is a cell of its own) and instant.
  EXPECT_EQ(reference.engine.total_events_executed(), 9u * 30u);
  for (int islands : {2, 4, 8}) {
    ShardedSite site(islands);
    site.engine.advance_until(60.0);
    EXPECT_EQ(site.engine.total_events_executed(),
              reference.engine.total_events_executed())
        << islands << " islands";
    EXPECT_EQ(site.engine.total_seq_counter(),
              reference.engine.total_seq_counter())
        << islands << " islands";
    for (flux::Rank r = 0; r < ShardedSite::kNodes; ++r) {
      const PowerMonitorModule& got = site.agent(r);
      const PowerMonitorModule& want = reference.agent(r);
      ASSERT_EQ(got.samples_taken(), want.samples_taken()) << "rank " << r;
      EXPECT_EQ(got.sensor_failures(), want.sensor_failures());
      ASSERT_EQ(got.store()->size(), want.store()->size());
      EXPECT_EQ(got.store()->evicted(), want.store()->evicted());
      for (std::size_t i = 0; i < want.store()->size(); ++i) {
        const hwsim::PowerSample a = got.store()->get(i);
        const hwsim::PowerSample b = want.store()->get(i);
        EXPECT_EQ(a.timestamp_s, b.timestamp_s);
        EXPECT_EQ(a.node_w.watts, b.node_w.watts);
        EXPECT_EQ(a.gpu_w.size(), b.gpu_w.size());
        for (std::size_t g = 0; g < a.gpu_w.size(); ++g) {
          EXPECT_EQ(a.gpu_w[g], b.gpu_w[g]) << "rank " << r << " gpu " << g;
        }
      }
    }
  }
}

TEST(ShardedSweepBatch, EachCellKeepsOneSampleTable) {
  const flux::Tbon tbon(ShardedSite::kNodes, ShardedSite::kFanout);
  for (int islands : {1, 4}) {
    ShardedSite site(islands);
    site.engine.advance_until(10.0);
    // The root is a cell of its own; every other cell's agents share one
    // table, in join (rank) order.
    const SampleTable* root = site.agent(0).store()->table();
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->columns(), 1u);
    std::vector<const SampleTable*> cell_table(ShardedSite::kNodes, nullptr);
    std::vector<std::size_t> next_column(ShardedSite::kNodes, 0);
    for (flux::Rank r = 1; r < ShardedSite::kNodes; ++r) {
      const auto cell = static_cast<std::size_t>(tbon.root_child(r));
      const ColumnarSampleStore& store = *site.agent(r).store();
      if (cell_table[cell] == nullptr) cell_table[cell] = store.table();
      EXPECT_EQ(store.table(), cell_table[cell]) << "rank " << r;
      EXPECT_EQ(store.column(), next_column[cell]++) << "rank " << r;
    }
    for (std::size_t cell = 1; cell < cell_table.size(); ++cell) {
      if (cell_table[cell] == nullptr) continue;
      EXPECT_EQ(cell_table[cell]->columns(), next_column[cell]);
      EXPECT_EQ(cell_table[cell]->free_columns(), 0u);
    }
  }
}

}  // namespace
}  // namespace fluxpower::monitor
