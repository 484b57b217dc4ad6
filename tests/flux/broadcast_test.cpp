// Event broadcast fan-out: one engine event per instant the legs arrive at
// (per placement cell in the sharded profile), delivering in rank order.
// Subscribers log what they see, so the tests read the delivery order the
// engine produced, not the router's bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "flux/instance.hpp"
#include "sim/sharded_engine.hpp"

namespace fluxpower::flux {
namespace {

constexpr char kTopic[] = "test.bcast";

struct Delivery {
  double time;
  Rank rank;
};

/// Duplicates, delays and drops chosen by rank alone, so every shard count
/// sees the same verdicts.
class RankRuleInjector : public RouteFaultInjector {
 public:
  std::set<Rank> duplicate, drop;
  std::map<Rank, double> delay;

  Verdict on_route(const Message&, Rank dest) override {
    Verdict v;
    v.drop = drop.contains(dest);
    v.duplicates = duplicate.contains(dest) ? 1 : 0;
    if (auto it = delay.find(dest); it != delay.end()) {
      v.extra_delay_s = it->second;
    }
    return v;
  }
};

class MonolithicBroadcast : public ::testing::Test {
 protected:
  static constexpr int kBrokers = 15;  // fanout 2: levels 0..3

  MonolithicBroadcast()
      : instance_(sim_, std::vector<hwsim::Node*>(kBrokers, nullptr)) {
    for (Rank r = 0; r < kBrokers; ++r) {
      instance_.broker(r).subscribe_event(kTopic, [this, r](const Message&) {
        log_.push_back({sim_.now(), r});
      });
    }
  }

  /// The instants deliveries happened at, each with its ranks in order.
  std::map<double, std::vector<Rank>> by_instant() const {
    std::map<double, std::vector<Rank>> out;
    for (const Delivery& d : log_) out[d.time].push_back(d.rank);
    return out;
  }

  sim::Simulation sim_;
  Instance instance_;
  std::vector<Delivery> log_;
};

TEST_F(MonolithicBroadcast, LegsFireInRankOrderAtEachInstant) {
  // Rank 5 sits at depth 2: its hop distances do not grow with rank.
  const Rank sender = 5;
  instance_.broker(sender).publish_event(kTopic, util::Json::object());
  sim_.run();
  ASSERT_EQ(log_.size(), static_cast<std::size_t>(kBrokers));
  const auto instants = by_instant();
  std::set<int> hop_counts;
  for (Rank r = 0; r < kBrokers; ++r) {
    hop_counts.insert(instance_.tbon().hops(sender, r));
  }
  EXPECT_EQ(instants.size(), hop_counts.size());
  for (const auto& [t, ranks] : instants) {
    EXPECT_TRUE(std::is_sorted(ranks.begin(), ranks.end())) << "t=" << t;
    for (Rank r : ranks) {
      EXPECT_DOUBLE_EQ(t, instance_.config().hop_latency_s *
                              instance_.tbon().hops(sender, r));
    }
  }
}

TEST_F(MonolithicBroadcast, DuplicateFollowsItsOriginal) {
  RankRuleInjector faults;
  faults.duplicate = {4, 9};
  faults.drop = {6};
  instance_.set_fault_injector(&faults);
  instance_.root().publish_event(kTopic, util::Json::object());
  sim_.run();
  instance_.set_fault_injector(nullptr);
  ASSERT_EQ(log_.size(), static_cast<std::size_t>(kBrokers + 2 - 1));
  const auto instants = by_instant();
  const std::vector<Rank> level2 = instants.at(2 * 100e-6);
  EXPECT_EQ(level2, (std::vector<Rank>{3, 4, 4, 5}));
  const std::vector<Rank> level3 = instants.at(3 * 100e-6);
  EXPECT_EQ(level3, (std::vector<Rank>{7, 8, 9, 9, 10, 11, 12, 13, 14}));
  EXPECT_EQ(instance_.messages_dropped(), 1u);
}

TEST_F(MonolithicBroadcast, ZeroDelayEventFromFirstLegFiresAfterTheInstant) {
  // The first leg of the depth-3 instant schedules a 0-delay event; it must
  // run after that instant's last leg, as it did when each leg was its own
  // engine event, and before the next instant.
  instance_.broker(7).subscribe_event(kTopic, [this](const Message&) {
    sim_.schedule_after(0.0, [this] { log_.push_back({sim_.now(), -1}); });
  });
  instance_.root().publish_event(kTopic, util::Json::object());
  sim_.run();
  std::vector<Rank> at_depth3;
  for (const Delivery& d : log_) {
    if (d.time == 3 * 100e-6) at_depth3.push_back(d.rank);
  }
  EXPECT_EQ(at_depth3,
            (std::vector<Rank>{7, 8, 9, 10, 11, 12, 13, 14, -1}));
}

TEST_F(MonolithicBroadcast, OneEngineEventPerDistinctFireTime) {
  const std::uint64_t before = sim_.events_executed();
  instance_.broker(5).publish_event(kTopic, util::Json::object());
  sim_.run();
  const std::size_t instants = by_instant().size();
  EXPECT_EQ(sim_.events_executed() - before, instants);

  // Delayed legs make an instant of their own; a duplicate does not.
  RankRuleInjector faults;
  faults.delay = {{11, 1e-3}, {13, 1e-3}};
  faults.duplicate = {12};
  instance_.set_fault_injector(&faults);
  log_.clear();
  const std::uint64_t mid = sim_.events_executed();
  instance_.root().publish_event(kTopic, util::Json::object());
  sim_.run();
  instance_.set_fault_injector(nullptr);
  // Depths 0..3, plus the two delayed legs sharing one later instant.
  EXPECT_EQ(by_instant().size(), 5u);
  EXPECT_EQ(sim_.events_executed() - mid, 5u);
  EXPECT_EQ(by_instant().rbegin()->second, (std::vector<Rank>{11, 13}));
}

/// A sharded stack over `islands` islands and as many worker threads, cells
/// assigned round-robin the way the scenario does it. Every broker counts
/// its deliveries, and on its first one registers a service whose topic
/// other islands intern concurrently.
struct ShardedStack {
  static constexpr int kBrokers = 85;  // fanout 4: levels 0..3, 4 cells

  explicit ShardedStack(int islands) : engine(islands, islands) {
    const Tbon tbon(kBrokers, 4);
    std::vector<int> island_of(kBrokers, 0);
    for (Rank r = 1; r < kBrokers; ++r) {
      island_of[static_cast<std::size_t>(r)] =
          (tbon.root_child(r) - 1) % islands;
    }
    instance = std::make_unique<Instance>(
        engine, std::move(island_of),
        std::vector<hwsim::Node*>(kBrokers, nullptr), InstanceConfig{4});
    seen.assign(kBrokers, 0);
    for (Rank r = 0; r < kBrokers; ++r) {
      instance->broker(r).subscribe_event(kTopic, [this, r](const Message&) {
        if (seen[static_cast<std::size_t>(r)]++ == 0) {
          instance->broker(r).register_service(
              "late." + std::to_string(r % 3), [](const Message&) {});
        }
      });
    }
  }

  /// Broadcasts from the root and from ranks in two other cells, under a
  /// rank-keyed fault rule.
  void run() {
    faults.duplicate = {2, 17, 40};
    faults.drop = {9, 60};
    faults.delay = {{23, 2e-4}, {71, 2e-4}};
    instance->set_fault_injector(&faults);
    for (Rank sender : {0, 10, 55}) {
      instance->broker(sender).publish_event(kTopic, util::Json::object());
    }
    engine.run();
    instance->set_fault_injector(nullptr);
  }

  sim::ShardedEngine engine;
  std::unique_ptr<Instance> instance;
  RankRuleInjector faults;
  std::vector<int> seen;
};

TEST(ShardedBroadcast, EventCountAndDeliveriesMatchForEveryShardCount) {
  ShardedStack reference(1);
  reference.run();
  std::vector<std::uint64_t> received;
  for (Rank r = 0; r < ShardedStack::kBrokers; ++r) {
    received.push_back(reference.instance->broker(r).messages_received());
  }
  EXPECT_EQ(reference.seen[2], 6);  // three broadcasts, each duplicated
  EXPECT_EQ(reference.seen[9], 0);  // dropped every time
  EXPECT_TRUE(reference.instance->broker(4).has_service("late.1"));
  for (int islands : {2, 4}) {
    ShardedStack stack(islands);
    stack.run();
    EXPECT_EQ(stack.engine.total_events_executed(),
              reference.engine.total_events_executed())
        << islands << " islands";
    EXPECT_EQ(stack.seen, reference.seen) << islands << " islands";
    for (Rank r = 0; r < ShardedStack::kBrokers; ++r) {
      EXPECT_EQ(stack.instance->broker(r).messages_received(),
                received[static_cast<std::size_t>(r)])
          << "rank " << r << ", " << islands << " islands";
    }
    EXPECT_EQ(stack.instance->messages_dropped(),
              reference.instance->messages_dropped());
  }
}

}  // namespace
}  // namespace fluxpower::flux
