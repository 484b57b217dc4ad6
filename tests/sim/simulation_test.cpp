// Tests for sim/simulation: the discrete-event engine everything rides on.
#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace fluxpower::sim {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, FifoAtEqualTimes) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_after(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulation, PastSchedulingThrows) {
  Simulation sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), std::invalid_argument);
}

TEST(Simulation, NullCallbackThrows) {
  Simulation sim;
  EXPECT_THROW(sim.schedule_at(1.0, nullptr), std::invalid_argument);
}

TEST(Simulation, CancelPreventsExecution) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelTwiceIsBenign) {
  Simulation sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(9999));
}

TEST(Simulation, CancelledEventDoesNotAdvanceClock) {
  Simulation sim;
  const EventId id = sim.schedule_at(5.0, [] {});
  sim.schedule_at(1.0, [] {});
  sim.cancel(id);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulation, RunUntilIdleStillAdvances) {
  Simulation sim;
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulation, EventsExecutedCounter) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(Simulation, RecursiveSchedulingFromCallback) {
  Simulation sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sim.schedule_after(1.0, chain);
  };
  sim.schedule_at(0.0, chain);
  sim.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
}

TEST(PeriodicTask, FiresAtPeriod) {
  Simulation sim;
  std::vector<double> fired;
  PeriodicTask task(sim, 2.0, [&] {
    fired.push_back(sim.now());
    return fired.size() < 3;
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{2.0, 4.0, 6.0}));
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, InitialDelayOverride) {
  Simulation sim;
  std::vector<double> fired;
  PeriodicTask task(sim, 5.0,
                    [&] {
                      fired.push_back(sim.now());
                      return fired.size() < 2;
                    },
                    /*initial_delay=*/0.0);
  sim.run();
  EXPECT_EQ(fired, (std::vector<double>{0.0, 5.0}));
}

TEST(PeriodicTask, StopCancelsFutureFirings) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, 1.0, [&] {
    ++count;
    return true;
  });
  sim.schedule_at(3.5, [&] { task.stop(); });
  sim.run_until(10.0);
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, DestructorStops) {
  Simulation sim;
  int count = 0;
  {
    PeriodicTask task(sim, 1.0, [&] {
      ++count;
      return true;
    });
    sim.run_until(2.5);
  }
  sim.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(PeriodicTask, NonPositivePeriodThrows) {
  Simulation sim;
  EXPECT_THROW(PeriodicTask(sim, 0.0, [] { return true; }),
               std::invalid_argument);
  EXPECT_THROW(PeriodicTask(sim, -1.0, [] { return true; }),
               std::invalid_argument);
}

TEST(PeriodicTask, NonFinitePeriodThrows) {
  // +inf would fire once and never again; NaN has no next firing time.
  Simulation sim;
  EXPECT_THROW(PeriodicTask(sim, std::numeric_limits<double>::infinity(),
                            [] { return true; }),
               std::invalid_argument);
  EXPECT_THROW(PeriodicTask(sim, std::numeric_limits<double>::quiet_NaN(),
                            [] { return true; }),
               std::invalid_argument);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(PeriodicTask, StopInsideCallbackIsSafe) {
  Simulation sim;
  int count = 0;
  PeriodicTask task(sim, 1.0, [&] {
    ++count;
    return false;  // self-stop
  });
  sim.run_until(5.0);
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace fluxpower::sim
