// Tests for the power-aware scheduling extension.
#include <gtest/gtest.h>

#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"

namespace fluxpower::flux {
namespace {

class TimedExecution final : public JobExecution {
 public:
  TimedExecution(sim::Simulation& sim, double duration)
      : sim_(sim), duration_(duration) {}
  void start(std::function<void()> on_complete) override {
    event_ = sim_.schedule_after(duration_, std::move(on_complete));
  }
  void cancel() override { sim_.cancel(event_); }

 private:
  sim::Simulation& sim_;
  double duration_;
  sim::EventId event_ = sim::kInvalidEvent;
};

class PowerAwareSchedTest : public ::testing::Test {
 protected:
  PowerAwareSchedTest() {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922, 8);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < cluster_.size(); ++i) nodes.push_back(&cluster_.node(i));
    instance_ = std::make_unique<Instance>(sim_, std::move(nodes));
    instance_->jobs().set_launcher(
        [this](const Job& job, Instance&) -> std::unique_ptr<JobExecution> {
          return std::make_unique<TimedExecution>(
              sim_, job.spec.attributes.number_or("duration", 10.0));
        });
    instance_->scheduler().set_policy("power-aware");
    instance_->scheduler().set_power_budget(4000.0, 3050.0);
  }

  JobId submit(int nnodes, double power_per_node, double duration = 10.0) {
    JobSpec spec;
    spec.name = "j";
    spec.app = "t";
    spec.nnodes = nnodes;
    spec.attributes = util::Json::object();
    spec.attributes["duration"] = duration;
    if (power_per_node > 0.0) {
      spec.attributes["power_estimate_w_per_node"] = power_per_node;
    }
    return instance_->jobs().submit(spec);
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(PowerAwareSchedTest, AdmitsWithinBudget) {
  const JobId a = submit(2, 1500.0);  // 3000 W
  sim_.run_until(0.1);
  EXPECT_EQ(instance_->jobs().job(a).state, JobState::Run);
  EXPECT_DOUBLE_EQ(instance_->scheduler().admitted_power_w(), 3000.0);
}

TEST_F(PowerAwareSchedTest, BlocksWhenBudgetExhausted) {
  submit(2, 1500.0, 50.0);            // 3000 W admitted
  const JobId b = submit(2, 800.0);   // 1600 W: 3000+1600 > 4000 -> wait
  sim_.run_until(1.0);
  EXPECT_EQ(instance_->jobs().job(b).state, JobState::Sched);
  // Plenty of free nodes — the block is purely power.
  EXPECT_EQ(instance_->scheduler().free_node_count(), 6);
}

TEST_F(PowerAwareSchedTest, AdmitsAfterPowerReleased) {
  submit(2, 1500.0, 50.0);
  const JobId b = submit(2, 800.0, 10.0);
  sim_.run();
  const Job& job = instance_->jobs().job(b);
  EXPECT_TRUE(job.done());
  EXPECT_DOUBLE_EQ(job.t_start, 50.0);  // started when job a released power
  EXPECT_DOUBLE_EQ(instance_->scheduler().admitted_power_w(), 0.0);
}

TEST_F(PowerAwareSchedTest, MissingEstimateAssumesNodePeak) {
  const JobId a = submit(2, 0.0);  // no estimate -> 2 x 3050 = 6100 > 4000
  sim_.run_until(0.5);
  // Oversized single job is admitted alone rather than starving.
  EXPECT_EQ(instance_->jobs().job(a).state, JobState::Run);
  const JobId b = submit(1, 100.0);
  sim_.run_until(1.0);
  EXPECT_EQ(instance_->jobs().job(b).state, JobState::Sched);
}

TEST_F(PowerAwareSchedTest, HeadOfLineBlocksOnPower) {
  submit(2, 1500.0, 50.0);           // 3000 W
  const JobId big = submit(2, 800.0, 10.0);   // blocked on power
  const JobId tiny = submit(1, 100.0, 10.0);  // would fit, but FCFS order
  sim_.run_until(1.0);
  EXPECT_EQ(instance_->jobs().job(big).state, JobState::Sched);
  EXPECT_EQ(instance_->jobs().job(tiny).state, JobState::Sched);
}

TEST_F(PowerAwareSchedTest, ZeroBoundDisablesAdmissionControl) {
  instance_->scheduler().set_power_budget(0.0, 3050.0);
  submit(4, 2000.0);
  const JobId b = submit(4, 2000.0);
  sim_.run_until(0.5);
  EXPECT_EQ(instance_->jobs().job(b).state, JobState::Run);
}

TEST_F(PowerAwareSchedTest, CancelledQueuedJobReleasesNothing) {
  submit(2, 1500.0, 50.0);
  const JobId b = submit(2, 1000.0);
  sim_.run_until(1.0);
  instance_->jobs().cancel(b);
  EXPECT_DOUBLE_EQ(instance_->scheduler().admitted_power_w(), 3000.0);
}

TEST_F(PowerAwareSchedTest, FcfsIgnoresPowerBudget) {
  instance_->scheduler().set_policy("fcfs");
  submit(4, 2000.0, 50.0);
  const JobId b = submit(4, 2000.0, 50.0);
  sim_.run_until(1.0);
  EXPECT_EQ(instance_->jobs().job(b).state, JobState::Run);
}

}  // namespace
}  // namespace fluxpower::flux
