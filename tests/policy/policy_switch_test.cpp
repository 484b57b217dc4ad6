// Regression tests for mid-run policy changes (the set_policy kick bug):
// switching the scheduler policy while jobs wait must re-examine the queue
// immediately — queued jobs admissible under the new policy must not wait
// for the next enqueue/release to be noticed.
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

class PolicySwitchTest : public ::testing::Test {
 protected:
  PolicySwitchTest() {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922, 8);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < cluster_.size(); ++i) nodes.push_back(&cluster_.node(i));
    instance_ = std::make_unique<Instance>(sim_, std::move(nodes));
    instance_->jobs().set_launcher(
        [this](const Job& job, Instance&) -> std::unique_ptr<JobExecution> {
          return std::make_unique<TimedExecution>(
              sim_, job.spec.attributes.number_or("duration", 10.0));
        });
  }

  JobId submit(int nnodes, double power_per_node = 0.0,
               double duration = 10.0) {
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

// The original bug: a job held purely by the old policy stayed queued after
// set_policy because nothing kicked the scan.
TEST_F(PolicySwitchTest, MidRunSwitchKicksQueuedJobs) {
  Scheduler& sched = instance_->scheduler();
  sched.set_policy("power-aware");
  sched.set_power_budget(4000.0, 3050.0);
  submit(2, 1500.0, 100.0);               // 3000 W admitted
  const JobId held = submit(2, 800.0);    // 1600 W: over budget, waits
  sim_.run_until(1.0);
  ASSERT_EQ(instance_->jobs().job(held).state, JobState::Sched);
  ASSERT_EQ(sched.queue_length(), 1u);

  // FCFS ignores power: the held job must start NOW, with no further
  // enqueue/release to rescue it.
  sched.set_policy("fcfs");
  EXPECT_EQ(instance_->jobs().job(held).state, JobState::Run);
  EXPECT_EQ(sched.queue_length(), 0u);
}

TEST_F(PolicySwitchTest, MidRunSwitchByNameKicksToo) {
  Scheduler& sched = instance_->scheduler();
  sched.set_policy("power-aware");
  sched.set_power_budget(4000.0, 3050.0);
  submit(2, 1500.0, 100.0);
  const JobId held = submit(2, 800.0);
  sim_.run_until(1.0);
  ASSERT_EQ(instance_->jobs().job(held).state, JobState::Sched);

  sched.set_policy("easy-backfill");
  EXPECT_EQ(instance_->jobs().job(held).state, JobState::Run);
  EXPECT_STREQ(sched.policy_name(), "easy-backfill");
}

// Deferred-kick profile (sharded engine): the policy-change kick must
// coalesce through the deferred path, not bypass it — the job starts once
// the zero-delay kick event runs, not synchronously.
TEST_F(PolicySwitchTest, DeferredKickProfileStillReexaminesQueue) {
  Scheduler& sched = instance_->scheduler();
  sched.set_deferred_kick(sim_);
  sched.set_policy("power-aware");
  sched.set_power_budget(4000.0, 3050.0);
  submit(2, 1500.0, 100.0);
  const JobId held = submit(2, 800.0);
  sim_.run_until(1.0);
  ASSERT_EQ(instance_->jobs().job(held).state, JobState::Sched);

  sched.set_policy("fcfs");
  // Deferred: not synchronous...
  EXPECT_EQ(instance_->jobs().job(held).state, JobState::Sched);
  // ...but the coalesced kick event is queued and fires at the same
  // timestamp.
  sim_.run_until(1.0);
  EXPECT_EQ(instance_->jobs().job(held).state, JobState::Run);
}

// Byte-identity guard: changing policy while the queue is empty (the
// pre-run configuration path every bench uses) schedules no events.
TEST_F(PolicySwitchTest, SwitchWithEmptyQueueSchedulesNothing) {
  const std::size_t before = sim_.pending();
  instance_->scheduler().set_policy("easy-backfill");
  instance_->scheduler().set_policy("power-aware");
  EXPECT_EQ(sim_.pending(), before);
}

// A switch while jobs run but none wait must not disturb the admitted
// ledger: the PowerAware charges survive the policy object swap.
TEST_F(PolicySwitchTest, SwitchPreservesAdmittedLedger) {
  Scheduler& sched = instance_->scheduler();
  sched.set_policy("power-aware");
  sched.set_power_budget(10000.0, 3050.0);
  const JobId a = submit(2, 1500.0, 100.0);
  sim_.run_until(1.0);
  ASSERT_EQ(instance_->jobs().job(a).state, JobState::Run);
  ASSERT_DOUBLE_EQ(sched.admitted_power_w(), 3000.0);

  sched.set_policy("fcfs");
  EXPECT_DOUBLE_EQ(sched.admitted_power_w(), 3000.0);
  sim_.run();
  // Release under the new policy still refunds the old charge.
  EXPECT_DOUBLE_EQ(sched.admitted_power_w(), 0.0);
  EXPECT_TRUE(sched.admitted().empty());
}

}  // namespace
}  // namespace fluxpower::flux
