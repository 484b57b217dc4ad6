// Pins the interaction between administrative drain and the power-admission
// ledger: draining a rank must never leak admitted power, and releasing a
// job whose ranks were drained mid-run must still refund its admission.
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

class DrainPowerTest : public ::testing::Test {
 protected:
  DrainPowerTest() {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922, 4);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < cluster_.size(); ++i) nodes.push_back(&cluster_.node(i));
    instance_ = std::make_unique<Instance>(sim_, std::move(nodes));
    instance_->jobs().set_launcher(
        [this](const Job& job, Instance&) -> std::unique_ptr<JobExecution> {
          return std::make_unique<TimedExecution>(
              sim_, job.spec.attributes.number_or("duration", 10.0));
        });
    instance_->scheduler().set_policy("power-aware");
    instance_->scheduler().set_power_budget(8000.0, 3050.0);
  }

  JobId submit(int nnodes, double power_per_node, double duration = 10.0) {
    JobSpec spec;
    spec.name = "j";
    spec.app = "t";
    spec.nnodes = nnodes;
    spec.attributes = util::Json::object();
    spec.attributes["duration"] = duration;
    spec.attributes["power_estimate_w_per_node"] = power_per_node;
    return instance_->jobs().submit(spec);
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<Instance> instance_;
};

// Draining a rank running an admitted job changes neither the ledger nor
// the charge; completion refunds it in full.
TEST_F(DrainPowerTest, DrainedRankDoesNotLeakAdmission) {
  Scheduler& sched = instance_->scheduler();
  const JobId a = submit(2, 1500.0, 20.0);  // 3000 W
  sim_.run_until(1.0);
  ASSERT_EQ(instance_->jobs().job(a).state, JobState::Run);
  ASSERT_DOUBLE_EQ(sched.admitted_power_w(), 3000.0);

  for (Rank r : instance_->jobs().job(a).ranks) sched.drain(r);
  EXPECT_DOUBLE_EQ(sched.admitted_power_w(), 3000.0) << "drain must not touch "
                                                        "the ledger";
  sim_.run();
  EXPECT_TRUE(instance_->jobs().job(a).done());
  // Release of a drained rank's job returns its admission.
  EXPECT_DOUBLE_EQ(sched.admitted_power_w(), 0.0);
  EXPECT_TRUE(sched.admitted().empty());
  // The drained ranks stay out of the pool, but no watts are stranded.
  EXPECT_EQ(sched.free_node_count(),
            4 - static_cast<int>(instance_->jobs().job(a).ranks.size()));
}

// Power freed by a drained rank's completed job must be usable by waiting
// jobs (the refund actually re-enters the budget, not just the counter).
TEST_F(DrainPowerTest, RefundedAdmissionReentersBudget) {
  Scheduler& sched = instance_->scheduler();
  const JobId a = submit(2, 3000.0, 10.0);  // 6000 of 8000 W
  const JobId b = submit(2, 1500.0, 10.0);  // 3000 W: must wait
  sim_.run_until(1.0);
  ASSERT_EQ(instance_->jobs().job(a).state, JobState::Run);
  ASSERT_EQ(instance_->jobs().job(b).state, JobState::Sched);

  for (Rank r : instance_->jobs().job(a).ranks) sched.drain(r);
  sim_.run_until(15.0);
  // a finished on drained ranks; its 6000 W refund admits b even though
  // the drained nodes themselves are gone from the pool.
  EXPECT_TRUE(instance_->jobs().job(a).done());
  EXPECT_EQ(instance_->jobs().job(b).state, JobState::Run);
  EXPECT_DOUBLE_EQ(sched.admitted_power_w(), 3000.0);

  sim_.run();
  EXPECT_DOUBLE_EQ(sched.admitted_power_w(), 0.0);
}

// Repeated drain/undrain cycles with overlapping jobs: the ledger always
// ends at zero (the no-leak invariant the twin POL section digests).
TEST_F(DrainPowerTest, DrainUndrainCyclesNeverStrandWatts) {
  Scheduler& sched = instance_->scheduler();
  submit(1, 2000.0, 8.0);
  submit(2, 1500.0, 12.0);
  submit(1, 2500.0, 6.0);
  sim_.run_until(2.0);
  sched.drain(1);
  sched.drain(2);
  sim_.run_until(9.0);
  sched.undrain(1);
  sim_.run_until(11.0);
  sched.undrain(2);
  sim_.run();
  EXPECT_DOUBLE_EQ(sched.admitted_power_w(), 0.0);
  EXPECT_TRUE(sched.admitted().empty());
  EXPECT_EQ(sched.queue_length(), 0u);
  EXPECT_EQ(sched.free_node_count(), 4);
}

}  // namespace
}  // namespace fluxpower::flux
