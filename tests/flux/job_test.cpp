// Tests for flux job management: state machine, scheduler, job-info, KVS.
#include <gtest/gtest.h>

#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"

namespace fluxpower::flux {
namespace {

/// Execution that completes after a fixed simulated duration.
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

class JobTest : public ::testing::Test {
 protected:
  JobTest() {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922, 8);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < cluster_.size(); ++i) nodes.push_back(&cluster_.node(i));
    instance_ = std::make_unique<Instance>(sim_, std::move(nodes));
    instance_->jobs().set_launcher(
        [this](const Job& job, Instance&) -> std::unique_ptr<JobExecution> {
          const double dur = job.spec.attributes.number_or("duration", 10.0);
          return std::make_unique<TimedExecution>(sim_, dur);
        });
  }

  JobSpec spec(int nnodes, double duration = 10.0) {
    JobSpec s;
    s.name = "job";
    s.app = "test";
    s.nnodes = nnodes;
    s.attributes = util::Json::object();
    s.attributes["duration"] = duration;
    return s;
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(JobTest, SubmitRunsAndCompletes) {
  const JobId id = instance_->jobs().submit(spec(2, 25.0));
  sim_.run();
  const Job& job = instance_->jobs().job(id);
  EXPECT_EQ(job.state, JobState::Inactive);
  EXPECT_EQ(job.ranks.size(), 2u);
  EXPECT_DOUBLE_EQ(job.t_start, 0.0);
  EXPECT_DOUBLE_EQ(job.t_end, 25.0);
  EXPECT_DOUBLE_EQ(job.runtime(), 25.0);
}

TEST_F(JobTest, InvalidSubmitRejected) {
  EXPECT_THROW(instance_->jobs().submit(spec(0)), std::invalid_argument);
  EXPECT_THROW(instance_->jobs().submit(spec(9)), std::invalid_argument);
}

TEST_F(JobTest, UnknownJobLookupThrows) {
  EXPECT_THROW(instance_->jobs().job(999), std::out_of_range);
  EXPECT_FALSE(instance_->jobs().has_job(999));
}

TEST_F(JobTest, FcfsQueuesWhenFull) {
  const JobId a = instance_->jobs().submit(spec(6, 50.0));
  const JobId b = instance_->jobs().submit(spec(6, 10.0));
  sim_.run_until(1.0);
  EXPECT_EQ(instance_->jobs().job(a).state, JobState::Run);
  EXPECT_EQ(instance_->jobs().job(b).state, JobState::Sched);
  EXPECT_EQ(instance_->scheduler().queue_length(), 1u);
  sim_.run();
  EXPECT_EQ(instance_->jobs().job(b).state, JobState::Inactive);
  // b started only after a's nodes freed.
  EXPECT_DOUBLE_EQ(instance_->jobs().job(b).t_start, 50.0);
}

TEST_F(JobTest, FcfsHeadOfLineBlocks) {
  instance_->jobs().submit(spec(6, 50.0));   // occupies 6
  const JobId big = instance_->jobs().submit(spec(4, 10.0));   // blocked (only 2 free)
  const JobId tiny = instance_->jobs().submit(spec(1, 10.0));  // would fit, FCFS blocks
  sim_.run_until(1.0);
  EXPECT_EQ(instance_->jobs().job(big).state, JobState::Sched);
  EXPECT_EQ(instance_->jobs().job(tiny).state, JobState::Sched);
}

TEST_F(JobTest, BackfillLetsSmallJobsThrough) {
  instance_->scheduler().set_policy("easy-backfill");
  instance_->jobs().submit(spec(6, 50.0));
  const JobId big = instance_->jobs().submit(spec(4, 10.0));
  const JobId tiny = instance_->jobs().submit(spec(1, 10.0));
  sim_.run_until(1.0);
  EXPECT_EQ(instance_->jobs().job(big).state, JobState::Sched);
  EXPECT_EQ(instance_->jobs().job(tiny).state, JobState::Run);
}

TEST_F(JobTest, NodesReusedAfterCompletion) {
  instance_->jobs().submit(spec(8, 10.0));
  const JobId second = instance_->jobs().submit(spec(8, 10.0));
  sim_.run();
  const Job& job = instance_->jobs().job(second);
  EXPECT_DOUBLE_EQ(job.t_start, 10.0);
  EXPECT_EQ(job.ranks.size(), 8u);
}

TEST_F(JobTest, CancelQueuedJob) {
  instance_->jobs().submit(spec(8, 50.0));
  const JobId queued = instance_->jobs().submit(spec(4, 10.0));
  sim_.run_until(1.0);
  instance_->jobs().cancel(queued);
  EXPECT_EQ(instance_->jobs().job(queued).state, JobState::Inactive);
  EXPECT_EQ(instance_->scheduler().queue_length(), 0u);
}

TEST_F(JobTest, CancelRunningJobFreesNodes) {
  const JobId id = instance_->jobs().submit(spec(8, 100.0));
  sim_.run_until(5.0);
  instance_->jobs().cancel(id);
  EXPECT_EQ(instance_->jobs().job(id).state, JobState::Inactive);
  EXPECT_EQ(instance_->scheduler().free_node_count(), 8);
  // Cancelling an inactive job is a no-op.
  EXPECT_NO_THROW(instance_->jobs().cancel(id));
  EXPECT_THROW(instance_->jobs().cancel(777), std::out_of_range);
}

TEST_F(JobTest, RunningCountAndStateQueries) {
  instance_->jobs().submit(spec(3, 30.0));
  instance_->jobs().submit(spec(3, 30.0));
  instance_->jobs().submit(spec(8, 30.0));  // queued
  sim_.run_until(1.0);
  EXPECT_EQ(instance_->jobs().running_count(), 2);
  EXPECT_EQ(instance_->jobs().jobs_in_state(JobState::Sched).size(), 1u);
  EXPECT_EQ(instance_->jobs().all_jobs().size(), 3u);
}

TEST_F(JobTest, StateEventsPublished) {
  std::vector<std::string> events;
  instance_->root().subscribe_event("job.", [&](const Message& m) {
    events.push_back(m.topic);
  });
  instance_->jobs().submit(spec(1, 5.0));
  sim_.run();
  // depend, sched, run, cleanup, inactive in order.
  ASSERT_GE(events.size(), 5u);
  EXPECT_EQ(events[0], "job.state-depend");
  EXPECT_EQ(events[1], "job.state-sched");
  EXPECT_EQ(events[2], "job.state-run");
  EXPECT_EQ(events[3], "job.state-cleanup");
  EXPECT_EQ(events[4], "job.state-inactive");
}

TEST_F(JobTest, JobInfoLookupService) {
  const JobId id = instance_->jobs().submit(spec(2, 8.0));
  sim_.run();
  util::Json payload = util::Json::object();
  payload["id"] = id;
  util::Json got;
  instance_->root().rpc(kRootRank, "job-info.lookup", std::move(payload),
                        [&](const Message& resp) { got = resp.payload; });
  sim_.run();
  EXPECT_EQ(got.int_or("id", 0), static_cast<std::int64_t>(id));
  EXPECT_EQ(got.string_or("state", ""), "INACTIVE");
  EXPECT_EQ(got.at("ranks").size(), 2u);
  EXPECT_DOUBLE_EQ(got.number_or("t_end", -1.0), 8.0);
}

TEST_F(JobTest, JobInfoUnknownIdIsEnoent) {
  util::Json payload = util::Json::object();
  payload["id"] = 424242;
  int errnum = 0;
  instance_->root().rpc(kRootRank, "job-info.lookup", std::move(payload),
                        [&](const Message& resp) { errnum = resp.errnum; });
  sim_.run();
  EXPECT_EQ(errnum, kENoent);
}

TEST_F(JobTest, SubmitViaRpcService) {
  util::Json payload = util::Json::object();
  payload["name"] = "rpc-job";
  payload["app"] = "test";
  payload["nnodes"] = 2;
  JobId id = 0;
  instance_->root().rpc(kRootRank, "job-manager.submit", std::move(payload),
                        [&](const Message& resp) {
                          id = static_cast<JobId>(resp.payload.int_or("id", 0));
                        });
  sim_.run();
  ASSERT_NE(id, kInvalidJob);
  EXPECT_EQ(instance_->jobs().job(id).spec.name, "rpc-job");
}

TEST_F(JobTest, SubmitViaRpcRejectsBadRequest) {
  util::Json payload = util::Json::object();
  payload["nnodes"] = 500;
  int errnum = 0;
  instance_->root().rpc(kRootRank, "job-manager.submit", std::move(payload),
                        [&](const Message& resp) { errnum = resp.errnum; });
  sim_.run();
  EXPECT_EQ(errnum, kEInval);
}

TEST_F(JobTest, KvsEventlogRecordsLifecycle) {
  const JobId id = instance_->jobs().submit(spec(1, 5.0));
  sim_.run();
  const auto log =
      instance_->kvs().eventlog("jobs." + std::to_string(id) + ".eventlog");
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].string_or("name", ""), "submit");
  EXPECT_EQ(log[1].string_or("name", ""), "start");
  EXPECT_EQ(log[2].string_or("name", ""), "finish");
  EXPECT_DOUBLE_EQ(log[2].number_or("timestamp", -1.0), 5.0);
}

TEST_F(JobTest, NullLauncherCompletesInstantly) {
  instance_->jobs().set_launcher(nullptr);
  const JobId id = instance_->jobs().submit(spec(4));
  // No sim advance needed: completion is synchronous.
  EXPECT_EQ(instance_->jobs().job(id).state, JobState::Inactive);
  EXPECT_EQ(instance_->scheduler().free_node_count(), 8);
}

TEST(Kvs, BasicOperations) {
  sim::Simulation sim;
  Kvs kvs(sim);
  EXPECT_FALSE(kvs.get("a").has_value());
  kvs.put("a", util::Json(1));
  EXPECT_TRUE(kvs.contains("a"));
  EXPECT_EQ(kvs.get("a")->as_int(), 1);
  kvs.erase("a");
  EXPECT_FALSE(kvs.contains("a"));
}

TEST(Kvs, PrefixListing) {
  sim::Simulation sim;
  Kvs kvs(sim);
  kvs.put("jobs.1.x", util::Json(1));
  kvs.put("jobs.2.x", util::Json(2));
  kvs.put("other", util::Json(3));
  const auto keys = kvs.keys_with_prefix("jobs.");
  EXPECT_EQ(keys.size(), 2u);
  EXPECT_EQ(kvs.size(), 3u);
}

TEST(Kvs, EventlogAppendStampsTime) {
  sim::Simulation sim;
  Kvs kvs(sim);
  sim.run_until(3.5);
  kvs.eventlog_append("log", "event-a");
  const auto log = kvs.eventlog("log");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0].number_or("timestamp", -1.0), 3.5);
  EXPECT_TRUE(kvs.eventlog("missing").empty());
}

}  // namespace
}  // namespace fluxpower::flux
