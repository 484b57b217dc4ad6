// Tests for flux brokers: services, RPC, events, modules.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"

namespace fluxpower::flux {
namespace {

class BrokerTest : public ::testing::Test {
 protected:
  BrokerTest() {
    cluster_ = hwsim::make_cluster(sim_, hwsim::Platform::LassenIbmAc922, 4);
    std::vector<hwsim::Node*> nodes;
    for (int i = 0; i < cluster_.size(); ++i) nodes.push_back(&cluster_.node(i));
    instance_ = std::make_unique<Instance>(sim_, std::move(nodes));
  }

  sim::Simulation sim_;
  hwsim::Cluster cluster_;
  std::unique_ptr<Instance> instance_;
};

TEST_F(BrokerTest, InstanceShape) {
  EXPECT_EQ(instance_->size(), 4);
  EXPECT_TRUE(instance_->root().is_root());
  EXPECT_FALSE(instance_->broker(1).is_root());
  EXPECT_EQ(instance_->broker(2).rank(), 2);
  EXPECT_THROW(instance_->broker(4), std::out_of_range);
  EXPECT_EQ(instance_->node(0)->hostname(), "lassen0");
}

TEST_F(BrokerTest, EmptyInstanceRejected) {
  EXPECT_THROW(Instance(sim_, {}), std::invalid_argument);
}

TEST_F(BrokerTest, RpcRoundTrip) {
  instance_->broker(2).register_service("echo", [this](const Message& req) {
    util::Json reply = util::Json::object();
    reply["echo"] = req.payload.string_or("msg", "");
    instance_->broker(2).respond(req, std::move(reply));
  });
  std::string got;
  util::Json payload = util::Json::object();
  payload["msg"] = "hello";
  instance_->root().rpc(2, "echo", std::move(payload),
                        [&](const Message& resp) {
                          got = resp.payload.string_or("echo", "");
                        });
  sim_.run();
  EXPECT_EQ(got, "hello");
}

TEST_F(BrokerTest, RpcToUnknownServiceReturnsEnosys) {
  int errnum = 0;
  instance_->root().rpc(1, "no.such.service", util::Json::object(),
                        [&](const Message& resp) { errnum = resp.errnum; });
  sim_.run();
  EXPECT_EQ(errnum, kENosys);
}

TEST_F(BrokerTest, RespondErrorCarriesText) {
  instance_->broker(1).register_service("fail", [this](const Message& req) {
    instance_->broker(1).respond_error(req, kEInval, "bad input");
  });
  std::string text;
  int errnum = 0;
  instance_->root().rpc(1, "fail", util::Json::object(),
                        [&](const Message& resp) {
                          errnum = resp.errnum;
                          text = resp.error_text;
                        });
  sim_.run();
  EXPECT_EQ(errnum, kEInval);
  EXPECT_EQ(text, "bad input");
}

TEST_F(BrokerTest, RpcDeliveryTakesHopLatency) {
  instance_->broker(3).register_service("ping", [this](const Message& req) {
    instance_->broker(3).respond(req, util::Json::object());
  });
  double response_at = -1.0;
  instance_->root().rpc(3, "ping", util::Json::object(),
                        [&](const Message&) { response_at = sim_.now(); });
  sim_.run();
  // Rank 3's parent chain: 3 -> 1 -> 0 = 2 hops each way at 100 us.
  EXPECT_NEAR(response_at, 4 * 100e-6, 1e-9);
}

TEST_F(BrokerTest, ConcurrentRpcsCorrelateByMatchtag) {
  instance_->broker(1).register_service("id", [this](const Message& req) {
    util::Json reply = util::Json::object();
    reply["v"] = req.payload.int_or("v", -1);
    instance_->broker(1).respond(req, std::move(reply));
  });
  std::vector<std::int64_t> got;
  for (int i = 0; i < 5; ++i) {
    util::Json payload = util::Json::object();
    payload["v"] = i;
    instance_->root().rpc(1, "id", std::move(payload),
                          [&](const Message& resp) {
                            got.push_back(resp.payload.int_or("v", -1));
                          });
  }
  sim_.run();
  EXPECT_EQ(got, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
}

TEST_F(BrokerTest, DuplicateServiceRegistrationThrows) {
  auto& b = instance_->broker(1);
  b.register_service("dup", [](const Message&) {});
  EXPECT_THROW(b.register_service("dup", [](const Message&) {}),
               std::invalid_argument);
  b.unregister_service("dup");
  EXPECT_NO_THROW(b.register_service("dup", [](const Message&) {}));
}

TEST_F(BrokerTest, EventsBroadcastToAllSubscribers) {
  int delivered = 0;
  for (int r = 0; r < 4; ++r) {
    instance_->broker(r).subscribe_event(
        "test.event", [&](const Message&) { ++delivered; });
  }
  instance_->broker(2).publish_event("test.event", util::Json::object());
  sim_.run();
  EXPECT_EQ(delivered, 4);  // including the publisher itself
}

TEST_F(BrokerTest, EventTopicExactMatch) {
  int hits = 0;
  instance_->root().subscribe_event("a.b", [&](const Message&) { ++hits; });
  instance_->root().publish_event("a.b", util::Json::object());
  instance_->root().publish_event("a.bc", util::Json::object());
  instance_->root().publish_event("a", util::Json::object());
  sim_.run();
  EXPECT_EQ(hits, 1);
}

TEST_F(BrokerTest, EventPrefixSubscription) {
  int hits = 0;
  instance_->root().subscribe_event("job.", [&](const Message&) { ++hits; });
  instance_->root().publish_event("job.state-run", util::Json::object());
  instance_->root().publish_event("job.state-inactive", util::Json::object());
  instance_->root().publish_event("power.sample", util::Json::object());
  sim_.run();
  EXPECT_EQ(hits, 2);
}

TEST_F(BrokerTest, UnsubscribeStopsDelivery) {
  int hits = 0;
  const auto id = instance_->root().subscribe_event(
      "x", [&](const Message&) { ++hits; });
  instance_->root().publish_event("x", util::Json::object());
  sim_.run();
  instance_->root().unsubscribe_event(id);
  instance_->root().publish_event("x", util::Json::object());
  sim_.run();
  EXPECT_EQ(hits, 1);
}

TEST_F(BrokerTest, MessageCountersAdvance) {
  instance_->broker(1).register_service("s", [this](const Message& req) {
    instance_->broker(1).respond(req, util::Json::object());
  });
  const auto sent_before = instance_->root().messages_sent();
  instance_->root().rpc(1, "s", util::Json::object(), [](const Message&) {});
  sim_.run();
  EXPECT_EQ(instance_->root().messages_sent(), sent_before + 1);
  EXPECT_GE(instance_->broker(1).messages_received(), 1u);
  EXPECT_GT(instance_->messages_routed(), 0u);
}

// Module lifecycle coverage.
class CountingModule final : public Module {
 public:
  explicit CountingModule(int* loads, int* unloads)
      : loads_(loads), unloads_(unloads) {}
  const char* name() const override { return "counting"; }
  void load(Broker& broker) override {
    broker_ = &broker;
    ++*loads_;
    broker.register_service("counting.ping", [this](const Message& req) {
      broker_->respond(req, util::Json::object());
    });
  }
  void unload() override {
    ++*unloads_;
    broker_->unregister_service("counting.ping");
  }

 private:
  Broker* broker_ = nullptr;
  int* loads_;
  int* unloads_;
};

TEST_F(BrokerTest, ModuleLoadUnload) {
  int loads = 0, unloads = 0;
  auto& b = instance_->broker(1);
  b.load_module(std::make_shared<CountingModule>(&loads, &unloads));
  EXPECT_EQ(loads, 1);
  EXPECT_NE(b.find_module("counting"), nullptr);
  EXPECT_TRUE(b.has_service("counting.ping"));
  b.unload_module("counting");
  EXPECT_EQ(unloads, 1);
  EXPECT_EQ(b.find_module("counting"), nullptr);
  EXPECT_FALSE(b.has_service("counting.ping"));
}

TEST_F(BrokerTest, DuplicateModuleLoadThrows) {
  int loads = 0, unloads = 0;
  auto& b = instance_->broker(1);
  b.load_module(std::make_shared<CountingModule>(&loads, &unloads));
  EXPECT_THROW(
      b.load_module(std::make_shared<CountingModule>(&loads, &unloads)),
      std::invalid_argument);
  // Unload before the counters go out of scope: the broker destructor would
  // otherwise call unload() with dangling pointers into this stack frame.
  b.unload_module("counting");
  EXPECT_EQ(unloads, 1);
}

TEST_F(BrokerTest, SpawnChildInstanceOnSubset) {
  Instance& child = instance_->spawn_child({1, 2});
  EXPECT_EQ(child.size(), 2);
  // Child broker rank 0 maps to parent rank 1's node.
  EXPECT_EQ(child.node(0)->hostname(), "lassen1");
  EXPECT_EQ(child.node(1)->hostname(), "lassen2");
  EXPECT_THROW(instance_->spawn_child({9}), std::out_of_range);
}

TEST_F(BrokerTest, ChildInstanceHasIndependentServices) {
  Instance& child = instance_->spawn_child({0, 1});
  child.root().register_service("only.child", [&](const Message& req) {
    child.root().respond(req, util::Json::object());
  });
  // Parent root does not have the service.
  int errnum = -1;
  instance_->root().rpc(0, "only.child", util::Json::object(),
                        [&](const Message& resp) { errnum = resp.errnum; });
  sim_.run();
  EXPECT_EQ(errnum, kENosys);
}

// The service table: one contiguous array per broker. A handler runs from a
// local copy of its slot, so one that registers enough services to
// reallocate the table, or unregisters others and shifts it, never runs
// from freed storage. The edit handler's two reference captures fit inside
// std::function itself, i.e. inside the table's storage, so ASan reports
// the captures it reads after its edits if it ran from its slot.
class BrokerServices : public BrokerTest {};

TEST_F(BrokerServices, HandlerEditsItsBrokersTableDuringDispatch) {
  Broker& b = instance_->broker(1);
  b.register_service("before", [](const Message&) {});
  int calls = 0;
  b.register_service("edit", [&b, &calls](const Message& req) {
    for (int i = 0; i < 40; ++i) {
      const std::string topic = "extra." + std::to_string(i);
      if (!b.has_service(topic)) {
        b.register_service(topic, [](const Message&) {});
      }
    }
    b.unregister_service("before");
    for (int i = 0; i < 40; i += 2) {
      b.unregister_service("extra." + std::to_string(i));
    }
    ++calls;
    util::Json reply = util::Json::object();
    reply["edits"] = calls;
    b.respond(req, std::move(reply));
  });
  std::int64_t got = 0;
  instance_->root().rpc(1, "edit", util::Json::object(),
                        [&](const Message& resp) {
                          got = resp.payload.int_or("edits", -1);
                        });
  sim_.run();
  EXPECT_EQ(got, 1);
  EXPECT_TRUE(b.has_service("edit"));
  EXPECT_FALSE(b.has_service("before"));
  EXPECT_FALSE(b.has_service("extra.0"));
  EXPECT_TRUE(b.has_service("extra.1"));
  // The handler went back to its slot: a second request finds it.
  instance_->root().rpc(1, "edit", util::Json::object(),
                        [&](const Message& resp) {
                          got = resp.payload.int_or("edits", -1);
                        });
  sim_.run();
  EXPECT_EQ(got, 2);
}

TEST_F(BrokerServices, HandlerThatUnregistersItselfIsDropped) {
  Broker& b = instance_->broker(2);
  b.register_service("once", [&b](const Message& req) {
    b.unregister_service("once");
    b.respond(req, util::Json::object());
  });
  std::vector<int> errnums;
  for (int i = 0; i < 2; ++i) {
    instance_->root().rpc(2, "once", util::Json::object(),
                          [&](const Message& resp) {
                            errnums.push_back(resp.errnum);
                          });
    sim_.run();
  }
  EXPECT_EQ(errnums, (std::vector<int>{0, kENosys}));
  EXPECT_FALSE(b.has_service("once"));
}

TEST_F(BrokerServices, DuplicateRegistrationStillThrows) {
  Broker& b = instance_->broker(3);
  const std::string topic = "power-monitor.a-long-topic-name";
  b.register_service(std::string_view(topic).substr(0, 20),
                     [](const Message&) {});
  EXPECT_THROW(b.register_service(topic.substr(0, 20), [](const Message&) {}),
               std::invalid_argument);
  EXPECT_THROW(b.register_service("null", ServiceHandler()),
               std::invalid_argument);
  // A running handler still owns its topic.
  bool threw = false;
  b.register_service("self", [&b, &threw](const Message&) {
    try {
      b.register_service("self", [](const Message&) {});
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  });
  b.deliver([] {
    Message m;
    m.topic = "self";
    m.sender = 3;
    m.dest = 3;
    return m;
  }());
  EXPECT_TRUE(threw);
  // The same topic on another broker is a separate service.
  EXPECT_NO_THROW(instance_->broker(2).register_service(
      topic.substr(0, 20), [](const Message&) {}));
}

TEST_F(BrokerServices, UnknownTopicStillAnswersEnosys) {
  Broker& b = instance_->broker(1);
  b.register_service("gone", [](const Message&) {});
  b.unregister_service("gone");
  b.unregister_service("never-registered");  // a no-op
  std::vector<int> errnums;
  std::string text;
  for (const char* topic : {"gone", "gon", "gone.", ""}) {
    instance_->root().rpc(1, topic, util::Json::object(),
                          [&](const Message& resp) {
                            errnums.push_back(resp.errnum);
                            text = resp.error_text;
                          });
  }
  sim_.run();
  EXPECT_EQ(errnums, (std::vector<int>(4, kENosys)));
  EXPECT_EQ(text, "no service registered for ");
}

}  // namespace
}  // namespace fluxpower::flux
