// broker.hpp — the per-node flux-broker daemon.
//
// One broker runs on each node of an instance; brokers form the TBON and
// exchange messages with per-hop latency. A broker offers:
//   * a service table: topic -> request handler, one contiguous array per
//     broker whose topics point into a process-wide interned table;
//   * RPC with matchtag correlation and response callbacks;
//   * event pub/sub broadcast across the instance;
//   * module load/unload.
// All communication goes through Instance::route(), never direct function
// calls between brokers, preserving the paper's "modules interact with Flux
// exclusively via messages" contract.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "flux/message.hpp"
#include "flux/module.hpp"
#include "hwsim/node.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::flux {

class Instance;

/// Handles an incoming request; must eventually respond via
/// Broker::respond or respond_error (fire-and-forget requests may skip it).
using ServiceHandler = std::function<void(const Message&)>;

/// Receives the response to an RPC.
using ResponseHandler = std::function<void(const Message&)>;

/// Receives a broadcast event.
using EventHandler = std::function<void(const Message&)>;

/// The process-wide interned copy of `topic`: one immutable string per
/// distinct topic, never freed, so brokers keep a pointer instead of a copy.
/// Thread-safe (island threads and twin forks build stacks concurrently).
const std::string* intern_topic(std::string_view topic);

/// What a response needs of its request: the topic it echoes, the rank it
/// goes to and the matchtag that correlates it. A handler that answers
/// later keeps this instead of copying the request and its payload.
struct ReplyTo {
  const std::string* topic = nullptr;  ///< interned
  Rank sender = -1;
  std::uint64_t matchtag = 0;

  static ReplyTo of(const Message& request) {
    return {intern_topic(request.topic), request.sender, request.matchtag};
  }
};

class Broker {
 public:
  Broker(Instance& instance, Rank rank, hwsim::Node* node);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  Rank rank() const noexcept { return rank_; }
  bool is_root() const noexcept { return rank_ == kRootRank; }
  Instance& instance() noexcept { return instance_; }
  sim::Simulation& sim();

  /// The local node's hardware; null only in broker-level unit tests.
  hwsim::Node* node() noexcept { return node_; }

  // -- Services -------------------------------------------------------------

  /// Throws std::invalid_argument for a null handler or a topic already
  /// registered here. A handler may register or unregister other services
  /// of this broker while it runs.
  void register_service(std::string_view topic, ServiceHandler handler);
  void unregister_service(std::string_view topic);
  bool has_service(std::string_view topic) const;

  // -- RPC ------------------------------------------------------------------

  /// Send a request to `dest`; `on_response` fires when the (possibly error)
  /// response arrives. Returns the matchtag. `timeout_s` > 0 arms a
  /// deadline: if no response arrived by then, the handler fires once with
  /// a synthesized ETIMEDOUT error response and any late real response is
  /// dropped — so aggregations over many node-agents cannot hang on a dead
  /// broker.
  std::uint64_t rpc(Rank dest, const std::string& topic, util::Json payload,
                    ResponseHandler on_response, double timeout_s = 0.0);

  /// Credential attached to requests sent from this broker (default:
  /// instance owner). User-level clients set their own id; owner-only
  /// services check it via Broker::request_is_owner.
  void set_userid(UserId userid) noexcept { userid_ = userid; }
  UserId userid() const noexcept { return userid_; }
  static bool request_is_owner(const Message& req) {
    return req.userid == kOwnerUserid;
  }

  /// Fire-and-forget request (no response expected).
  void send_request(Rank dest, const std::string& topic, util::Json payload);

  void respond(const Message& request, util::Json payload);
  void respond(const ReplyTo& to, util::Json payload);
  /// Respond with a typed telemetry batch plus JSON meta keys. The batch
  /// travels by pointer through the TBON; the codec renders it to the
  /// historical JSON shape if the message ever hits the wire boundary.
  void respond_telemetry(const Message& request, util::Json meta,
                         std::shared_ptr<const TelemetryBatch> batch);
  void respond_telemetry(const ReplyTo& to, util::Json meta,
                         std::shared_ptr<const TelemetryBatch> batch);
  void respond_error(const Message& request, int errnum, std::string text);
  void respond_error(const ReplyTo& to, int errnum, std::string text);

  // -- Events ---------------------------------------------------------------

  /// Broadcast an event to every broker in the instance (including self).
  void publish_event(const std::string& topic, util::Json payload);

  /// Subscribe to events matching `topic` exactly, or by prefix when the
  /// topic ends in '.' (Flux's subscription-glob convention). Returns an id
  /// for unsubscribe.
  std::uint64_t subscribe_event(const std::string& topic, EventHandler handler);
  void unsubscribe_event(std::uint64_t id);

  // -- Modules --------------------------------------------------------------

  void load_module(std::shared_ptr<Module> module);
  void unload_module(const std::string& name);
  Module* find_module(const std::string& name);

  /// Messages delivered by the instance router.
  void deliver(const Message& msg);

  /// Counters for overhead/traffic accounting (micro benches, tests).
  /// Backed by this broker's metrics registry — the same values surface in
  /// the `power.metrics` exposition as fluxpower_broker_*_total.
  std::uint64_t messages_sent() const noexcept { return sent_->value(); }
  std::uint64_t messages_received() const noexcept {
    return received_->value();
  }

  /// RPCs whose handler has not yet fired (neither response nor timeout).
  /// Chaos tests assert this drains to zero — no leaked pending state.
  std::size_t pending_rpc_count() const noexcept {
    return pending_rpcs_.size();
  }

  /// Responses that arrived after their RPC's timeout already synthesized
  /// ETIMEDOUT. Matchtags are never reused, so a late response can only be
  /// dropped — it must never reach a newer handler.
  std::uint64_t late_responses() const noexcept {
    return late_responses_->value();
  }

  /// Per-broker (= per-node) metrics registry. Modules loaded on this
  /// broker register their instruments here; the monitor's `power.metrics`
  /// service aggregates every broker's registry over the TBON.
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

 private:
  friend class Instance;

  struct Service {
    const std::string* topic;  ///< interned
    ServiceHandler handler;    ///< empty while its own dispatch runs
  };

  std::vector<Service>::iterator find_service(std::string_view topic);
  void dispatch(const Message& request);
  /// Route a response to `sender` echoing `topic` and `matchtag`; `fill`
  /// sets its payload or error.
  template <typename Fill>
  void send_response(const std::string& topic, Rank sender,
                     std::uint64_t matchtag, Fill&& fill);

  Instance& instance_;
  Rank rank_;
  hwsim::Node* node_;
  /// Declared before the Counter*/Histogram* members below: they point into
  /// this registry and are bound in the constructor.
  obs::MetricsRegistry metrics_;
  std::vector<Service> services_;
  struct PendingRpc {
    ResponseHandler handler;
    sim::EventId timeout_event = sim::kInvalidEvent;
    double sent_at = 0.0;
    /// Interned topic, set when a timeout is armed or tracing is on: the
    /// synthesized ETIMEDOUT response and the trace span read it.
    const std::string* topic = nullptr;
  };
  std::map<std::uint64_t, PendingRpc> pending_rpcs_;
  /// Matchtags whose timeout fired before the real response arrived.
  /// Bounded: oldest entries are dropped past kTimedOutTagCap — tags are
  /// monotonically increasing, so the set's minimum is always the oldest.
  static constexpr std::size_t kTimedOutTagCap = 1024;
  std::set<std::uint64_t> timed_out_tags_;
  UserId userid_ = kOwnerUserid;
  struct Subscription {
    std::string topic;
    EventHandler handler;
  };
  std::map<std::uint64_t, Subscription> subscriptions_;
  std::vector<std::shared_ptr<Module>> modules_;
  std::uint64_t next_matchtag_ = 1;
  std::uint64_t next_subscription_ = 1;
  // Hot-path instrument handles into metrics_ (bound once, O(1) updates).
  obs::Counter* sent_ = nullptr;
  obs::Counter* received_ = nullptr;
  obs::Counter* rpc_timeouts_ = nullptr;
  obs::Counter* late_responses_ = nullptr;
  obs::Counter* events_published_ = nullptr;
  obs::Histogram* rpc_latency_ = nullptr;
};

}  // namespace fluxpower::flux
