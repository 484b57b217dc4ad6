#include "flux/broker.hpp"

#include <algorithm>
#include <array>
#include <mutex>
#include <stdexcept>
#include <unordered_set>

#include "flux/instance.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace fluxpower::flux {

namespace {
/// RPC latency buckets: from a single TBON hop (sub-millisecond) up to the
/// 10 s subtree-aggregation timeout. Exactly Histogram::kMaxBuckets bounds.
constexpr std::array<double, 16> kRpcLatencyBounds = {
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05,   0.1,     0.25,   0.5,   1.0,    2.5,   5.0,  10.0};

struct TopicHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Interned topics. Set nodes never move, so the pointers stay valid for
/// the life of the process; the table is leaked for the same reason as the
/// metrics schema table (brokers may outlive static destruction order).
struct TopicTable {
  std::mutex mutex;
  std::unordered_set<std::string, TopicHash, std::equal_to<>> topics;
};
}  // namespace

const std::string* intern_topic(std::string_view topic) {
  static TopicTable* const table = new TopicTable;
  std::lock_guard lock(table->mutex);
  auto it = table->topics.find(topic);
  if (it == table->topics.end()) it = table->topics.emplace(topic).first;
  return &*it;
}

Broker::Broker(Instance& instance, Rank rank, hwsim::Node* node)
    : instance_(instance), rank_(rank), node_(node) {
  sent_ = &metrics_.counter("fluxpower_broker_messages_sent_total",
                            "Messages sent by this broker");
  received_ = &metrics_.counter("fluxpower_broker_messages_received_total",
                                "Messages delivered to this broker");
  rpc_timeouts_ =
      &metrics_.counter("fluxpower_broker_rpc_timeouts_total",
                        "RPCs that synthesized ETIMEDOUT before a response");
  late_responses_ = &metrics_.counter(
      "fluxpower_broker_rpc_late_responses_total",
      "Responses that arrived after their RPC already timed out");
  events_published_ = &metrics_.counter(
      "fluxpower_broker_events_published_total",
      "Events broadcast from this broker");
  rpc_latency_ = &metrics_.histogram(
      "fluxpower_broker_rpc_latency_seconds",
      "Round-trip latency of completed RPCs issued by this broker",
      kRpcLatencyBounds);
}

Broker::~Broker() {
  // Unload in reverse load order so dependent modules tear down first.
  while (!modules_.empty()) {
    modules_.back()->unload();
    modules_.pop_back();
  }
}

sim::Simulation& Broker::sim() { return instance_.sim_for(rank_); }

std::vector<Broker::Service>::iterator Broker::find_service(
    std::string_view topic) {
  return std::find_if(services_.begin(), services_.end(),
                      [topic](const Service& s) { return *s.topic == topic; });
}

void Broker::register_service(std::string_view topic, ServiceHandler handler) {
  if (!handler) {
    throw std::invalid_argument("Broker::register_service: null handler");
  }
  if (find_service(topic) != services_.end()) {
    throw std::invalid_argument("Broker::register_service: topic '" +
                                std::string(topic) + "' already registered");
  }
  // Exact growth: a broker registers a handful of services once, at load,
  // and doubling would keep empty slots for the rest of the run.
  services_.reserve(services_.size() + 1);
  services_.push_back(Service{intern_topic(topic), std::move(handler)});
}

void Broker::unregister_service(std::string_view topic) {
  if (auto it = find_service(topic); it != services_.end()) {
    services_.erase(it);
  }
}

bool Broker::has_service(std::string_view topic) const {
  return std::any_of(services_.begin(), services_.end(),
                     [topic](const Service& s) { return *s.topic == topic; });
}

void Broker::dispatch(const Message& request) {
  auto it = find_service(request.topic);
  if (it == services_.end()) {
    respond_error(request, kENosys,
                  "no service registered for " + request.topic);
    return;
  }
  // The handler runs from a local: one that registers or unregisters
  // another service may reallocate or shift the table under it. Its entry
  // (found by interned pointer) gets it back afterwards unless the service
  // was unregistered, or registered anew, meanwhile.
  struct Restore {
    std::vector<Service>& table;
    const std::string* topic;
    ServiceHandler handler;
    ~Restore() {
      for (Service& s : table) {
        if (s.topic != topic) continue;
        if (!s.handler) s.handler = std::move(handler);
        return;
      }
    }
  } running{services_, it->topic, std::move(it->handler)};
  running.handler(request);
}

std::uint64_t Broker::rpc(Rank dest, const std::string& topic,
                          util::Json payload, ResponseHandler on_response,
                          double timeout_s) {
  Message msg;
  msg.type = Message::Type::Request;
  msg.topic = topic;
  msg.sender = rank_;
  msg.dest = dest;
  msg.matchtag = next_matchtag_++;
  msg.userid = userid_;
  msg.payload = std::move(payload);
  if (on_response) {
    PendingRpc pending;
    pending.handler = std::move(on_response);
    pending.sent_at = sim().now();
    if (timeout_s > 0.0 || obs::process_trace().enabled()) {
      pending.topic = intern_topic(topic);
    }
    if (timeout_s > 0.0) {
      const std::uint64_t tag = msg.matchtag;
      pending.timeout_event =
          sim().schedule_after(timeout_s, [this, tag, dest] {
            auto it = pending_rpcs_.find(tag);
            if (it == pending_rpcs_.end()) return;  // answered in time
            ResponseHandler handler = std::move(it->second.handler);
            const std::string& timed_out = *it->second.topic;
            pending_rpcs_.erase(it);
            timed_out_tags_.insert(tag);
            if (timed_out_tags_.size() > kTimedOutTagCap) {
              timed_out_tags_.erase(timed_out_tags_.begin());
            }
            rpc_timeouts_->inc();
            if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
              tr.instant(sim().now(), timed_out.c_str(), "rpc-timeout",
                         rank_);
            }
            Message timeout;
            timeout.type = Message::Type::Response;
            timeout.topic = timed_out;
            timeout.sender = dest;
            timeout.dest = rank_;
            timeout.matchtag = tag;
            timeout.errnum = kETimedout;
            timeout.error_text = "RPC timed out";
            handler(timeout);
          });
    }
    pending_rpcs_[msg.matchtag] = std::move(pending);
  }
  sent_->inc();
  instance_.route(std::move(msg));
  return msg.matchtag;
}

void Broker::send_request(Rank dest, const std::string& topic,
                          util::Json payload) {
  rpc(dest, topic, std::move(payload), nullptr);
}

template <typename Fill>
void Broker::send_response(const std::string& topic, Rank sender,
                           std::uint64_t matchtag, Fill&& fill) {
  Message msg;
  msg.type = Message::Type::Response;
  msg.topic = topic;
  msg.sender = rank_;
  msg.dest = sender;
  msg.matchtag = matchtag;
  fill(msg);
  sent_->inc();
  instance_.route(std::move(msg));
}

void Broker::respond(const Message& request, util::Json payload) {
  send_response(request.topic, request.sender, request.matchtag,
                [&](Message& m) { m.payload = std::move(payload); });
}

void Broker::respond(const ReplyTo& to, util::Json payload) {
  send_response(*to.topic, to.sender, to.matchtag,
                [&](Message& m) { m.payload = std::move(payload); });
}

void Broker::respond_telemetry(const Message& request, util::Json meta,
                               std::shared_ptr<const TelemetryBatch> batch) {
  send_response(request.topic, request.sender, request.matchtag,
                [&](Message& m) {
                  m.payload = std::move(meta);
                  m.telemetry = std::move(batch);
                });
}

void Broker::respond_telemetry(const ReplyTo& to, util::Json meta,
                               std::shared_ptr<const TelemetryBatch> batch) {
  send_response(*to.topic, to.sender, to.matchtag, [&](Message& m) {
    m.payload = std::move(meta);
    m.telemetry = std::move(batch);
  });
}

void Broker::respond_error(const Message& request, int errnum,
                           std::string text) {
  send_response(request.topic, request.sender, request.matchtag,
                [&](Message& m) {
                  m.errnum = errnum;
                  m.error_text = std::move(text);
                });
}

void Broker::respond_error(const ReplyTo& to, int errnum, std::string text) {
  send_response(*to.topic, to.sender, to.matchtag, [&](Message& m) {
    m.errnum = errnum;
    m.error_text = std::move(text);
  });
}

void Broker::publish_event(const std::string& topic, util::Json payload) {
  Message msg;
  msg.type = Message::Type::Event;
  msg.topic = topic;
  msg.sender = rank_;
  msg.dest = -1;
  msg.payload = std::move(payload);
  sent_->inc();
  events_published_->inc();
  instance_.route(std::move(msg));
}

std::uint64_t Broker::subscribe_event(const std::string& topic,
                                      EventHandler handler) {
  if (!handler) {
    throw std::invalid_argument("Broker::subscribe_event: null handler");
  }
  const std::uint64_t id = next_subscription_++;
  subscriptions_[id] = Subscription{topic, std::move(handler)};
  return id;
}

void Broker::unsubscribe_event(std::uint64_t id) { subscriptions_.erase(id); }

void Broker::load_module(std::shared_ptr<Module> module) {
  if (!module) throw std::invalid_argument("Broker::load_module: null module");
  for (const auto& m : modules_) {
    if (std::string_view(m->name()) == module->name()) {
      throw std::invalid_argument(std::string("Broker::load_module: '") +
                                  module->name() + "' already loaded");
    }
  }
  modules_.push_back(module);
  module->load(*this);
}

void Broker::unload_module(const std::string& name) {
  for (auto it = modules_.begin(); it != modules_.end(); ++it) {
    if (name == (*it)->name()) {
      (*it)->unload();
      modules_.erase(it);
      return;
    }
  }
}

Module* Broker::find_module(const std::string& name) {
  for (const auto& m : modules_) {
    if (name == m->name()) return m.get();
  }
  return nullptr;
}

void Broker::deliver(const Message& msg) {
  received_->inc();
  switch (msg.type) {
    case Message::Type::Request:
      dispatch(msg);
      return;
    case Message::Type::Response: {
      auto it = pending_rpcs_.find(msg.matchtag);
      if (it == pending_rpcs_.end()) {
        // A response arriving after its timeout already synthesized
        // ETIMEDOUT is expected under degraded links: count it silently.
        // The matchtag was erased from pending_rpcs_ when the timeout
        // fired, and tags are never reused, so it cannot be misdelivered
        // to a newer handler.
        if (auto late = timed_out_tags_.find(msg.matchtag);
            late != timed_out_tags_.end()) {
          late_responses_->inc();
          timed_out_tags_.erase(late);
          return;
        }
        // Fire-and-forget request or a caller without a handler. Error
        // responses still get logged so misrouted RPCs are visible.
        if (msg.is_error()) {
          util::log_warning("broker " + std::to_string(rank_) +
                            ": unmatched error response on " + msg.topic +
                            ": " + msg.error_text);
        }
        return;
      }
      PendingRpc pending = std::move(it->second);
      pending_rpcs_.erase(it);
      if (pending.timeout_event != sim::kInvalidEvent) {
        sim().cancel(pending.timeout_event);
      }
      const double latency = sim().now() - pending.sent_at;
      rpc_latency_->observe(latency);
      if (obs::TraceSink& tr = obs::process_trace();
          tr.enabled() && pending.topic != nullptr) {
        tr.complete(pending.sent_at, latency, pending.topic->c_str(), "rpc",
                    rank_);
      }
      pending.handler(msg);
      return;
    }
    case Message::Type::Event: {
      // Iterate over a copy: handlers may (un)subscribe during delivery.
      std::vector<EventHandler> matched;
      for (const auto& [id, sub] : subscriptions_) {
        const bool prefix_sub = !sub.topic.empty() && sub.topic.back() == '.';
        const bool match =
            prefix_sub ? msg.topic.compare(0, sub.topic.size(), sub.topic) == 0
                       : msg.topic == sub.topic;
        if (match) matched.push_back(sub.handler);
      }
      for (auto& handler : matched) handler(msg);
      return;
    }
  }
}

}  // namespace fluxpower::flux
