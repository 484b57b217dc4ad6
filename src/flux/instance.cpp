#include "flux/instance.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace fluxpower::flux {

Instance::Instance(sim::Simulation& sim, std::vector<hwsim::Node*> nodes,
                   InstanceConfig config)
    : sim_(&sim),
      config_(config),
      nodes_(std::move(nodes)),
      tbon_(static_cast<int>(nodes_.size()), config.tbon_fanout) {
  tallies_.resize(1);
  bootstrap();
}

Instance::Instance(sim::ShardedEngine& engine, std::vector<int> island_of_rank,
                   std::vector<hwsim::Node*> nodes, InstanceConfig config)
    : sim_(&engine.island(0)),
      engine_(&engine),
      island_(std::move(island_of_rank)),
      config_(config),
      nodes_(std::move(nodes)),
      tbon_(static_cast<int>(nodes_.size()), config.tbon_fanout) {
  if (island_.size() != nodes_.size()) {
    throw std::invalid_argument(
        "Instance: island map size must equal the node count");
  }
  if (!island_.empty() && island_[0] != 0) {
    throw std::invalid_argument("Instance: rank 0 must live on island 0");
  }
  for (int isl : island_) {
    if (isl < 0 || isl >= engine.islands()) {
      throw std::invalid_argument("Instance: island index out of range");
    }
  }
  tallies_.resize(static_cast<std::size_t>(engine.islands()));
  bootstrap();
}

void Instance::bootstrap() {
  if (nodes_.empty()) {
    throw std::invalid_argument("Instance: at least one node required");
  }
  brokers_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    brokers_.push_back(
        std::make_unique<Broker>(*this, static_cast<Rank>(i), nodes_[i]));
  }
  kvs_ = std::make_unique<Kvs>(*sim_);
  scheduler_ = std::make_unique<Scheduler>(*this);
  job_manager_ = std::make_unique<JobManager>(*this);
  job_manager_->register_services(root());
}

Instance::~Instance() = default;

Broker& Instance::broker(Rank rank) {
  if (rank < 0 || rank >= size()) {
    throw std::out_of_range("Instance::broker: bad rank");
  }
  return *brokers_[static_cast<std::size_t>(rank)];
}

hwsim::Node* Instance::node(Rank rank) { return broker(rank).node(); }

bool Instance::pump_one() {
  return engine_ != nullptr ? engine_->pump_one() : sim_->step();
}

template <typename F>
void Instance::schedule_on(int src_isl, int dest_isl, sim::Time fire, F&& fn) {
  if (!sharded()) {
    sim_->schedule_at(fire, std::forward<F>(fn));
  } else if (dest_isl == src_isl) {
    engine_->island(src_isl).schedule_at(fire, std::forward<F>(fn));
  } else {
    engine_->post(src_isl, dest_isl, fire, std::forward<F>(fn));
  }
}

void Instance::deliver_leg(Broker* dest, double delay,
                           const std::shared_ptr<const Message>& shared,
                           int src_isl) {
  if (!sharded()) {
    sim_->schedule_after(delay, [dest, shared] { dest->deliver(*shared); });
    return;
  }
  // Sharded profile: the destination's down-state belongs to its island,
  // so the blackhole check runs at delivery time there — for local legs
  // too, keeping the semantics identical for every shard count.
  const int dest_isl = island_of(dest->rank());
  Instance* self = this;
  schedule_on(src_isl, dest_isl, engine_->island(src_isl).now() + delay,
              [self, dest, shared, dest_isl] {
                RouteFaultInjector* inj = self->fault_injector_;
                if (inj != nullptr && inj->delivery_blocked(dest->rank())) {
                  ++self->tallies_[static_cast<std::size_t>(dest_isl)].dropped;
                  return;
                }
                dest->deliver(*shared);
              });
}

void Instance::deliver_batch(const Message& msg, std::span<const Rank> ranks) {
  RouteFaultInjector* inj = sharded() ? fault_injector_ : nullptr;
  for (Rank r : ranks) {
    if (inj != nullptr && inj->delivery_blocked(r)) {
      ++tallies_[static_cast<std::size_t>(island_of(r))].dropped;
      continue;
    }
    brokers_[static_cast<std::size_t>(r)]->deliver(msg);
  }
}

void Instance::broadcast(const std::shared_ptr<const Message>& shared,
                         int src_isl) {
  // Events are broadcast over the tree from the publisher. Delivery
  // latency to a given broker is proportional to its hop distance. Each
  // broker leg is a distinct set of physical links, so the fault injector
  // rules on every leg independently, in rank order.
  const Message& m = *shared;
  RouteTally& tally = tallies_[static_cast<std::size_t>(src_isl)];
  std::vector<Leg>& legs = tally.legs;
  legs.clear();
  const sim::Time now =
      sharded() ? engine_->island(src_isl).now() : sim_->now();
  for (auto& b : brokers_) {
    const Rank r = b->rank();
    double delay = config_.hop_latency_s * tbon_.hops(m.sender, r);
    int copies = 1;
    if (fault_injector_ != nullptr) {
      const auto v = fault_injector_->on_route(m, r);
      if (v.drop) {
        ++tally.dropped;
        continue;
      }
      delay += v.extra_delay_s;
      copies += v.duplicates;
    }
    const Leg leg{now + delay, sharded() ? tbon_.root_child(r) : 0, r};
    legs.insert(legs.end(), static_cast<std::size_t>(copies), leg);
  }

  // The legs one route call schedules for one instant run back to back in
  // the engine's (time, seq) order, and in the barrier drain's for one
  // placement cell, so each run becomes one event that delivers them in
  // rank order (a duplicate beside its original). Ties are equal legs.
  std::sort(legs.begin(), legs.end(), [](const Leg& a, const Leg& b) {
    if (a.fire != b.fire) return a.fire < b.fire;
    if (a.cell != b.cell) return a.cell < b.cell;
    return a.rank < b.rank;
  });

  // A run of up to kInlineLegs ranks travels inside its event slot; longer
  // runs slice one rank block that the whole broadcast shares, sized at the
  // first long run for every leg from there on.
  constexpr std::size_t kInlineLegs = 7;
  std::shared_ptr<Rank[]> block;
  std::uint32_t used = 0;
  Instance* self = this;
  for (std::size_t i = 0, j = 0; i < legs.size(); i = j) {
    j = i + 1;
    while (j < legs.size() && legs[j].fire == legs[i].fire &&
           legs[j].cell == legs[i].cell) {
      ++j;
    }
    const auto n = static_cast<std::uint32_t>(j - i);
    const int dest_isl = island_of(legs[i].rank);
    if (n <= kInlineLegs) {
      std::array<Rank, kInlineLegs> ranks{};
      for (std::uint32_t k = 0; k < n; ++k) ranks[k] = legs[i + k].rank;
      auto run = [self, shared, ranks, n] {
        self->deliver_batch(*shared, {ranks.data(), n});
      };
      static_assert(sizeof(run) <= sim::detail::SlotCallback::kInlineBytes);
      schedule_on(src_isl, dest_isl, legs[i].fire, std::move(run));
    } else {
      if (!block) block = std::make_shared<Rank[]>(legs.size() - i);
      for (std::uint32_t k = 0; k < n; ++k) block[used + k] = legs[i + k].rank;
      auto run = [self, shared, ranks = std::shared_ptr<const Rank[]>(block),
                  first = used, n] {
        self->deliver_batch(*shared, {ranks.get() + first, n});
      };
      static_assert(sizeof(run) <= sim::detail::SlotCallback::kInlineBytes);
      schedule_on(src_isl, dest_isl, legs[i].fire, std::move(run));
      used += n;
    }
  }
}

void Instance::route(Message msg) {
  const int src_isl = island_of(msg.sender);
  ++tallies_[static_cast<std::size_t>(src_isl)].routed;
  if (journal_ != nullptr) {
    if (sharded()) {
      std::lock_guard<std::mutex> lk(journal_mu_);
      journal_->record(engine_->island(src_isl).now(), msg);
    } else {
      journal_->record(sim_->now(), msg);
    }
  }
  // One shared immutable copy per route call: delivery callbacks capture a
  // pointer to it instead of a per-destination Message copy, so they fit
  // the event pool's inline storage. Broadcasts share a single copy.
  const auto shared = std::make_shared<const Message>(std::move(msg));
  const Message& m = *shared;
  if (m.type == Message::Type::Event) {
    broadcast(shared, src_isl);
    return;
  }
  if (m.dest < 0 || m.dest >= size()) {
    throw std::invalid_argument("Instance::route: bad destination rank");
  }
  const int hops = tbon_.hops(m.sender, m.dest);
  double delay = config_.hop_latency_s * std::max(1, hops);
  int copies = 1;
  if (fault_injector_ != nullptr) {
    const auto v = fault_injector_->on_route(m, m.dest);
    if (v.drop) {
      ++tallies_[static_cast<std::size_t>(src_isl)].dropped;
      return;
    }
    delay += v.extra_delay_s;
    copies += v.duplicates;
  }
  Broker* dest = brokers_[static_cast<std::size_t>(m.dest)].get();
  for (int c = 0; c < copies; ++c) {
    deliver_leg(dest, delay, shared, src_isl);
  }
}

Instance& Instance::spawn_child(const std::vector<Rank>& ranks,
                                InstanceConfig config) {
  if (sharded()) {
    // A child instance's brokers would schedule on the parent's island
    // engines with a different TBON shape, breaking the cell partition
    // the conservative windows rely on.
    throw std::logic_error(
        "Instance::spawn_child: user-level instances are not supported on "
        "a sharded engine");
  }
  std::vector<hwsim::Node*> child_nodes;
  child_nodes.reserve(ranks.size());
  for (Rank r : ranks) {
    if (r < 0 || r >= size()) {
      throw std::out_of_range("Instance::spawn_child: bad rank");
    }
    child_nodes.push_back(nodes_[static_cast<std::size_t>(r)]);
  }
  children_.push_back(
      std::make_unique<Instance>(*sim_, std::move(child_nodes), config));
  return *children_.back();
}

}  // namespace fluxpower::flux
