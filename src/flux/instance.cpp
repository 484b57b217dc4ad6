#include "flux/instance.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/prefetch.hpp"

namespace fluxpower::flux {

/// Node-agents of one placement cell and island sampling on one grid: one
/// engine event per instant samples them all in join order.
struct SweepBatch {
  sim::Simulation* sim;
  int island;
  Rank cell;
  double period;
  sim::Time next_fire;
  sim::EventId event = sim::kInvalidEvent;
  std::uint64_t seq = 0;  ///< insertion sequence of the pending event
  /// Join order; a member that left is null until the next sweep closes
  /// the gap.
  std::vector<SweepMember*> members = {};
  std::size_t live = 0;   ///< non-null members
  std::size_t index = 0;  ///< position in its SweepTable
  bool firing = false;
  std::shared_ptr<SweepShared> shared = nullptr;  ///< see SweepMember
};

std::size_t SweepMember::sweep_size() const noexcept {
  return batch_ != nullptr ? batch_->members.size() : 0;
}

const std::shared_ptr<SweepShared>& SweepMember::sweep_shared() const noexcept {
  static const std::shared_ptr<SweepShared> none;
  return batch_ != nullptr ? batch_->shared : none;
}

void SweepMember::set_sweep_shared(
    std::shared_ptr<SweepShared> shared) noexcept {
  if (batch_ != nullptr) batch_->shared = std::move(shared);
}

Instance::Instance(sim::Simulation& sim, std::vector<hwsim::Node*> nodes,
                   InstanceConfig config)
    : sim_(&sim),
      config_(config),
      nodes_(std::move(nodes)),
      tbon_(static_cast<int>(nodes_.size()), config.tbon_fanout) {
  tallies_.resize(1);
  sweeps_.resize(1);
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
  sweeps_.resize(static_cast<std::size_t>(engine.islands()));
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

void Instance::join_sweep(Rank rank, double period_s, SweepMember& member) {
  if (!(period_s > 0.0) || !std::isfinite(period_s)) {
    throw std::invalid_argument(
        "Instance::join_sweep: period must be positive and finite");
  }
  leave_sweep(member);
  sim::Simulation& sim = broker(rank).sim();
  const int island = island_of(rank);
  SweepTable& table = sweeps_[static_cast<std::size_t>(island)];
  const Rank cell = sharded() ? tbon_.root_child(rank) : 0;
  if (table.newest.size() <= static_cast<std::size_t>(cell)) {
    table.newest.resize(static_cast<std::size_t>(cell) + 1, nullptr);
  }
  const sim::Time first = sim.now() + period_s;
  // A member appended to a batch samples after all earlier ones, which is
  // where a task of its own would have fired only if nothing else was
  // enqueued since the batch's event. Other cells' batches are the one
  // exception: a sweep touches only its own cell's nodes, and reordering
  // cells at one instant is what a different shard count does anyway.
  SweepBatch* batch = table.newest[static_cast<std::size_t>(cell)];
  if (batch == nullptr || batch->period != period_s ||
      batch->next_fire != first || sim.seq_counter() != table.run_end ||
      batch->seq < table.run_begin) {
    auto owned = std::make_unique<SweepBatch>(
        SweepBatch{.sim = &sim,
                   .island = island,
                   .cell = cell,
                   .period = period_s,
                   .next_fire = first,
                   .index = table.batches.size()});
    batch = owned.get();
    table.batches.push_back(std::move(owned));
    batch->event = sim.schedule_at(first, [this, batch] { fire_sweep(*batch); });
    note_sweep_enqueue(*batch);
  }
  member.batch_ = batch;
  member.slot_ = static_cast<std::uint32_t>(batch->members.size());
  batch->members.push_back(&member);
  ++batch->live;
}

void Instance::leave_sweep(SweepMember& member) {
  SweepBatch* batch = std::exchange(member.batch_, nullptr);
  if (batch == nullptr) return;
  batch->members[std::exchange(member.slot_, 0)] = nullptr;
  if (--batch->live == 0 && !batch->firing) retire_sweep(*batch);
}

void Instance::note_sweep_enqueue(SweepBatch& batch) {
  SweepTable& table = sweeps_[static_cast<std::size_t>(batch.island)];
  batch.seq = batch.sim->seq_counter() - 1;
  if (batch.seq != table.run_end) table.run_begin = batch.seq;
  table.run_end = batch.seq + 1;
  table.newest[static_cast<std::size_t>(batch.cell)] = &batch;
}

void Instance::retire_sweep(SweepBatch& batch) {
  SweepTable& table = sweeps_[static_cast<std::size_t>(batch.island)];
  batch.sim->cancel(batch.event);
  SweepBatch*& newest = table.newest[static_cast<std::size_t>(batch.cell)];
  if (newest == &batch) newest = nullptr;
  auto& batches = table.batches;
  const std::size_t i = batch.index;
  std::swap(batches[i], batches.back());
  batches[i]->index = i;
  batches.pop_back();  // destroys `batch`
}

void Instance::fire_sweep(SweepBatch& batch) {
  std::vector<SweepMember*>& members = batch.members;
  if (batch.live != members.size()) {
    // Close the gaps members left, keeping join order.
    std::size_t n = 0;
    for (SweepMember* m : members) {
      if (m == nullptr) continue;
      m->slot_ = static_cast<std::uint32_t>(n);
      members[n++] = m;
    }
    members.resize(n);
  }
  // At site scale every member's state is a cache miss. Two members ahead
  // of the one sampled, fetch the member itself, the first kMemberBytes of
  // it (the monitor's node-agent keeps its node pointer, ring header,
  // instruments and config there); one ahead, let it fetch its node, ring
  // row and instruments.
  constexpr std::size_t kAhead = 4;
  constexpr std::size_t kMemberBytes = 256;
  batch.firing = true;
  const std::size_t n = members.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 2 * kAhead < n && members[i + 2 * kAhead] != nullptr) {
      const auto* m = reinterpret_cast<const char*>(members[i + 2 * kAhead]);
      for (std::size_t b = 0; b < kMemberBytes; b += 64) util::prefetch(m + b);
    }
    if (i + kAhead < n && members[i + kAhead] != nullptr) {
      members[i + kAhead]->prefetch_sample();
    }
    if (SweepMember* m = members[i]) m->take_sample();
  }
  batch.firing = false;
  if (batch.live == 0) {  // every member left during the sweep
    retire_sweep(batch);
    return;
  }
  // Absolute re-arm on the grid, clamped like sim::PeriodicTask's.
  batch.next_fire = std::max(batch.next_fire + batch.period, batch.sim->now());
  batch.event = batch.sim->rearm_fired(batch.event, batch.next_fire);
  note_sweep_enqueue(batch);
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
