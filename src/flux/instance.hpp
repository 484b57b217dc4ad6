// instance.hpp — a Flux instance: brokers + TBON + job management.
//
// A system-level instance manages all nodes of a cluster; user-level
// instances can be spawned on a subset of a parent's nodes, letting users
// run their own scheduling and power policies inside their allocation
// (§II-B). The instance owns the message router: all broker-to-broker
// traffic passes through route(), which charges per-hop TBON latency. It
// also drives the node-agents' sensor sweeps, one engine event per batch of
// agents and instant (join_sweep).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "flux/broker.hpp"
#include "flux/job_manager.hpp"
#include "flux/journal.hpp"
#include "flux/kvs.hpp"
#include "flux/message.hpp"
#include "flux/scheduler.hpp"
#include "flux/tbon.hpp"
#include "hwsim/node.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::flux {

struct SweepBatch;

/// State the members of one sweep batch share: the monitor keeps its sample
/// table in one, so a sweep writes its members' rows as one run. The batch
/// holds it until it retires; a member may hold it longer.
class SweepShared {
 public:
  virtual ~SweepShared() = default;
};

/// A node-agent that samples its node on a fixed grid as a member of its
/// instance's sweeps (Instance::join_sweep). The monitor's node-agent is
/// one. Only the instance calls the hooks.
class SweepMember {
 protected:
  SweepMember() = default;
  ~SweepMember() = default;
  SweepMember(const SweepMember&) = delete;
  SweepMember& operator=(const SweepMember&) = delete;

  /// This member's position in its batch's join order and the batch's
  /// member count; both 0 while not sampling. A sweep closes the gaps
  /// members left before it samples anyone, so inside take_sample() the
  /// positions are exactly 0 .. sweep_size() - 1.
  std::size_t sweep_position() const noexcept { return slot_; }
  std::size_t sweep_size() const noexcept;
  /// The batch's shared state: null while not sampling, and until a member
  /// of the batch sets it.
  const std::shared_ptr<SweepShared>& sweep_shared() const noexcept;
  /// Give the batch its shared state; ignored while not sampling.
  void set_sweep_shared(std::shared_ptr<SweepShared> shared) noexcept;

 private:
  friend class Instance;
  /// Take this instant's sample.
  virtual void take_sample() = 0;
  /// Prefetch what the next take_sample() touches. A sweep calls it a few
  /// members ahead of the one it samples.
  virtual void prefetch_sample() const noexcept = 0;

  SweepBatch* batch_ = nullptr;  ///< null while not sampling
  std::uint32_t slot_ = 0;       ///< index in the batch's member array
};

struct InstanceConfig {
  int tbon_fanout = 2;
  /// One-way latency per TBON hop, seconds. Default 100 µs, typical for an
  /// EDR InfiniBand hop plus broker processing.
  double hop_latency_s = 100e-6;
};

/// Hook consulted for every routed message (and every per-broker leg of an
/// event broadcast). A fault plane implements this to model lossy TBON
/// links: drops, duplicates, and extra queueing delay. When no injector is
/// attached the router behaves exactly as before — no RNG is consulted.
class RouteFaultInjector {
 public:
  struct Verdict {
    bool drop = false;        ///< discard the message (leg) entirely
    int duplicates = 0;       ///< extra copies delivered after the original
    double extra_delay_s = 0; ///< added to the TBON hop latency
  };

  virtual ~RouteFaultInjector() = default;

  /// `dest` is the delivering broker's rank — for events it is the rank of
  /// each subscriber leg, for point-to-point traffic it equals msg.dest.
  virtual Verdict on_route(const Message& msg, Rank dest) = 0;

  /// Sharded execution profile only: ruled at *delivery* time, on the
  /// destination rank's island, after the message survived on_route. True
  /// discards the message (endpoint down). An injector that implements
  /// this must not also rule on the destination in on_route — under the
  /// profile the send side cannot read another island's down-state.
  virtual bool delivery_blocked(Rank /*dest*/) { return false; }
};

class Instance {
 public:
  /// Bootstrap an instance over the given nodes (element i becomes broker
  /// rank i). Nodes must outlive the instance.
  Instance(sim::Simulation& sim, std::vector<hwsim::Node*> nodes,
           InstanceConfig config = {});

  /// Sharded bootstrap: brokers are partitioned over the engine's islands
  /// by `island_of_rank` (size = node count; rank 0 must map to island 0,
  /// and the partition must follow TBON subtree cells so that no parent/
  /// child pair inside a cell is split). Each broker schedules on its
  /// island's Simulation; cross-island routes go through the engine's
  /// window-barrier mailboxes. The engine must outlive the instance.
  Instance(sim::ShardedEngine& engine, std::vector<int> island_of_rank,
           std::vector<hwsim::Node*> nodes, InstanceConfig config = {});
  ~Instance();

  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  /// The root (island 0) engine in sharded mode; the single engine else.
  sim::Simulation& sim() noexcept { return *sim_; }
  /// The engine `rank`'s broker and hardware node schedule on.
  sim::Simulation& sim_for(Rank rank) {
    return sharded() ? engine_->island(island_of(rank)) : *sim_;
  }
  bool sharded() const noexcept { return engine_ != nullptr; }
  sim::ShardedEngine* engine() noexcept { return engine_; }
  int island_of(Rank rank) const {
    return sharded() ? island_[static_cast<std::size_t>(rank)] : 0;
  }
  /// Execute one engine event (the globally earliest in sharded mode).
  /// Blocking client helpers pump through this instead of sim().step() so
  /// every island advances.
  bool pump_one();
  int size() const noexcept { return static_cast<int>(brokers_.size()); }
  const Tbon& tbon() const noexcept { return tbon_; }
  const InstanceConfig& config() const noexcept { return config_; }

  Broker& broker(Rank rank);
  Broker& root() { return broker(kRootRank); }
  hwsim::Node* node(Rank rank);

  JobManager& jobs() noexcept { return *job_manager_; }
  Scheduler& scheduler() noexcept { return *scheduler_; }
  Kvs& kvs() noexcept { return *kvs_; }

  /// Route a message to msg.dest (or broadcast an event to subscribers)
  /// with TBON hop latency. Called by brokers, not user code. A broadcast
  /// schedules one engine event per instant its legs arrive at (per
  /// placement cell in the sharded profile), which delivers them in rank
  /// order.
  void route(Message msg);

  /// Total messages routed (traffic accounting for overhead analysis).
  /// Sharded mode: summed over per-island tallies — read it only from a
  /// barrier or after the run, not concurrently with a window.
  std::uint64_t messages_routed() const noexcept {
    std::uint64_t n = 0;
    for (const RouteTally& t : tallies_) n += t.routed;
    return n;
  }

  /// Attach a traffic journal; every routed message is recorded with its
  /// send timestamp. Pass nullptr to detach. The journal must outlive the
  /// attachment.
  void attach_journal(MessageJournal* journal) noexcept { journal_ = journal; }

  /// Attach a fault injector consulted on every routed message; nullptr
  /// detaches. The injector must outlive the attachment.
  void set_fault_injector(RouteFaultInjector* injector) noexcept {
    fault_injector_ = injector;
  }

  /// Messages (or broadcast legs) discarded by the fault injector.
  std::uint64_t messages_dropped() const noexcept {
    std::uint64_t n = 0;
    for (const RouteTally& t : tallies_) n += t.dropped;
    return n;
  }

  /// Spawn a user-level child instance on a subset of this instance's
  /// ranks. The child gets its own brokers/scheduler/job-manager over the
  /// same physical nodes — the mechanism behind per-user policy
  /// customization. The parent keeps ownership.
  Instance& spawn_child(const std::vector<Rank>& ranks,
                        InstanceConfig config = {});
  const std::vector<std::unique_ptr<Instance>>& children() const {
    return children_;
  }

  /// Sample `member` on `rank`'s engine every `period_s` seconds, first at
  /// now() + period_s, until leave_sweep (a member already sampling leaves
  /// its old grid first). Members of one placement cell (the monolithic
  /// profile has one cell) on one grid form a batch: one engine event per
  /// instant calls take_sample() on each member in join order, then re-arms.
  /// A member joins a batch only while nothing else has been enqueued on
  /// its engine since the batch's event, other cells' batches aside, so the
  /// firing order is the one a periodic task per member would give. O(1).
  /// Throws std::invalid_argument unless the period is positive and finite.
  void join_sweep(Rank rank, double period_s, SweepMember& member);
  /// Stop sampling `member`; a no-op when it is not sampling. O(1): the
  /// last member out cancels its batch's event.
  void leave_sweep(SweepMember& member);

  /// Load a module on every broker (e.g. the power monitor's node agents).
  template <typename ModuleT, typename... Args>
  void load_module_on_all(Args&&... args) {
    for (auto& b : brokers_) {
      b->load_module(std::make_shared<ModuleT>(args...));
    }
  }

 private:
  /// One surviving broadcast leg: broker `rank` receives the event at
  /// `fire`. `cell` is 0 in the monolithic profile and the rank's placement
  /// cell (Tbon::root_child) in the sharded one; a fault duplicate is a
  /// second, equal leg.
  struct Leg {
    sim::Time fire;
    Rank cell;
    Rank rank;
  };

  /// Per-island routed/dropped counters and broadcast scratch, cache-line
  /// padded: each cell is written only by its island's worker thread.
  struct alignas(64) RouteTally {
    std::uint64_t routed = 0;
    std::uint64_t dropped = 0;
    std::vector<Leg> legs;  ///< reused by every broadcast the island sends
  };

  /// One island's sampling batches, cache-line padded like RouteTally.
  struct alignas(64) SweepTable {
    std::vector<std::unique_ptr<SweepBatch>> batches;
    /// Per placement cell: its batch that enqueued an event last.
    std::vector<SweepBatch*> newest;
    /// [run_begin, run_end): the sequence numbers of the island's latest
    /// run of consecutive batch enqueues.
    std::uint64_t run_begin = 0;
    std::uint64_t run_end = 0;
  };

  void bootstrap();
  /// Sample every member of `batch` in join order, then re-arm it.
  void fire_sweep(SweepBatch& batch);
  /// Record the event `batch` just enqueued on its engine.
  void note_sweep_enqueue(SweepBatch& batch);
  /// Cancel `batch`'s event and drop it from its table.
  void retire_sweep(SweepBatch& batch);
  void broadcast(const std::shared_ptr<const Message>& shared, int src_isl);
  void deliver_leg(Broker* dest, double delay,
                   const std::shared_ptr<const Message>& shared, int src_isl);
  /// Deliver one broadcast instant's legs in order; the sharded profile
  /// rules delivery_blocked per leg.
  void deliver_batch(const Message& msg, std::span<const Rank> ranks);
  /// Schedule `fn` at `fire` on `dest_isl`: directly when it is the sending
  /// island (or the profile is monolithic), else through the engine's
  /// cross-island mailbox.
  template <typename F>
  void schedule_on(int src_isl, int dest_isl, sim::Time fire, F&& fn);

  sim::Simulation* sim_;  ///< island 0 in sharded mode
  sim::ShardedEngine* engine_ = nullptr;
  std::vector<int> island_;  ///< island of each rank (sharded mode only)
  InstanceConfig config_;
  std::vector<hwsim::Node*> nodes_;
  Tbon tbon_;
  /// One per island (one when monolithic). Declared before brokers_: a
  /// broker's destructor unloads its modules, which leave their batches.
  std::vector<SweepTable> sweeps_;
  std::vector<std::unique_ptr<Broker>> brokers_;
  std::unique_ptr<Kvs> kvs_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<JobManager> job_manager_;
  std::vector<std::unique_ptr<Instance>> children_;
  MessageJournal* journal_ = nullptr;
  std::mutex journal_mu_;  ///< guards journal_ records in sharded mode
  RouteFaultInjector* fault_injector_ = nullptr;
  std::vector<RouteTally> tallies_;  ///< one per island (one when monolithic)
};

}  // namespace fluxpower::flux
