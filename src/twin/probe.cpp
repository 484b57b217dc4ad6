#include "twin/probe.hpp"

#include <algorithm>
#include <cstddef>

#include "faultsim/fault_plane.hpp"
#include "flux/job_manager.hpp"
#include "manager/power_manager.hpp"
#include "monitor/power_monitor.hpp"

namespace fluxpower::twin {

namespace {

void put_rng(ByteWriter& w, const util::Rng& rng) {
  const util::Rng::State st = rng.state();
  for (std::uint64_t word : st.s) w.u64(word);
}

void put_opt_watts(ByteWriter& w, const hwsim::OptWatts& v) {
  w.boolean(v.present);
  w.f64(v.watts);
}

template <std::size_t N>
void put_watts_vec(ByteWriter& w, const hwsim::FixedWattsVec<N>& v) {
  w.u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) w.f64(x);
}

void put_sample(ByteWriter& w, const hwsim::PowerSample& s) {
  w.f64(s.timestamp_s);
  w.str(s.hostname.view());
  put_opt_watts(w, s.node_w);
  put_opt_watts(w, s.node_estimate_w);
  put_watts_vec(w, s.cpu_w);
  put_opt_watts(w, s.mem_w);
  put_watts_vec(w, s.gpu_w);
  w.boolean(s.gpu_is_oam);
  w.boolean(s.sensor_fault);
}

void put_store(ByteWriter& w, const monitor::ColumnarSampleStore& store) {
  w.u64(store.capacity());
  w.u64(store.total_pushed());
  w.u64(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) put_sample(w, store.get(i));
}

// -- Section encoders --------------------------------------------------------

void encode_sim(ByteWriter& w, experiments::Scenario& sc) {
  if (sim::ShardedEngine* engine = sc.engine()) {
    // Sharded profile: the canonical section holds only quantities that are
    // invariant across shard counts — the synchronized clock and the summed
    // event statistics. Allocator internals (pool chunks, heap allocs) and
    // wheel cursors are per-island implementation detail and partition-
    // dependent, so they are deliberately excluded: two runs of the same
    // scenario at different shard counts produce byte-identical sections.
    w.f64(engine->now());
    w.u64(engine->total_seq_counter());
    w.u64(static_cast<std::uint64_t>(engine->total_pending()));
    w.u64(engine->total_events_executed());
    return;
  }
  sim::Simulation& sim = sc.sim();
  w.f64(sim.now());
  w.u64(sim.seq_counter());
  w.u64(static_cast<std::uint64_t>(sim.pending()));
  w.u64(sim.events_executed());
  w.f64(sim.wheel_epoch_base());
  w.u32(static_cast<std::uint32_t>(sim.wheel_cursor()));
  w.u64(sim.wheel_rebases());
  w.u64(sim.callback_heap_allocs());
  w.u64(static_cast<std::uint64_t>(sim.pool_chunks()));
}

void encode_hw(ByteWriter& w, experiments::Scenario& sc) {
  hwsim::Cluster& cluster = sc.cluster();
  w.u32(static_cast<std::uint32_t>(cluster.size()));
  for (int i = 0; i < cluster.size(); ++i) {
    hwsim::Node& node = cluster.node(i);
    w.str(node.hostname());
    const hwsim::LoadDemand& d = node.demand();
    put_watts_vec(w, d.cpu_w);
    put_watts_vec(w, d.gpu_w);
    w.f64(d.mem_w);
    const hwsim::Grants& g = node.grants();
    put_watts_vec(w, g.cpu_w);
    put_watts_vec(w, g.gpu_w);
    w.f64(g.mem_w);
    w.f64(g.base_w);
    w.f64(node.energy_joules());
    w.boolean(node.low_power_state());
    w.f64(node.stolen_time());
    const std::optional<double> node_cap = node.node_power_cap();
    w.boolean(node_cap.has_value());
    w.f64(node_cap.value_or(0.0));
    w.u32(static_cast<std::uint32_t>(node.gpu_count()));
    for (int gpu = 0; gpu < node.gpu_count(); ++gpu) {
      const std::optional<double> cap = node.gpu_power_cap(gpu);
      w.boolean(cap.has_value());
      w.f64(cap.value_or(0.0));
    }
    w.u32(static_cast<std::uint32_t>(node.socket_count()));
    for (int socket = 0; socket < node.socket_count(); ++socket) {
      const std::optional<double> cap = node.socket_power_cap(socket);
      w.boolean(cap.has_value());
      w.f64(cap.value_or(0.0));
    }
    w.u64(node.cap_write_faults());
    put_rng(w, node.sensor_rng());
  }
}

void encode_flux(ByteWriter& w, experiments::Scenario& sc) {
  flux::Instance& inst = sc.instance();
  w.u64(inst.messages_routed());
  w.u64(inst.messages_dropped());
  w.u32(static_cast<std::uint32_t>(inst.size()));
  for (int rank = 0; rank < inst.size(); ++rank) {
    flux::Broker& b = inst.broker(rank);
    w.u64(b.messages_sent());
    w.u64(b.messages_received());
    w.u64(static_cast<std::uint64_t>(b.pending_rpc_count()));
    w.u64(b.late_responses());
  }
}

void encode_jobs(ByteWriter& w, experiments::Scenario& sc) {
  flux::JobManager& jm = sc.instance().jobs();
  w.u64(jm.next_id());
  std::vector<flux::JobId> ids = jm.all_jobs();
  std::sort(ids.begin(), ids.end());
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (flux::JobId id : ids) {
    const flux::Job& job = jm.job(id);
    w.u64(job.id);
    w.str(job.spec.name);
    w.str(job.spec.app);
    w.u32(static_cast<std::uint32_t>(job.spec.nnodes));
    w.u32(static_cast<std::uint32_t>(job.spec.tasks_per_node));
    w.u32(static_cast<std::uint32_t>(job.state));
    w.u32(static_cast<std::uint32_t>(job.ranks.size()));
    for (flux::Rank r : job.ranks) w.u32(static_cast<std::uint32_t>(r));
    w.f64(job.t_submit);
    w.f64(job.t_start);
    w.f64(job.t_end);
  }
}

void encode_mon(ByteWriter& w, experiments::Scenario& sc) {
  flux::Instance& inst = sc.instance();
  w.u32(static_cast<std::uint32_t>(inst.size()));
  for (int rank = 0; rank < inst.size(); ++rank) {
    auto* mod = dynamic_cast<monitor::PowerMonitorModule*>(
        inst.broker(rank).find_module("power-monitor"));
    w.boolean(mod != nullptr);
    if (mod == nullptr) continue;
    w.u64(mod->samples_taken());
    w.u64(mod->sensor_failures());
    const monitor::ColumnarSampleStore* store = mod->store();
    w.boolean(store != nullptr);
    if (store != nullptr) put_store(w, *store);
  }
}

void encode_mgr(ByteWriter& w, experiments::Scenario& sc) {
  // Node enforcement state, every rank; the plugins' own state (FPP
  // rotation, progress control) travels in POL.
  flux::Instance& inst = sc.instance();
  w.u32(static_cast<std::uint32_t>(inst.size()));
  const manager::ClusterManager* cluster = nullptr;
  for (int rank = 0; rank < inst.size(); ++rank) {
    auto* mod = dynamic_cast<manager::PowerManagerModule*>(
        inst.broker(rank).find_module("power-manager"));
    w.boolean(mod != nullptr);
    if (mod == nullptr) continue;
    if (mod->cluster() != nullptr) cluster = mod->cluster();
    w.f64(mod->node_limit_w());
    w.f64(mod->last_gpu_budget_w());
    w.u64(mod->cap_retries());
    w.boolean(mod->cap_retry_pending());
    w.f64(mod->cap_retry_delay_s());
  }
  // The root's ledgers, once.
  w.boolean(cluster != nullptr);
  if (cluster == nullptr) return;
  w.u32(static_cast<std::uint32_t>(cluster->allocations().size()));
  for (const auto& [job_id, alloc] : cluster->allocations()) {
    w.u64(job_id);
    w.u32(static_cast<std::uint32_t>(alloc.ranks.size()));
    for (flux::Rank r : alloc.ranks) w.u32(static_cast<std::uint32_t>(r));
    w.f64(alloc.job_power_w);
    w.f64(alloc.node_power_w);
    w.f64(alloc.requested_node_power_w);
  }
  w.u32(static_cast<std::uint32_t>(cluster->push_strikes().size()));
  for (const auto& [r, count] : cluster->push_strikes()) {
    w.u32(static_cast<std::uint32_t>(r));
    w.u32(static_cast<std::uint32_t>(count));
  }
  w.u32(static_cast<std::uint32_t>(cluster->quarantined().size()));
  for (flux::Rank r : cluster->quarantined()) {
    w.u32(static_cast<std::uint32_t>(r));
  }
  w.u64(cluster->quarantine_events());
  w.boolean(cluster->emergency_active());
  w.u32(static_cast<std::uint32_t>(cluster->emergency_strike_count()));
}

void encode_pol(ByteWriter& w, experiments::Scenario& sc) {
  // Scheduler-side policy plane: identity, power-admission ledger, and
  // queue contents (scan order). Scheduler policies are stateless.
  flux::Scheduler& sched = sc.instance().scheduler();
  w.str(sched.policy_name());
  w.f64(sched.admitted_power_w());
  const auto& admitted = sched.admitted();  // std::map: canonical id order
  w.u32(static_cast<std::uint32_t>(admitted.size()));
  for (const auto& [id, watts] : admitted) {
    w.u64(id);
    w.f64(watts);
  }
  const auto& queue = sched.queued_jobs();
  w.u32(static_cast<std::uint32_t>(queue.size()));
  for (flux::JobId id : queue) w.u64(id);

  // Node-side plugins, rank order: plugin identity + opaque state blob.
  std::vector<std::uint8_t> blob;
  flux::Instance& inst = sc.instance();
  w.u32(static_cast<std::uint32_t>(inst.size()));
  for (int rank = 0; rank < inst.size(); ++rank) {
    auto* mod = dynamic_cast<manager::PowerManagerModule*>(
        inst.broker(rank).find_module("power-manager"));
    w.boolean(mod != nullptr);
    if (mod == nullptr) continue;
    w.str(manager::node_policy_name(mod->config().node_policy));
    blob.clear();
    mod->node_plugin().encode_state(blob);
    w.u32(static_cast<std::uint32_t>(blob.size()));
    w.bytes(blob);
  }
}

void encode_fault(ByteWriter& w, experiments::Scenario& sc) {
  faultsim::FaultPlane& plane = *sc.fault_plane();
  const faultsim::FaultCounters& c = plane.counters();
  w.u64(c.msgs_dropped);
  w.u64(c.msgs_blackholed);
  w.u64(c.msgs_duplicated);
  w.u64(c.msgs_delayed);
  w.u64(c.node_crashes);
  w.u64(c.node_reboots);
  w.u64(c.sensor_dropouts);
  w.u64(c.sensor_stuck_sweeps);
  w.u64(c.cap_write_failures);
  put_rng(w, plane.link_rng());
  const int n = plane.attached_nodes();
  w.u32(static_cast<std::uint32_t>(n));
  for (int rank = 0; rank < n; ++rank) {
    const faultsim::FaultPlane::NodeFaultStatus st = plane.node_status(rank);
    w.boolean(st.down);
    w.boolean(st.stuck);
    w.f64(st.stuck_until_s);
    w.boolean(st.crash_pending);
    put_rng(w, plane.node_rng(rank));
  }
}

void encode_scen(ByteWriter& w, experiments::Scenario& sc) {
  w.u32(static_cast<std::uint32_t>(sc.completed_jobs()));
  w.u64(static_cast<std::uint64_t>(sc.submitted_jobs()));
  w.boolean(sc.all_jobs_done());
  const auto& timeline = sc.cluster_timeline_so_far();
  w.u32(static_cast<std::uint32_t>(timeline.size()));
  for (const auto& [t, watts] : timeline) {
    w.f64(t);
    w.f64(watts);
  }
}

StateSection make_section(std::uint32_t tag, ByteWriter&& w) {
  StateSection s;
  s.tag = tag;
  s.bytes = std::move(w).take();
  s.digest = Digest64::of(s.bytes);
  return s;
}

template <typename EncodeFn>
void add_section(StateImage& image, std::uint32_t tag,
                 experiments::Scenario& sc, EncodeFn encode) {
  ByteWriter w;
  encode(w, sc);
  image.sections.push_back(make_section(tag, std::move(w)));
}

}  // namespace

const StateSection* StateImage::find(std::uint32_t tag) const noexcept {
  for (const StateSection& s : sections) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

std::uint64_t StateImage::digest() const noexcept {
  Digest64 d;
  for (const StateSection& s : sections) {
    d.update(&s.tag, sizeof(s.tag));
    d.update(&s.digest, sizeof(s.digest));
  }
  return d.value();
}

StateImage capture_state(experiments::Scenario& scenario) {
  StateImage image;
  add_section(image, kTagSim, scenario, encode_sim);
  add_section(image, kTagHw, scenario, encode_hw);
  add_section(image, kTagFlux, scenario, encode_flux);
  add_section(image, kTagJobs, scenario, encode_jobs);
  add_section(image, kTagMon, scenario, encode_mon);
  add_section(image, kTagMgr, scenario, encode_mgr);
  add_section(image, kTagPol, scenario, encode_pol);
  if (scenario.fault_plane() != nullptr) {
    add_section(image, kTagFault, scenario, encode_fault);
  }
  add_section(image, kTagScen, scenario, encode_scen);
  return image;
}

std::string describe_divergence(const StateImage& lhs, const StateImage& rhs,
                                const std::string& lhs_label,
                                const std::string& rhs_label) {
  std::string out;
  for (const StateSection& a : lhs.sections) {
    const StateSection* b = rhs.find(a.tag);
    if (b == nullptr) {
      out += "section " + fourcc_name(a.tag) + ": present in " + lhs_label +
             ", missing in " + rhs_label + "\n";
      continue;
    }
    if (a.digest == b->digest) continue;
    std::size_t offset = 0;
    const std::size_t common = std::min(a.bytes.size(), b->bytes.size());
    while (offset < common && a.bytes[offset] == b->bytes[offset]) ++offset;
    out += "section " + fourcc_name(a.tag) + ": digests differ (" + lhs_label +
           " " + std::to_string(a.bytes.size()) + "B vs " + rhs_label + " " +
           std::to_string(b->bytes.size()) + "B, first byte mismatch at offset " +
           std::to_string(offset) + ")\n";
  }
  for (const StateSection& b : rhs.sections) {
    if (lhs.find(b.tag) == nullptr) {
      out += "section " + fourcc_name(b.tag) + ": present in " + rhs_label +
             ", missing in " + lhs_label + "\n";
    }
  }
  if (out.empty()) out = "images are identical\n";
  return out;
}

}  // namespace fluxpower::twin
