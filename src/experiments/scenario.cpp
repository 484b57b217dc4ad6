#include "experiments/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fluxpower::experiments {

namespace {
/// Wraps a job execution with start/finish hooks that run in the same
/// context as the inner execution (the job's island under the sharded
/// profile) — the vehicle for island-local energy accounting.
class InstrumentedExec final : public flux::JobExecution {
 public:
  InstrumentedExec(std::unique_ptr<flux::JobExecution> inner,
                   std::function<void()> on_start,
                   std::function<void()> on_finish)
      : inner_(std::move(inner)),
        on_start_(std::move(on_start)),
        on_finish_(std::move(on_finish)) {}

  void start(std::function<void()> on_complete) override {
    on_start_();
    inner_->start([this, cb = std::move(on_complete)] {
      on_finish_();
      cb();
    });
  }
  void cancel() override { inner_->cancel(); }

 private:
  std::unique_ptr<flux::JobExecution> inner_;
  std::function<void()> on_start_;
  std::function<void()> on_finish_;
};
}  // namespace

const JobResult& ScenarioResult::job(flux::JobId id) const {
  for (const JobResult& j : jobs) {
    if (j.id == id) return j;
  }
  throw std::out_of_range("ScenarioResult::job: unknown id");
}

Scenario::Scenario(ScenarioConfig config) : config_(config) {
  flux::InstanceConfig icfg;
  icfg.tbon_fanout = config_.tbon_fanout;

  if (config_.shards > 0) {
    build_sharded_stack(icfg);
  } else {
    cluster_ = hwsim::make_cluster(sim_, config_.platform, config_.nodes);
    std::vector<hwsim::Node*> nodes;
    nodes.reserve(static_cast<std::size_t>(cluster_.size()));
    for (int i = 0; i < cluster_.size(); ++i) {
      nodes.push_back(&cluster_.node(i));
    }
    instance_ = std::make_unique<flux::Instance>(sim_, std::move(nodes), icfg);
  }
  cluster_.set_sensor_noise(config_.sensor_noise);
  for (int i = 0; i < cluster_.size(); ++i) {
    cluster_.node(i).reseed_sensor_noise(config_.seed * 1000003ULL +
                                         static_cast<std::uint64_t>(i));
  }

  apps::LauncherOptions lopts;
  lopts.platform = config_.platform;
  lopts.step_s = config_.app_step_s;
  lopts.runtime_variability = config_.runtime_variability;
  lopts.noise_seed = config_.seed;
  lopts.report_progress = config_.report_progress;
  flux::Launcher launcher = apps::make_launcher(lopts);
  if (engine_) launcher = wrap_launcher_sharded(std::move(launcher));
  instance_->jobs().set_launcher(std::move(launcher));

  if (config_.faults) {
    fault_plane_ = std::make_unique<faultsim::FaultPlane>(*config_.faults);
    fault_plane_->attach(*instance_);
  }

  if (config_.load_monitor) {
    // IBM OCC in-band reads are the slow path; every MSR-based platform
    // (AMD, Intel, ARM) samples at the cheap Tioga-like cost.
    monitor::PowerMonitorConfig mcfg = config_.monitor.value_or(
        config_.platform == hwsim::Platform::LassenIbmAc922
            ? monitor::PowerMonitorConfig::for_lassen()
            : monitor::PowerMonitorConfig::for_tioga());
    instance_->load_module_on_all<monitor::PowerMonitorModule>(mcfg);
  }
  if (config_.load_manager) {
    instance_->load_module_on_all<manager::PowerManagerModule>(config_.manager);
    // Expose the power budget to the scheduler so power-aware policies can
    // admit against it (inert under FCFS/backfill).
    instance_->scheduler().set_power_budget(config_.manager.cluster_power_bound_w,
                                            config_.manager.node_peak_w);
  }
  if (!config_.sched_policy.empty()) {
    // The queue is empty at construction, so the policy-change kick is a
    // no-op and schedules nothing.
    instance_->scheduler().set_policy(config_.sched_policy);
  }

  // Track job lifecycle for energy accounting and completion detection.
  // Sharded profile: the energy reads would cross islands mid-window, so
  // they move to the launcher wrapper (island-local slots); only the
  // completion bookkeeping — root-side state — stays here.
  if (!engine_) {
    instance_->root().subscribe_event(
        "job.state-run", [this](const flux::Message& m) {
          const auto id = static_cast<flux::JobId>(m.payload.int_or("id", 0));
          auto it = by_id_.find(id);
          if (it == by_id_.end()) return;
          Tracked& t = tracked_[it->second];
          double e = 0.0;
          for (const util::Json& r : m.payload.at("ranks").as_array()) {
            e += instance_->node(static_cast<flux::Rank>(r.as_int()))
                     ->energy_joules();
          }
          t.energy_at_start_j = e;
        });
  }
  instance_->root().subscribe_event(
      "job.state-inactive", [this](const flux::Message& m) {
        const auto id = static_cast<flux::JobId>(m.payload.int_or("id", 0));
        auto it = by_id_.find(id);
        if (it == by_id_.end()) return;
        Tracked& t = tracked_[it->second];
        if (t.done) return;
        t.done = true;
        if (!engine_) {
          double e = 0.0;
          for (const util::Json& r : m.payload.at("ranks").as_array()) {
            e += instance_->node(static_cast<flux::Rank>(r.as_int()))
                     ->energy_joules();
          }
          job_energy_j_[id] = e - t.energy_at_start_j;
        }
        ++completed_;
      });

  recorder_ = std::make_unique<sim::PeriodicTask>(
      sim(), config_.record_period_s, [this] {
        record_tick();
        return true;
      },
      /*initial_delay=*/0.0);
  if (engine_) {
    // One recorder per placement cell, on the cell's island — the cell
    // count is fixed by the fanout, so the engine-wide event population is
    // the same for every shard count.
    for (std::size_t c = 0; c < cells_.size(); ++c) {
      sim::Simulation& cell_sim = engine_->island(
          island_of_rank_[static_cast<std::size_t>(cells_[c].front())]);
      cell_recorders_.push_back(std::make_unique<sim::PeriodicTask>(
          cell_sim, config_.record_period_s,
          [this, c] {
            record_cell_tick(c);
            return true;
          },
          /*initial_delay=*/0.0));
    }
  }
}

void Scenario::build_sharded_stack(const flux::InstanceConfig& icfg) {
  const int n = config_.nodes;
  if (n <= 0) throw std::invalid_argument("Scenario: nodes must be positive");
  flux::Tbon tbon(n, icfg.tbon_fanout);
  cell_of_rank_.assign(static_cast<std::size_t>(n), -1);
  for (flux::Rank child : tbon.children(0)) {
    const int cell = static_cast<int>(cells_.size());
    cells_.push_back(tbon.subtree(child));
    for (flux::Rank r : cells_.back()) {
      cell_of_rank_[static_cast<std::size_t>(r)] = cell;
    }
  }
  // More islands than cells would only add empty shards; clamp. The clamp
  // cannot affect output — island assignment never feeds back into any
  // simulated decision.
  const int islands = std::max(
      1, std::min(config_.shards, static_cast<int>(cells_.size())));
  engine_ = std::make_unique<sim::ShardedEngine>(
      islands, std::max(1, config_.workers), icfg.hop_latency_s);
  island_of_rank_.assign(static_cast<std::size_t>(n), 0);
  for (int r = 1; r < n; ++r) {
    island_of_rank_[static_cast<std::size_t>(r)] =
        cell_of_rank_[static_cast<std::size_t>(r)] % islands;
  }
  cluster_ = hwsim::make_cluster(
      [this](int r) -> sim::Simulation& {
        return engine_->island(island_of_rank_[static_cast<std::size_t>(r)]);
      },
      config_.platform, n);
  std::vector<hwsim::Node*> nodes;
  nodes.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) nodes.push_back(&cluster_.node(i));
  instance_ = std::make_unique<flux::Instance>(*engine_, island_of_rank_,
                                               std::move(nodes), icfg);
  instance_->scheduler().set_cell_confinement(cells_);
  instance_->scheduler().set_deferred_kick(engine_->island(0));
  cell_state_.reserve(cells_.size());
  for (std::size_t c = 0; c < cells_.size(); ++c) {
    cell_state_.push_back(std::make_unique<CellState>());
  }
}

flux::Launcher Scenario::wrap_launcher_sharded(flux::Launcher inner) {
  // Runs on island 0 (root context, from start_job): resolve the tracked
  // index and cell here, where by_id_ is safe to read, and hand the
  // island-local bookkeeping to the execution via closures that run on
  // the job's island.
  return [this, inner = std::move(inner)](const flux::Job& job,
                                          flux::Instance& instance)
             -> std::unique_ptr<flux::JobExecution> {
    std::unique_ptr<flux::JobExecution> exec = inner(job, instance);
    if (!exec || job.ranks.empty()) return exec;
    const auto tracked_it = by_id_.find(job.id);
    if (tracked_it == by_id_.end()) return exec;
    const std::size_t index = tracked_it->second;
    const flux::JobId id = job.id;
    const flux::Rank first = job.ranks.front();
    const auto cell =
        static_cast<std::size_t>(cell_of_rank_[static_cast<std::size_t>(first)]);
    const std::vector<flux::Rank> ranks = job.ranks;
    auto on_start = [this, index, id, first, cell, ranks] {
      double e = 0.0;
      for (flux::Rank r : ranks) e += cluster_.node(r).energy_joules();
      EnergySlot& slot = energy_slots_[index];
      slot.at_start_j = e;
      slot.valid = true;
      cell_state_[cell]->running[id] = first;
    };
    auto on_finish = [this, index, id, cell, ranks] {
      double e = 0.0;
      for (flux::Rank r : ranks) e += cluster_.node(r).energy_joules();
      EnergySlot& slot = energy_slots_[index];
      slot.total_j = e - slot.at_start_j;
      cell_state_[cell]->running.erase(id);
    };
    return std::make_unique<InstrumentedExec>(std::move(exec),
                                              std::move(on_start),
                                              std::move(on_finish));
  };
}

Scenario::~Scenario() = default;

flux::JobId Scenario::submit(const JobRequest& request) {
  if (ran_ || started_) throw std::logic_error("Scenario::submit after run()");
  // JobIds are predicted from submission order; that only holds when
  // requests arrive in nondecreasing submit-time order (events at equal
  // times are FIFO).
  if (!tracked_.empty() &&
      request.submit_time_s < tracked_.back().request.submit_time_s) {
    throw std::invalid_argument(
        "Scenario::submit: submissions must be ordered by submit_time_s");
  }
  if (engine_ &&
      request.nnodes > instance_->scheduler().max_cell_size()) {
    // Cell-confined placement could never start it; fail loudly instead
    // of hanging the run. Raise tbon_fanout to widen the cells.
    throw std::invalid_argument(
        "Scenario::submit: job wider than the widest TBON cell under the "
        "sharded profile");
  }
  Tracked t;
  t.request = request;
  const std::size_t index = tracked_.size();
  tracked_.push_back(t);

  // Reserve the JobId up front by submitting through a deferred event; ids
  // are assigned in submission order, which equals event order because the
  // event queue is FIFO at equal timestamps.
  const flux::JobSpec spec =
      apps::make_jobspec(request.kind, config_.platform, request.nnodes,
                         request.work_scale, request.eco_tolerance);

  // JobIds are sequential starting at 1 in submission order across the
  // whole instance; predict this job's id for result bookkeeping.
  const flux::JobId predicted = static_cast<flux::JobId>(index + 1);
  tracked_[index].id = predicted;
  by_id_[predicted] = index;

  sim().schedule_at(request.submit_time_s, [this, spec, index] {
    const flux::JobId actual = instance_->jobs().submit(spec);
    if (actual != tracked_[index].id) {
      // Submission order at identical timestamps is FIFO, so this can only
      // happen if user code submitted jobs outside the Scenario API.
      by_id_.erase(tracked_[index].id);
      tracked_[index].id = actual;
      by_id_[actual] = index;
    }
  });
  return predicted;
}

void Scenario::record_tick() {
  if (engine_) {
    // Island 0 owns only rank 0; the cells record their own draw and the
    // merge happens between windows (merge_cluster_timeline).
    node0_draw_.emplace_back(engine_->island(0).now(),
                             cluster_.node(0).node_draw_w());
    return;
  }
  const double t = sim_.now();
  const double total = cluster_.total_draw_w();
  cluster_timeline_.emplace_back(t, total);

  // Per-job first-node timeline (exact draw, not noisy sensor reads).
  for (const Tracked& tracked : tracked_) {
    if (tracked.id == 0 || tracked.done) continue;
    if (!instance_->jobs().has_job(tracked.id)) continue;
    const flux::Job& job = instance_->jobs().job(tracked.id);
    if (job.state != flux::JobState::Run || job.ranks.empty()) continue;
    hwsim::Node* node = instance_->node(job.ranks.front());
    TimelinePoint p;
    p.t_s = t;
    const hwsim::Grants& g = node->grants();
    p.node_w = node->node_draw_w();
    p.gpu_w.assign(g.gpu_w.begin(), g.gpu_w.end());
    p.cpu_w.assign(g.cpu_w.begin(), g.cpu_w.end());
    p.mem_w = g.mem_w;
    for (int i = 0; i < node->gpu_count(); ++i) {
      p.gpu_cap_w.push_back(node->gpu_power_cap(i).value_or(0.0));
    }
    timelines_[tracked.id].push_back(std::move(p));
  }
}

void Scenario::record_cell_tick(std::size_t cell) {
  CellState& cs = *cell_state_[cell];
  const std::vector<flux::Rank>& ranks = cells_[cell];
  const double t =
      engine_->island(island_of_rank_[static_cast<std::size_t>(ranks.front())])
          .now();
  // Fold in subtree order: the fold depends only on the cell layout, so
  // the rounding is identical for every shard count. A site-scale cell is
  // thousands of nodes, each a cache miss: fetch the grants a few ahead.
  constexpr std::size_t kAhead = 4;
  double draw = 0.0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i + kAhead < ranks.size()) {
      cluster_.node(ranks[i + kAhead]).prefetch_grants();
    }
    draw += cluster_.node(ranks[i]).node_draw_w();
  }
  cs.draw.emplace_back(t, draw);
  for (const auto& [id, first] : cs.running) {
    hwsim::Node* node = instance_->node(first);
    TimelinePoint p;
    p.t_s = t;
    const hwsim::Grants& g = node->grants();
    p.node_w = node->node_draw_w();
    p.gpu_w.assign(g.gpu_w.begin(), g.gpu_w.end());
    p.cpu_w.assign(g.cpu_w.begin(), g.cpu_w.end());
    p.mem_w = g.mem_w;
    for (int i = 0; i < node->gpu_count(); ++i) {
      p.gpu_cap_w.push_back(node->gpu_power_cap(i).value_or(0.0));
    }
    cs.timelines[id].push_back(std::move(p));
  }
}

void Scenario::merge_cluster_timeline() {
  if (!engine_) return;
  // All recorders tick on the same grid; at any barrier (the only place
  // this runs) every island has executed every event below the window
  // start, so the series lengths agree — min() is just belt and braces.
  std::size_t ticks = node0_draw_.size();
  for (const auto& cs : cell_state_) {
    ticks = std::min(ticks, cs->draw.size());
  }
  cluster_timeline_.resize(ticks);
  for (std::size_t k = 0; k < ticks; ++k) {
    double total = node0_draw_[k].second;
    for (const auto& cs : cell_state_) total += cs->draw[k].second;
    cluster_timeline_[k] = {node0_draw_[k].first, total};
  }
}

void Scenario::advance_until(double horizon_s, double max_time_s) {
  if (ran_) throw std::logic_error("Scenario::advance_until after run()");
  started_ = true;
  const int expected = static_cast<int>(tracked_.size());
  if (engine_) {
    if (energy_slots_.size() < tracked_.size()) {
      energy_slots_.resize(tracked_.size());
    }
    // The engine advances whole conservative windows; the stop condition
    // is evaluated at barriers. Windows depend only on event times, so
    // the stopping point is identical for every shard count.
    engine_->advance_until(std::min(horizon_s, max_time_s), [this, expected] {
      return completed_ >= expected;
    });
    return;
  }
  // Advance until all jobs are done, stepping the recorder-driven queue.
  // The stop conditions are evaluated before each event in the same order
  // as the pre-phased run() loop; the only addition is the horizon check,
  // which with horizon_s = +inf degenerates to step()'s own empty-queue
  // return — so run() == advance_until(+inf) + finish(), event for event.
  while (completed_ < expected && sim_.now() < max_time_s) {
    if (sim_.next_event_time() > horizon_s) break;
    if (!sim_.step()) break;
  }
  // Idle time still elapses up to the horizon (a snapshot taken in a lull
  // must record the lull's clock, not the last event's).
  if (std::isfinite(horizon_s) && sim_.now() < horizon_s &&
      completed_ < expected && horizon_s <= max_time_s) {
    sim_.run_until(horizon_s);
  }
}

ScenarioResult Scenario::run(double max_time_s) {
  if (ran_) throw std::logic_error("Scenario::run called twice");
  advance_until(std::numeric_limits<double>::infinity(), max_time_s);
  return finish(max_time_s);
}

ScenarioResult Scenario::finish(double max_time_s) {
  if (ran_) throw std::logic_error("Scenario::finish called twice");
  advance_until(std::numeric_limits<double>::infinity(), max_time_s);
  if (engine_) {
    // Align every island on one end-of-run clock before the single-threaded
    // result reads below touch cross-island node state.
    engine_->finalize_clocks();
    merge_cluster_timeline();
  }
  ran_ = true;

  ScenarioResult result;
  result.timelines = std::move(timelines_);
  for (const auto& cs : cell_state_) {
    for (auto& [id, tl] : cs->timelines) {
      result.timelines[id] = std::move(tl);
    }
  }
  result.cluster_timeline = std::move(cluster_timeline_);
  result.total_energy_j = cluster_.total_energy_joules();

  double first_submit = -1.0, last_end = 0.0;
  monitor::MonitorClient client(*instance_);
  for (const Tracked& t : tracked_) {
    if (t.id == 0 || !instance_->jobs().has_job(t.id)) continue;
    const flux::Job& job = instance_->jobs().job(t.id);
    JobResult jr;
    jr.id = t.id;
    jr.app = job.spec.app;
    jr.nnodes = job.spec.nnodes;
    jr.t_submit = job.t_submit;
    jr.t_start = job.t_start;
    jr.t_end = job.t_end;
    jr.runtime_s = job.done() ? job.runtime() : -1.0;
    if (engine_) {
      const std::size_t index = by_id_.at(t.id);
      if (index < energy_slots_.size() && energy_slots_[index].valid) {
        jr.exact_avg_node_energy_j =
            energy_slots_[index].total_j / std::max(1, jr.nnodes);
      }
    } else if (auto it = job_energy_j_.find(t.id); it != job_energy_j_.end()) {
      jr.exact_avg_node_energy_j = it->second / std::max(1, jr.nnodes);
    }
    if (config_.load_monitor && job.done()) {
      if (auto data = client.query_blocking(t.id)) {
        jr.avg_node_power_w = data->average_node_power_w();
        jr.max_node_power_w = data->max_node_power_w();
        jr.max_aggregate_power_w = data->max_aggregate_power_w();
        jr.avg_node_energy_j = data->average_node_energy_j();
        jr.telemetry_complete = std::all_of(
            data->nodes.begin(), data->nodes.end(),
            [](const monitor::NodePowerData& n) { return n.complete; });
      }
    }
    if (first_submit < 0.0 || jr.t_submit < first_submit) {
      first_submit = jr.t_submit;
    }
    last_end = std::max(last_end, jr.t_end);
    result.jobs.push_back(std::move(jr));
  }
  result.makespan_s = first_submit >= 0.0 ? last_end - first_submit : 0.0;

  double peak = 0.0, sum = 0.0;
  for (const auto& [t, w] : result.cluster_timeline) {
    peak = std::max(peak, w);
    sum += w;
  }
  result.max_cluster_power_w = peak;
  result.avg_cluster_power_w =
      result.cluster_timeline.empty()
          ? 0.0
          : sum / static_cast<double>(result.cluster_timeline.size());
  return result;
}

SingleJobOutcome run_single_job(hwsim::Platform platform, apps::AppKind kind,
                                int nnodes, double work_scale,
                                bool with_monitor, std::uint64_t seed,
                                bool runtime_variability) {
  ScenarioConfig cfg;
  cfg.platform = platform;
  cfg.nodes = nnodes;
  cfg.load_monitor = with_monitor;
  cfg.seed = seed;
  cfg.runtime_variability = runtime_variability;
  Scenario scenario(cfg);
  JobRequest req;
  req.kind = kind;
  req.nnodes = nnodes;
  req.work_scale = work_scale;
  const flux::JobId id = scenario.submit(req);
  ScenarioResult res = scenario.run();

  SingleJobOutcome out;
  out.result = res.job(id);
  if (auto it = res.timelines.find(id); it != res.timelines.end()) {
    out.timeline = it->second;
  }
  return out;
}

}  // namespace fluxpower::experiments
