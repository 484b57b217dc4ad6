#include "monitor/power_monitor.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "flux/hostlist.hpp"
#include "flux/instance.hpp"
#include "monitor/client.hpp"
#include "obs/trace.hpp"
#include "util/prefetch.hpp"
#include "variorum/variorum.hpp"

namespace fluxpower::monitor {

using flux::Message;
using flux::TelemetryBatch;
using flux::TelemetryNodeEntry;
using util::Json;

namespace {
/// Sweep cost is platform-bound (OCC in-band ~8 ms, MSR ~0.8 ms); the
/// buckets straddle both defaults.
constexpr std::array<double, 8> kSweepDurationBounds = {
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025};
/// Nodes contributed per subtree merge: bounded by the cluster size.
constexpr std::array<double, 11> kBatchNodesBounds = {
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

/// The sample table of one sweep batch: the batch keeps it while it lives
/// and each store with a column in it keeps it too.
struct BatchTable final : flux::SweepShared, SampleTable {
  using SampleTable::SampleTable;
};

/// Longest ring that takes a column of its batch's table. A window read
/// walks one column, and once a table slot spans a memory page (47 Lassen
/// columns) each sample it reads is a page of its own; a query window can
/// be as long as the ring, so a longer ring keeps its rows in a table of
/// its own, one after another.
constexpr std::size_t kMaxSharedSlots = 1024;

/// Copy the in-window samples of a store into `entry`, decimating
/// uniformly when the requester bounded the transfer.
void fill_windowed_samples(const ColumnarSampleStore& store, double start,
                           double end, std::size_t max_samples,
                           TelemetryNodeEntry& entry) {
  // The in-window samples are a contiguous logical range found by binary
  // search over the timestamps — no full-buffer scan.
  const auto [lo, hi] = store.window_range(start, end);
  const std::size_t in_window = hi - lo;
  if (max_samples > 0 && in_window > max_samples) {
    entry.decimated = true;
    if (max_samples == 1) {
      // One sample cannot bracket the window: keep the newest reading.
      entry.samples.push_back(store.get(hi - 1));
      return;
    }
    const double stride = static_cast<double>(in_window - 1) /
                          static_cast<double>(max_samples - 1);
    std::size_t previous = static_cast<std::size_t>(-1);
    for (std::size_t k = 0; k < max_samples; ++k) {
      const auto idx = static_cast<std::size_t>(k * stride + 0.5);
      if (idx == previous) continue;
      previous = idx;
      entry.samples.push_back(store.get(lo + std::min(idx, in_window - 1)));
    }
  } else {
    store.append_range(lo, hi, entry.samples);
  }
}

/// Placeholder for a requested rank that did not answer: partial, errored
/// and without samples.
std::shared_ptr<const TelemetryNodeEntry> errored_entry(
    flux::Rank rank, const std::string& error) {
  auto entry = std::make_shared<TelemetryNodeEntry>();
  entry->rank = rank;
  entry->complete = false;
  entry->errored = true;
  entry->error = error;
  return entry;
}

/// A window request's `max_samples` must not be negative: cast to size_t
/// it would wrap to a huge bound and ship every in-window sample.
bool rejects_negative_max_samples(flux::Broker& broker, const Message& req) {
  if (req.payload.int_or("max_samples", 0) >= 0) return false;
  broker.respond_error(req, flux::kEInval, "max_samples must be >= 0");
  return true;
}

}  // namespace

PowerMonitorModule::PowerMonitorModule(PowerMonitorConfig config)
    : config_(config) {}

PowerMonitorModule::~PowerMonitorModule() = default;

void PowerMonitorModule::load(flux::Broker& broker) {
  broker_ = &broker;
  node_ = broker.node();
  buffer_.emplace(config_.buffer_capacity);

  // Bind instruments in the broker registry. Counters are reset so a
  // reloaded module starts a fresh ledger — the semantics the plain
  // per-module counters had — keeping the ledger identity
  // samples == evicted + size + failures intact across a reload.
  obs::MetricsRegistry& reg = broker.metrics();
  samples_total_ = &reg.counter("fluxpower_monitor_samples_total",
                                "Sensor sweeps attempted by the node-agent");
  sensor_failures_total_ =
      &reg.counter("fluxpower_monitor_sensor_failures_total",
                   "Sweeps discarded because the sensors faulted");
  subtree_merges_total_ =
      &reg.counter("fluxpower_monitor_subtree_merges_total",
                   "TBON subtree merges performed at this broker");
  merge_bytes_total_ = &reg.counter(
      "fluxpower_monitor_merge_bytes_total",
      "Telemetry sample bytes shipped upward in subtree responses");
  sweep_duration_ = &reg.histogram("fluxpower_monitor_sweep_duration_seconds",
                                   "CPU time stolen per sensor sweep",
                                   kSweepDurationBounds);
  subtree_batch_nodes_ = &reg.histogram(
      "fluxpower_monitor_subtree_batch_nodes",
      "Per-node entries in each merged subtree batch", kBatchNodesBounds);
  tbon_level_ = &reg.gauge("fluxpower_monitor_tbon_level",
                           "This broker's depth in the TBON (root = 0)");
  buffer_fill_ratio_ = &reg.gauge("fluxpower_monitor_buffer_fill_ratio",
                                  "Retained samples / buffer capacity");
  buffer_size_ =
      &reg.gauge("fluxpower_monitor_buffer_size", "Retained samples");
  buffer_evicted_ = &reg.gauge("fluxpower_monitor_buffer_evicted_total",
                               "Samples flushed from the circular buffer");
  samples_total_->reset();
  sensor_failures_total_->reset();
  subtree_merges_total_->reset();
  merge_bytes_total_->reset();
  sweep_duration_->reset();
  subtree_batch_nodes_->reset();
  tbon_level_->set(
      static_cast<double>(broker.instance().tbon().level(broker.rank())));
  refresh_gauges();

  // Node-agent: stateless periodic sampling on every broker.
  broker.register_service(kGetDataTopic,
                          [this](const Message& m) { handle_get_data(m); });
  broker.register_service(kGetSubtreeTopic,
                          [this](const Message& m) { handle_get_subtree(m); });
  broker.register_service(kStatusTopic,
                          [this](const Message& m) { handle_status(m); });
  broker.register_service(kSetConfigTopic,
                          [this](const Message& m) { handle_set_config(m); });
  broker.register_service(kMetricsTopic,
                          [this](const Message& m) { handle_metrics(m); });
  broker.instance().join_sweep(broker.rank(), config_.sample_period_s, *this);

  // Root-agent: external-client entry point, root rank only.
  if (broker.is_root()) {
    broker.register_service(kQueryJobTopic,
                            [this](const Message& m) { handle_query_job(m); });
    if (config_.archive_jobs) {
      archive_subscription_ = broker.subscribe_event(
          "job.state-inactive", [this](const Message& event) {
            archive_job(
                static_cast<flux::JobId>(event.payload.int_or("id", 0)),
                static_cast<flux::UserId>(
                    event.payload.int_or("userid", flux::kOwnerUserid)));
          });
    }
  }
}

void PowerMonitorModule::unload() {
  if (broker_ != nullptr) {
    broker_->instance().leave_sweep(*this);
    broker_->unregister_service(kGetDataTopic);
    broker_->unregister_service(kGetSubtreeTopic);
    broker_->unregister_service(kStatusTopic);
    broker_->unregister_service(kSetConfigTopic);
    broker_->unregister_service(kMetricsTopic);
    if (broker_->is_root()) {
      broker_->unregister_service(kQueryJobTopic);
      if (archive_subscription_ != 0) {
        broker_->unsubscribe_event(archive_subscription_);
        archive_subscription_ = 0;
      }
    }
    broker_ = nullptr;
  }
  node_ = nullptr;
  // The instruments live in the broker registry, which outlives the module;
  // only the handles are dropped here.
  samples_total_ = nullptr;
  sensor_failures_total_ = nullptr;
  subtree_merges_total_ = nullptr;
  merge_bytes_total_ = nullptr;
  sweep_duration_ = nullptr;
  subtree_batch_nodes_ = nullptr;
  tbon_level_ = nullptr;
  buffer_fill_ratio_ = nullptr;
  buffer_size_ = nullptr;
  buffer_evicted_ = nullptr;
  buffer_.reset();
}

void PowerMonitorModule::refresh_gauges() {
  if (!buffer_ || buffer_fill_ratio_ == nullptr) return;
  buffer_fill_ratio_->set(static_cast<double>(buffer_->size()) /
                          static_cast<double>(buffer_->capacity()));
  buffer_size_->set(static_cast<double>(buffer_->size()));
  buffer_evicted_->set(static_cast<double>(buffer_->evicted()));
}

void PowerMonitorModule::prefetch_sample() const noexcept {
  if (node_ == nullptr) return;
  node_->prefetch_sample();
  buffer_->prefetch_push();
  util::prefetch_write(samples_total_);
  util::prefetch_write(sweep_duration_);
}

void PowerMonitorModule::join_batch_table(const hwsim::PowerSample& first) {
  // The batch's first member to store a sample lays the table out; every
  // member then takes the column of its position, so a sweep walks the
  // columns in order. A store the table cannot hold (another capacity, a
  // late joiner, a ring over kMaxSharedSlots) gets a one-column table of
  // its own at its first push.
  if (buffer_->capacity() > kMaxSharedSlots) return;
  const std::shared_ptr<flux::SweepShared>& shared = sweep_shared();
  std::shared_ptr<BatchTable> table = std::dynamic_pointer_cast<BatchTable>(shared);
  if (table == nullptr) {
    if (shared != nullptr || sweep_size() == 0) return;
    table = std::make_shared<BatchTable>(sweep_size(), buffer_->capacity(),
                                         first.cpu_w.size(),
                                         first.gpu_w.size());
    set_sweep_shared(table);
  }
  buffer_->attach(std::move(table), sweep_position());
}

void PowerMonitorModule::take_sample() {
  if (node_ == nullptr) return;  // broker-only test instance
  // One typed sensor sweep, stored raw: sizeof(PowerSample) bytes, no JSON,
  // no heap allocation on the 2 s hot path.
  const hwsim::PowerSample s = variorum::get_node_power_sample(*node_);
  samples_total_->inc();
  // The sweep burned CPU whether or not the sensors answered.
  node_->add_stolen_time(config_.sample_cost_s);
  sweep_duration_->observe(config_.sample_cost_s);
  if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
    tr.complete(broker_->sim().now(), config_.sample_cost_s, "sensor-sweep",
                "monitor", broker_->rank(), "fault",
                s.sensor_fault ? 1.0 : 0.0);
  }
  if (s.sensor_fault) {
    // Faulted sweeps never enter the buffer: a dead/stuck reading in the
    // telemetry would silently corrupt every downstream energy integral.
    // The failure is counted instead and surfaces in status and metrics.
    sensor_failures_total_->inc();
    return;
  }
  if (config_.stream_samples) {
    // Streaming is an edge: dashboards consume the rendered JSON.
    Json event = Json::object();
    event["rank"] = broker_->rank();
    event["sample"] = variorum::render_node_power_json(s);
    broker_->publish_event("power-monitor.sample", std::move(event));
  }
  if (buffer_->table() == nullptr) [[unlikely]] join_batch_table(s);
  buffer_->push(s);
}

std::shared_ptr<const TelemetryNodeEntry> PowerMonitorModule::local_entry(
    const Json& window) {
  const double start = window.number_or("start", 0.0);
  const double end = window.number_or("end", broker_->sim().now());
  // Optional decimation: long-running jobs accumulate days of samples;
  // clients can bound the transfer and the node-agent thins uniformly
  // (first and last retained samples always survive).
  const auto max_samples =
      static_cast<std::size_t>(window.int_or("max_samples", 0));

  auto entry = std::make_shared<TelemetryNodeEntry>();
  fill_windowed_samples(*buffer_, start, end, max_samples, *entry);

  // The dataset is partial if the buffer has already flushed samples that
  // fell inside the requested window: detectable when the oldest retained
  // sample is newer than the window start and evictions have occurred.
  entry->complete = true;
  if (buffer_->empty()) {
    entry->complete = false;
  } else if (buffer_->evicted() > 0 && buffer_->timestamp_at(0) > start) {
    entry->complete = false;
  }

  entry->hostname =
      broker_->node() != nullptr ? broker_->node()->hostname() : "";
  entry->rank = broker_->rank();
  return entry;
}

void PowerMonitorModule::handle_get_data(const Message& req) {
  if (rejects_negative_max_samples(*broker_, req)) return;
  auto batch = std::make_shared<TelemetryBatch>();
  batch->single_entry = true;
  batch->nodes.push_back(local_entry(req.payload));
  broker_->respond_telemetry(req, Json::object(), std::move(batch));
}

std::string PowerMonitorModule::metrics_text() const {
  const std::string host =
      broker_ != nullptr && broker_->node() != nullptr
          ? broker_->node()->hostname()
          : "unknown";
  char line[256];
  std::string out;
  auto gauge = [&](const char* name, const std::string& labels, double value) {
    std::snprintf(line, sizeof line, "%s{host=\"%s\"%s%s} %.3f\n", name,
                  host.c_str(), labels.empty() ? "" : ",", labels.c_str(),
                  value);
    out += line;
  };
  // Thin view over the broker registry: same counters the `power.metrics`
  // aggregation exposes, rendered in the module's legacy byte format.
  gauge("fluxpower_monitor_samples_total", "",
        static_cast<double>(samples_taken()));
  gauge("fluxpower_monitor_sensor_failures_total", "",
        static_cast<double>(sensor_failures()));
  if (buffer_) {
    gauge("fluxpower_monitor_buffer_fill_ratio", "",
          static_cast<double>(buffer_->size()) /
              static_cast<double>(buffer_->capacity()));
    gauge("fluxpower_monitor_buffer_evicted_total", "",
          static_cast<double>(buffer_->evicted()));
    if (!buffer_->empty()) {
      // Per-domain gauges in the Variorum key order (node, sockets, mem,
      // accelerators) so the exposition is byte-stable with the old
      // JSON-backed implementation.
      const hwsim::PowerSample s = buffer_->back();
      if (s.node_w) {
        gauge("fluxpower_node_power_watts", "domain=\"node\"", *s.node_w);
      } else if (s.node_estimate_w) {
        gauge("fluxpower_node_power_watts", "domain=\"node_estimate\"",
              *s.node_estimate_w);
      }
      for (std::size_t i = 0; i < s.cpu_w.size(); ++i) {
        gauge("fluxpower_domain_power_watts",
              "domain=\"cpu_watts_socket_" + std::to_string(i) + "\"",
              s.cpu_w[i]);
      }
      if (s.mem_w) {
        gauge("fluxpower_domain_power_watts", "domain=\"mem_watts\"",
              *s.mem_w);
      }
      const char* gpu_label = s.gpu_is_oam ? "gpu_watts_oam_" : "gpu_watts_gpu_";
      for (std::size_t i = 0; i < s.gpu_w.size(); ++i) {
        gauge("fluxpower_domain_power_watts",
              "domain=\"" + std::string(gpu_label) + std::to_string(i) + "\"",
              s.gpu_w[i]);
      }
    }
  }
  return out;
}

void PowerMonitorModule::handle_get_subtree(const Message& req) {
  // TBON tree reduction: contribute the local window, recurse into the
  // children whose subtrees hold requested ranks, and answer upward with
  // the merged per-node entries. Every broker's fan-in is bounded by the
  // tree fanout regardless of job size. The merge is typed and stateless:
  // child batches arrive by pointer, their entry pointers are appended
  // without touching JSON or samples, and nothing outlives the query.
  if (rejects_negative_max_samples(*broker_, req)) return;
  const flux::Tbon& tbon = broker_->instance().tbon();
  std::vector<flux::Rank> wanted;
  if (req.payload.contains("ranks")) {
    for (const Json& r : req.payload.at("ranks").as_array()) {
      wanted.push_back(static_cast<flux::Rank>(r.as_int()));
    }
  }
  // Sorted once: partitioning tests every rank below this broker.
  std::sort(wanted.begin(), wanted.end());
  auto wants = [&wanted](flux::Rank r) {
    return std::binary_search(wanted.begin(), wanted.end(), r);
  };

  // The merge keeps where the answer goes, not the request (whose payload
  // holds the whole rank list).
  struct Pending {
    TelemetryBatch batch;
    std::size_t outstanding = 0;
    flux::ReplyTo reply;
  };
  auto pending = std::make_shared<Pending>();
  pending->reply = flux::ReplyTo::of(req);
  if (wants(broker_->rank())) {
    pending->batch.nodes.push_back(local_entry(req.payload));
  }

  // Partition the remaining wanted ranks among child subtrees.
  struct ChildRequest {
    flux::Rank child;
    std::vector<flux::Rank> subset;
  };
  std::vector<ChildRequest> child_requests;
  for (flux::Rank child : tbon.children(broker_->rank())) {
    ChildRequest cr;
    cr.child = child;
    for (flux::Rank r : tbon.subtree(child)) {
      if (wants(r)) cr.subset.push_back(r);
    }
    if (!cr.subset.empty()) child_requests.push_back(std::move(cr));
  }

  flux::Broker* broker = broker_;
  const std::size_t requested = wanted.size();
  // Instrument handles are captured by value: they point into the broker
  // registry, which outlives the module, so a merge completing after an
  // unload still records safely.
  obs::Counter* merges = subtree_merges_total_;
  obs::Histogram* batch_nodes = subtree_batch_nodes_;
  obs::Counter* merge_bytes = merge_bytes_total_;
  auto respond_merged = [broker, requested, merges, batch_nodes,
                         merge_bytes](Pending& p) {
    merges->inc();
    batch_nodes->observe(static_cast<double>(p.batch.nodes.size()));
    // Payload accounting: samples shipped in this upward response (the
    // entries travel by pointer; this is the hop's logical wire weight).
    // Coverage annotation: how many of the requested ranks actually
    // answered. Downed subtrees yield errored placeholder entries, so the
    // aggregate degrades with an honest denominator instead of hanging.
    std::size_t shipped = 0;
    std::size_t responding = 0;
    for (const auto& n : p.batch.nodes) {
      shipped += n->samples.size();
      if (!n->errored) ++responding;
    }
    merge_bytes->inc(shipped * sizeof(hwsim::PowerSample));
    if (obs::TraceSink& tr = obs::process_trace(); tr.enabled()) {
      tr.instant(broker->sim().now(), "subtree-merge", "monitor",
                 broker->rank(), "nodes",
                 static_cast<double>(p.batch.nodes.size()));
    }
    Json meta = Json::object();
    meta["requested"] = static_cast<std::int64_t>(requested);
    meta["responding"] = static_cast<std::int64_t>(responding);
    broker->respond_telemetry(
        p.reply, std::move(meta),
        std::make_shared<TelemetryBatch>(std::move(p.batch)));
  };

  if (child_requests.empty()) {
    respond_merged(*pending);
    return;
  }

  // Children window against the values resolved here, so every node of
  // the subtree answers for the same interval.
  const double win_start = req.payload.number_or("start", 0.0);
  const double win_end = req.payload.number_or("end", broker->sim().now());

  pending->outstanding = child_requests.size();
  for (ChildRequest& cr : child_requests) {
    Json sub = Json::object();
    sub["start"] = win_start;
    sub["end"] = win_end;
    if (req.payload.contains("max_samples")) {
      sub["max_samples"] = req.payload.int_or("max_samples", 0);
    }
    Json ranks = Json::array();
    for (flux::Rank r : cr.subset) ranks.push_back(r);
    sub["ranks"] = std::move(ranks);

    broker->rpc(
        cr.child, kGetSubtreeTopic, std::move(sub),
        [pending, subset = std::move(cr.subset),
         respond_merged](const Message& resp) {
          auto& merged = pending->batch.nodes;
          if (resp.is_error()) {
            // A whole subtree went dark: emit partial entries for each of
            // its requested ranks so aggregation degrades, not fails.
            for (flux::Rank r : subset) {
              merged.push_back(errored_entry(r, resp.error_text));
            }
          } else {
            const auto& child = resp.telemetry->nodes;
            merged.insert(merged.end(), child.begin(), child.end());
          }
          if (--pending->outstanding == 0) respond_merged(*pending);
        },
        /*timeout_s=*/10.0);
  }
}

void PowerMonitorModule::handle_metrics(const Message& req) {
  // Cluster-wide metrics reduction, same TBON shape as the telemetry
  // subtree merge: contribute the local broker registry, recurse into every
  // child, sum counters/gauges/histogram buckets hop by hop. The aggregate
  // therefore equals the per-node registry sums exactly — nothing is
  // averaged, dropped or double-counted. A dark subtree degrades the
  // `nodes` denominator instead of failing the query.
  refresh_gauges();
  const flux::Tbon& tbon = broker_->instance().tbon();
  const std::vector<flux::Rank> children = tbon.children(broker_->rank());

  struct Pending {
    obs::MetricsRegistry aggregate;
    std::int64_t nodes = 1;
    std::size_t outstanding = 0;
    flux::ReplyTo reply;
  };
  auto pending = std::make_shared<Pending>();
  pending->reply = flux::ReplyTo::of(req);
  pending->aggregate.merge_json(broker_->metrics().to_json());

  flux::Broker* broker = broker_;
  auto respond_merged = [broker](Pending& p) {
    Json payload = Json::object();
    payload["nodes"] = p.nodes;
    payload["metrics"] = p.aggregate.to_json();
    broker->respond(p.reply, std::move(payload));
  };

  if (children.empty()) {
    respond_merged(*pending);
    return;
  }
  pending->outstanding = children.size();
  for (flux::Rank child : children) {
    broker->rpc(
        child, kMetricsTopic, Json::object(),
        [pending, respond_merged](const Message& resp) {
          if (!resp.is_error()) {
            pending->aggregate.merge_json(resp.payload.at("metrics"));
            pending->nodes += resp.payload.int_or("nodes", 0);
          }
          if (--pending->outstanding == 0) respond_merged(*pending);
        },
        /*timeout_s=*/10.0);
  }
}

void PowerMonitorModule::handle_status(const Message& req) {
  Json payload = Json::object();
  payload["rank"] = broker_->rank();
  payload["samples_taken"] = samples_taken();
  payload["buffer_size"] = buffer_->size();
  payload["buffer_capacity"] = buffer_->capacity();
  payload["evicted"] = buffer_->evicted();
  payload["sensor_failures"] = sensor_failures();
  payload["sample_period_s"] = config_.sample_period_s;
  // What the ring holds: bytes per stored sample (one row) and its heap.
  payload["sample_bytes"] = buffer_->row_bytes();
  payload["buffer_bytes"] = buffer_->heap_bytes();
  broker_->respond(req, std::move(payload));
}

void PowerMonitorModule::handle_set_config(const Message& req) {
  // Runtime reconfiguration of the node-agent — the sampling rate and
  // buffer size "are configurable by the user" (§III-A). Changing the
  // buffer capacity discards retained samples (allocation is fixed-size);
  // changing the period re-arms the control loop.
  const double period =
      req.payload.number_or("sample_period_s", config_.sample_period_s);
  // Range-check before the cast: a negative capacity would wrap to a huge
  // std::size_t and pass a zero test.
  const std::int64_t requested = req.payload.int_or(
      "buffer_capacity", static_cast<std::int64_t>(config_.buffer_capacity));
  if (!(period > 0.0) || !std::isfinite(period) || requested < 1) {
    broker_->respond_error(req, flux::kEInval,
                           "period must be positive and finite, capacity "
                           "positive");
    return;
  }
  const auto capacity = static_cast<std::size_t>(requested);
  config_.stream_samples =
      req.payload.bool_or("stream_samples", config_.stream_samples);
  if (capacity != config_.buffer_capacity) {
    config_.buffer_capacity = capacity;
    // The retained samples are discarded with the old ring, so the new one
    // must account them (and the old ring's own evictions) as evicted —
    // otherwise completeness reporting resets and a job window that
    // straddles the reconfiguration reads as complete when samples were in
    // fact lost. The old ring's column goes back to its table; the new ring
    // takes a column at its first sample (see join_batch_table).
    const std::uint64_t pushed = buffer_->total_pushed();
    buffer_.emplace(capacity);
    buffer_->inherit_lifetime(pushed);
  }
  if (period != config_.sample_period_s) {
    // Leave the old grid's batch for one on the new grid from now.
    config_.sample_period_s = period;
    broker_->instance().join_sweep(broker_->rank(), period, *this);
  }
  Json ack = Json::object();
  ack["sample_period_s"] = config_.sample_period_s;
  ack["buffer_capacity"] = static_cast<std::int64_t>(config_.buffer_capacity);
  broker_->respond(req, std::move(ack));
}

void PowerMonitorModule::archive_job(flux::JobId id, flux::UserId userid) {
  // Fire the normal query path against ourselves and persist the summary.
  // The archive must not race the job's final samples: schedule one sample
  // period out so node-agents have sampled past t_end.
  flux::Broker* broker = broker_;
  broker->sim().schedule_after(config_.sample_period_s, [broker, id, userid] {
    util::Json payload = util::Json::object();
    payload["id"] = id;
    broker->rpc(
        flux::kRootRank, kQueryJobTopic, std::move(payload),
        [broker, id, userid](const Message& resp) {
          if (resp.is_error()) return;  // nothing to archive
          const JobPowerData data = parse_job_power_message(resp);
          util::Json summary = util::Json::object();
          summary["app"] = data.app;
          summary["t_start"] = data.t_start;
          summary["t_end"] = data.t_end;
          std::vector<std::string> hostnames;
          bool complete = true;
          for (const NodePowerData& n : data.nodes) {
            if (!n.hostname.empty()) hostnames.push_back(n.hostname);
            complete = complete && n.complete;
          }
          summary["nodes"] = flux::hostlist_encode(hostnames);
          summary["nnodes"] = static_cast<std::int64_t>(data.nodes.size());
          summary["avg_node_power_w"] = data.average_node_power_w();
          summary["max_node_power_w"] = data.max_node_power_w();
          summary["max_job_power_w"] = data.max_aggregate_power_w();
          const double avg_node_energy_j = data.average_node_energy_j();
          summary["avg_node_energy_j"] = avg_node_energy_j;
          summary["complete"] = complete;
          const double job_energy_j =
              avg_node_energy_j * static_cast<double>(data.nodes.size());
          broker->instance().kvs().put("jobs." + std::to_string(id) + ".power",
                                       std::move(summary));

          // Per-user energy accounting: accumulate under
          // accounting.users.<uid> so chargeback survives job records.
          flux::Kvs& kvs = broker->instance().kvs();
          const std::string key =
              "accounting.users." + std::to_string(userid);
          util::Json account =
              kvs.get(key).value_or(util::Json::object());
          account["jobs"] = account.int_or("jobs", 0) + 1;
          account["energy_j"] =
              account.number_or("energy_j", 0.0) + job_energy_j;
          account["node_seconds"] =
              account.number_or("node_seconds", 0.0) +
              (data.t_end - data.t_start) * static_cast<double>(data.nodes.size());
          kvs.put(key, std::move(account));
        });
  });
}

void PowerMonitorModule::handle_query_job(const Message& req) {
  // Resolve the job, then gather from the node-agents of its ranks —
  // through the TBON tree reduction by default, or by direct root fan-out
  // when tree aggregation is disabled. All communication is message-based,
  // even root-local lookups. The gather and the answer are typed batches.
  flux::Broker* broker = broker_;
  const bool tree_aggregation = config_.tree_aggregation;
  const flux::ReplyTo reply = flux::ReplyTo::of(req);
  broker->rpc(
      flux::kRootRank, "job-info.lookup", req.payload,
      [broker, reply, tree_aggregation](const Message& info) {
        if (info.is_error()) {
          broker->respond_error(reply, info.errnum, info.error_text);
          return;
        }
        const double t_start = info.payload.number_or("t_start", -1.0);
        double t_end = info.payload.number_or("t_end", -1.0);
        if (t_end < 0.0) t_end = broker->sim().now();  // job still running
        if (t_start < 0.0) {
          broker->respond_error(reply, flux::kEInval,
                                "job has not started; no telemetry window");
          return;
        }
        const auto& ranks = info.payload.at("ranks").as_array();
        if (ranks.empty()) {
          broker->respond_error(reply, flux::kEInval,
                                "job has no allocated ranks");
          return;
        }

        Json meta = Json::object();
        meta["id"] = info.payload.int_or("id", 0);
        meta["app"] = info.payload.string_or("app", "");
        meta["t_start"] = t_start;
        meta["t_end"] = t_end;

        Json window = Json::object();
        window["start"] = t_start;
        window["end"] = t_end;

        if (tree_aggregation) {
          // One request into the tree; brokers merge their subtrees.
          window["ranks"] = ranks;
          broker->rpc(
              flux::kRootRank, kGetSubtreeTopic, std::move(window),
              [broker, reply, meta = std::move(meta)](const Message& resp) {
                if (resp.is_error()) {
                  broker->respond_error(reply, resp.errnum,
                                        resp.error_text);
                  return;
                }
                // Re-share the merged batch: zero copies at the root.
                broker->respond_telemetry(reply, meta, resp.telemetry);
              },
              /*timeout_s=*/15.0);
          return;
        }

        // Aggregation state shared by the per-rank response handlers.
        struct Pending {
          Json meta;
          TelemetryBatch batch;
          std::size_t outstanding = 0;
        };
        auto pending = std::make_shared<Pending>();
        pending->meta = std::move(meta);
        pending->outstanding = ranks.size();

        for (const Json& r : ranks) {
          const auto rank = static_cast<flux::Rank>(r.as_int());
          broker->rpc(
              rank, kGetDataTopic, window,
              [broker, reply, pending, rank](const Message& resp) {
                if (resp.is_error()) {
                  // Fault-tolerant aggregation: a dead or unloaded
                  // node-agent yields an empty *partial* per-node entry
                  // rather than failing the whole query — the client's
                  // completeness column carries the bad news.
                  pending->batch.nodes.push_back(
                      errored_entry(rank, resp.error_text));
                } else {
                  pending->batch.nodes.push_back(resp.telemetry->nodes.front());
                }
                if (--pending->outstanding == 0) {
                  broker->respond_telemetry(
                      reply, std::move(pending->meta),
                      std::make_shared<TelemetryBatch>(std::move(pending->batch)));
                }
              },
              /*timeout_s=*/5.0);
        }
      });
}

}  // namespace fluxpower::monitor
