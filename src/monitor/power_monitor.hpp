// power_monitor.hpp — the flux-power-monitor broker module (§III-A).
//
// Design follows the paper exactly:
//   * STATELESS node-agent on every broker: a control loop samples Variorum
//     every `sample_period_s` (default 2 s) into a fixed-size circular
//     buffer (default 100,000 samples), with no knowledge of whether a job
//     is running. Statelessness is what keeps telemetry overhead low.
//   * root-agent on rank 0: receives client queries, resolves the job id to
//     its node set and time window via job-info, fans RPCs out to the
//     node-agents, and relays the aggregated data back.
//   * The client receives per-node data plus a completeness flag: if the
//     circular buffer flushed samples inside the job's window, the dataset
//     is reported as partial.
//
// The buffer is a ring of rows, one per sweep, holding the timestamp, the
// per-domain watts and presence flags (see sample_store.hpp), so window
// lookups are binary searches over the timestamps. The node-agents of one
// sweep batch keep their rings as the columns of one slot-major table, so a
// sweep writes their rows as one contiguous run. Samples
// materialize back to `hwsim::PowerSample` once, into the node-agent's
// answer, and the TBON subtree merge ships the entries by pointer.
// Every telemetry answer is a typed batch; JSON is rendered only at the
// edges: for the live sample stream and at the codec/wire boundary.
// The edge JSON is byte-identical to the old JSON-everywhere data plane
// (see DESIGN.md, "Telemetry data plane").
//
// Every sensor read costs `sample_cost_s` of CPU on the node, deposited as
// stolen time — the physical source of the monitor's 0.04–1.2% measured
// overhead (§IV-B). In-band OCC reads on IBM are markedly slower than MSR
// reads on AMD, hence per-platform defaults.
#pragma once

#include <memory>
#include <optional>

#include "flux/broker.hpp"
#include "flux/instance.hpp"
#include "flux/jobspec.hpp"
#include "flux/module.hpp"
#include "flux/telemetry.hpp"
#include "hwsim/types.hpp"
#include "monitor/sample_store.hpp"
#include "util/json.hpp"

namespace fluxpower::monitor {

struct PowerMonitorConfig {
  double sample_period_s = 2.0;
  std::size_t buffer_capacity = 100000;
  /// CPU time stolen from the application per sensor sweep.
  double sample_cost_s = 0.008;  ///< IBM OCC in-band read cost
  /// Root-agent job archive: when a job completes, automatically query its
  /// telemetry and store a summary at KVS key `jobs.<id>.power`, so
  /// accounting survives the circular buffer's eventual flush.
  bool archive_jobs = true;
  /// Live streaming: when true, every sample is also published as a
  /// `power-monitor.sample` event (payload: the Variorum JSON plus the
  /// rank). Off by default — the stateless pull model is the low-overhead
  /// path; streaming exists for dashboards and tests.
  bool stream_samples = false;
  /// Aggregate job queries through the TBON (each broker merges its
  /// subtree's data and sends one response upward) instead of the root
  /// fanning out one RPC per node. Tree aggregation bounds the root's
  /// fan-in by the tree fanout — the scalability property the paper's
  /// overlay design provides. Off = direct fan-out (kept for the ablation).
  bool tree_aggregation = true;
  static PowerMonitorConfig for_lassen() {
    return {.sample_period_s = 2.0,
            .buffer_capacity = 100000,
            .sample_cost_s = 0.008,
            .archive_jobs = true,
            .stream_samples = false,
            .tree_aggregation = true};
  }
  static PowerMonitorConfig for_tioga() {
    return {.sample_period_s = 2.0,
            .buffer_capacity = 100000,
            .sample_cost_s = 0.0008,
            .archive_jobs = true,
            .stream_samples = false,
            .tree_aggregation = true};
  }
};

/// Service topics offered by the module.
inline constexpr const char* kGetDataTopic = "power-monitor.get-data";
inline constexpr const char* kGetSubtreeTopic = "power-monitor.get-subtree";
inline constexpr const char* kQueryJobTopic = "power-monitor.query-job";
inline constexpr const char* kStatusTopic = "power-monitor.status";
inline constexpr const char* kSetConfigTopic = "power-monitor.set-config";
/// Cluster-wide metrics aggregation: any broker answers with its own
/// registry merged with its TBON subtree's. Ask the root for the whole
/// cluster; the aggregate equals the per-node registry sums exactly.
inline constexpr const char* kMetricsTopic = "power.metrics";

class PowerMonitorModule final : public flux::SweepMember,
                                 public flux::Module {
 public:
  explicit PowerMonitorModule(PowerMonitorConfig config = {});
  ~PowerMonitorModule() override;

  const char* name() const override { return "power-monitor"; }
  void load(flux::Broker& broker) override;
  void unload() override;

  const PowerMonitorConfig& config() const noexcept { return config_; }
  /// Backed by the broker registry (fluxpower_monitor_samples_total) once
  /// loaded; 0 before load, like the plain counter it replaced.
  std::uint64_t samples_taken() const noexcept {
    return samples_total_ != nullptr ? samples_total_->value() : 0;
  }

  /// Sweeps discarded because the sensors faulted (dead node, dropout or
  /// stuck-at reading). Every sweep lands in exactly one bucket, so
  /// samples_taken == buffer evicted + buffer size + sensor_failures holds
  /// at all times — the chaos suite's no-double-count invariant.
  std::uint64_t sensor_failures() const noexcept {
    return sensor_failures_total_ != nullptr ? sensor_failures_total_->value()
                                             : 0;
  }

  /// Prometheus-style text exposition of this node-agent's state: sample
  /// counters, buffer fill, and the newest sample's per-domain powers.
  /// What a sidecar exporter would scrape on each node.
  std::string metrics_text() const;

  // -- Twin-codec introspection ---------------------------------------------
  /// The node-agent's sample ring (null before load()).
  const ColumnarSampleStore* store() const noexcept {
    return buffer_ ? &*buffer_ : nullptr;
  }

 private:
  /// One sensor sweep into the ring; the instance's sweep batch calls it
  /// every sample_period_s.
  void take_sample() override;
  void prefetch_sample() const noexcept override;
  /// Give the ring, before its first sample, a column of its sweep batch's
  /// table, laying the table out (one column per member, shaped for
  /// `first`) when the batch has none yet.
  void join_batch_table(const hwsim::PowerSample& first);
  void handle_get_data(const flux::Message& req);
  void handle_get_subtree(const flux::Message& req);
  void handle_query_job(const flux::Message& req);
  void handle_metrics(const flux::Message& req);
  /// Build this rank's own per-node entry for a window request: the one
  /// copy of its samples the query makes.
  std::shared_ptr<const flux::TelemetryNodeEntry> local_entry(
      const util::Json& window);
  void handle_status(const flux::Message& req);
  void handle_set_config(const flux::Message& req);
  void archive_job(flux::JobId id, flux::UserId userid);
  /// Push the buffer-derived gauges into the registry. Called just-in-time
  /// before any exposition so gauges are never stale.
  void refresh_gauges();

  // What a sweep reads comes first: the node, the ring's header (inline, so
  // the sweep's prefetch reaches the next row without first loading the
  // header), the sweep's instruments and the config.
  hwsim::Node* node_ = nullptr;  ///< the broker's node, read every sweep
  std::optional<ColumnarSampleStore> buffer_;
  // Instruments in the owning broker's registry (bound in load(), reset
  // there too so a reloaded module starts a fresh ledger like the plain
  // counters it replaced). The registry outlives the module.
  obs::Counter* samples_total_ = nullptr;
  obs::Histogram* sweep_duration_ = nullptr;
  PowerMonitorConfig config_;
  flux::Broker* broker_ = nullptr;
  obs::Counter* sensor_failures_total_ = nullptr;
  obs::Counter* subtree_merges_total_ = nullptr;
  obs::Counter* merge_bytes_total_ = nullptr;
  obs::Histogram* subtree_batch_nodes_ = nullptr;
  obs::Gauge* tbon_level_ = nullptr;
  obs::Gauge* buffer_fill_ratio_ = nullptr;
  obs::Gauge* buffer_size_ = nullptr;
  obs::Gauge* buffer_evicted_ = nullptr;
  std::uint64_t archive_subscription_ = 0;
};

}  // namespace fluxpower::monitor
