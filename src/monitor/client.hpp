// client.hpp — the external monitor client (the paper's Python script).
//
// Takes a job identifier, asks the root-agent for the job's aggregated
// power data, and renders it as CSV with one row per (node, sample) plus a
// column marking whether the node's dataset was complete or partial
// (§III-A). Also computes the summary statistics the paper's tables use
// (average node power, per-node energy via trapezoidal integration of the
// 2 s samples).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "flux/instance.hpp"
#include "hwsim/types.hpp"

namespace fluxpower::monitor {

/// Telemetry for one node of a job.
struct NodePowerData {
  std::string hostname;
  flux::Rank rank = -1;
  bool complete = true;
  /// The node never answered (dead broker, dropped RPC): the entry is a
  /// placeholder with no samples and `error` holds the reason.
  bool errored = false;
  std::string error;
  std::vector<hwsim::PowerSample> samples;
};

struct JobPowerData {
  flux::JobId job_id = 0;
  std::string app;
  double t_start = 0.0;
  double t_end = 0.0;
  std::vector<NodePowerData> nodes;

  /// Telemetry coverage: nodes that answered / nodes requested. Under
  /// faults the aggregation degrades to a partial dataset with an honest
  /// denominator rather than erroring out.
  std::size_t requested_nodes() const noexcept { return nodes.size(); }
  std::size_t responding_nodes() const noexcept;

  /// Average of best-available node power over all samples of all nodes.
  double average_node_power_w() const;
  /// Peak single-node power across all samples.
  double max_node_power_w() const;
  /// Peak *aggregate* power: at each sample index, sum over nodes (the
  /// "maximum power usage" columns of Tables III/IV).
  double max_aggregate_power_w() const;
  /// Per-node energy (J) via trapezoidal integration, averaged over nodes.
  double average_node_energy_j() const;
};

/// Decode a successful `power-monitor.query-job` response: the meta keys
/// from its JSON payload and the nodes from its typed batch, sorted by
/// rank. Shared by the client and the root-agent's job archive.
JobPowerData parse_job_power_message(const flux::Message& resp);

class MonitorClient {
 public:
  /// The client attaches to the instance's root broker, like the paper's
  /// script connecting to the root flux-broker.
  explicit MonitorClient(flux::Instance& instance) : instance_(instance) {}

  /// Asynchronous query; the callback fires when aggregation completes.
  /// On error the optional is empty and `error` carries the reason.
  using Callback =
      std::function<void(std::optional<JobPowerData>, std::string error)>;
  void query(flux::JobId job_id, Callback cb);

  /// Convenience: issue the query and run the simulation until the
  /// response arrives (only for use outside other event-driven code).
  std::optional<JobPowerData> query_blocking(flux::JobId job_id);

  /// Ad-hoc window query over explicit ranks, without a job id — what an
  /// operator runs to inspect arbitrary nodes over an arbitrary interval.
  /// Aggregates through the TBON tree reduction. `max_samples` > 0 asks
  /// the node-agents to decimate.
  std::optional<JobPowerData> query_window_blocking(
      const std::vector<flux::Rank>& ranks, double start_s, double end_s,
      int max_samples = 0);

  /// Render the CSV the paper's client produces.
  static std::string to_csv(const JobPowerData& data);

 private:
  flux::Instance& instance_;
};

}  // namespace fluxpower::monitor
