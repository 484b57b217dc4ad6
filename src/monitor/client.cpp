#include "monitor/client.hpp"

#include <algorithm>
#include <map>

#include "flux/telemetry.hpp"
#include "monitor/power_monitor.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace fluxpower::monitor {

double JobPowerData::average_node_power_w() const {
  util::RunningStats stats;
  for (const NodePowerData& node : nodes) {
    for (const hwsim::PowerSample& s : node.samples) {
      stats.add(s.best_node_w());
    }
  }
  return stats.mean();
}

double JobPowerData::max_node_power_w() const {
  double m = 0.0;
  for (const NodePowerData& node : nodes) {
    for (const hwsim::PowerSample& s : node.samples) {
      m = std::max(m, s.best_node_w());
    }
  }
  return m;
}

double JobPowerData::max_aggregate_power_w() const {
  // Group samples by (quantized) timestamp across nodes; samples are taken
  // on a common 2 s grid so exact timestamps align.
  std::map<long long, double> by_time;
  for (const NodePowerData& node : nodes) {
    for (const hwsim::PowerSample& s : node.samples) {
      const long long key = static_cast<long long>(s.timestamp_s * 1000.0 + 0.5);
      by_time[key] += s.best_node_w();
    }
  }
  double m = 0.0;
  for (const auto& [t, w] : by_time) m = std::max(m, w);
  return m;
}

double JobPowerData::average_node_energy_j() const {
  if (nodes.empty()) return 0.0;
  double total = 0.0;
  for (const NodePowerData& node : nodes) {
    std::vector<double> ts, ws;
    ts.reserve(node.samples.size());
    ws.reserve(node.samples.size());
    for (const hwsim::PowerSample& s : node.samples) {
      ts.push_back(s.timestamp_s);
      ws.push_back(s.best_node_w());
    }
    total += util::trapezoid(ts, ws);
  }
  return total / static_cast<double>(nodes.size());
}

std::size_t JobPowerData::responding_nodes() const noexcept {
  std::size_t n = 0;
  for (const NodePowerData& node : nodes) {
    if (!node.errored) ++n;
  }
  return n;
}

JobPowerData parse_job_power_message(const flux::Message& resp) {
  // The batch already holds PowerSample structs; the JSON payload carries
  // only the meta keys.
  JobPowerData data;
  data.job_id = static_cast<flux::JobId>(resp.payload.int_or("id", 0));
  data.app = resp.payload.string_or("app", "");
  data.t_start = resp.payload.number_or("t_start", 0.0);
  data.t_end = resp.payload.number_or("t_end", 0.0);
  data.nodes.reserve(resp.telemetry->nodes.size());
  for (const flux::TelemetryNodeEntry& entry : resp.telemetry->nodes) {
    NodePowerData node;
    node.hostname = entry.hostname;
    node.rank = entry.rank;
    node.complete = entry.complete;
    node.errored = entry.errored;
    node.error = entry.error;
    node.samples = entry.samples;
    data.nodes.push_back(std::move(node));
  }
  // Stable presentation order regardless of RPC completion order.
  std::sort(data.nodes.begin(), data.nodes.end(),
            [](const NodePowerData& a, const NodePowerData& b) {
              return a.rank < b.rank;
            });
  return data;
}

void MonitorClient::query(flux::JobId job_id, Callback cb) {
  util::Json payload = util::Json::object();
  payload["id"] = job_id;
  instance_.root().rpc(flux::kRootRank, kQueryJobTopic, std::move(payload),
                       [cb = std::move(cb)](const flux::Message& resp) {
                         if (resp.is_error()) {
                           cb(std::nullopt, resp.error_text);
                           return;
                         }
                         cb(parse_job_power_message(resp), "");
                       });
}

std::optional<JobPowerData> MonitorClient::query_blocking(flux::JobId job_id) {
  std::optional<JobPowerData> result;
  bool done = false;
  query(job_id, [&](std::optional<JobPowerData> data, std::string) {
    result = std::move(data);
    done = true;
  });
  // Drive the simulator until the aggregation completes. RPC traffic is
  // the only pending work this can execute besides already-scheduled
  // module timers, which is acceptable for client-side tooling. pump_one
  // advances the globally earliest island on a sharded engine.
  while (!done && instance_.pump_one()) {
  }
  return result;
}

std::optional<JobPowerData> MonitorClient::query_window_blocking(
    const std::vector<flux::Rank>& ranks, double start_s, double end_s,
    int max_samples) {
  util::Json req = util::Json::object();
  req["start"] = start_s;
  req["end"] = end_s;
  if (max_samples > 0) req["max_samples"] = max_samples;
  util::Json ranks_json = util::Json::array();
  for (flux::Rank r : ranks) ranks_json.push_back(r);
  req["ranks"] = std::move(ranks_json);

  std::optional<JobPowerData> result;
  bool done = false;
  instance_.root().rpc(flux::kRootRank, kGetSubtreeTopic, std::move(req),
                       [&](const flux::Message& resp) {
                         done = true;
                         if (resp.is_error()) return;
                         flux::Message shaped = resp;
                         shaped.payload = util::Json::object();
                         shaped.payload["id"] = 0;
                         shaped.payload["app"] = "window-query";
                         shaped.payload["t_start"] = start_s;
                         shaped.payload["t_end"] = end_s;
                         result = parse_job_power_message(shaped);
                       });
  while (!done && instance_.pump_one()) {
  }
  return result;
}

std::string MonitorClient::to_csv(const JobPowerData& data) {
  util::CsvWriter csv;
  // Determine the widest socket/GPU layout across nodes for the header.
  std::size_t max_cpu = 0, max_gpu = 0;
  bool oam = false;
  for (const NodePowerData& node : data.nodes) {
    for (const hwsim::PowerSample& s : node.samples) {
      max_cpu = std::max(max_cpu, s.cpu_w.size());
      max_gpu = std::max(max_gpu, s.gpu_w.size());
      oam = oam || s.gpu_is_oam;
    }
  }
  std::vector<std::string> header{"jobid", "hostname", "timestamp_s",
                                  "node_power_w"};
  for (std::size_t i = 0; i < max_cpu; ++i) {
    header.push_back("cpu" + std::to_string(i) + "_w");
  }
  header.push_back("mem_w");
  for (std::size_t i = 0; i < max_gpu; ++i) {
    header.push_back((oam ? "oam" : "gpu") + std::to_string(i) + "_w");
  }
  header.push_back("dataset");
  csv.row(header);

  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return std::string(buf);
  };

  for (const NodePowerData& node : data.nodes) {
    for (const hwsim::PowerSample& s : node.samples) {
      std::vector<std::string> row;
      row.push_back(std::to_string(data.job_id));
      row.push_back(node.hostname);
      row.push_back(fmt(s.timestamp_s));
      row.push_back(fmt(s.best_node_w()));
      for (std::size_t i = 0; i < max_cpu; ++i) {
        row.push_back(i < s.cpu_w.size() ? fmt(s.cpu_w[i]) : "");
      }
      row.push_back(s.mem_w ? fmt(*s.mem_w) : "");
      for (std::size_t i = 0; i < max_gpu; ++i) {
        row.push_back(i < s.gpu_w.size() ? fmt(s.gpu_w[i]) : "");
      }
      row.push_back(node.complete ? "complete" : "partial");
      csv.row(row);
    }
  }
  return csv.str();
}

}  // namespace fluxpower::monitor
