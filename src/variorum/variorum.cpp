#include "variorum/variorum.hpp"

#include <string>

namespace fluxpower::variorum {

using hwsim::CapResult;
using hwsim::CapStatus;
using hwsim::PowerSample;
using util::Json;

PowerSample get_node_power_sample(hwsim::Node& node) { return node.sample(); }

Json render_node_power_json(const PowerSample& s) {
  Json j = Json::object();
  j["hostname"] = s.hostname.view();
  j["timestamp"] = s.timestamp_s;
  if (s.node_w) j["power_node_watts"] = *s.node_w;
  if (s.node_estimate_w) j["power_node_estimate_watts"] = *s.node_estimate_w;
  for (std::size_t i = 0; i < s.cpu_w.size(); ++i) {
    j["power_cpu_watts_socket_" + std::to_string(i)] = s.cpu_w[i];
  }
  if (s.mem_w) j["power_mem_watts"] = *s.mem_w;
  const char* gpu_key = s.gpu_is_oam ? "power_gpu_watts_oam_" : "power_gpu_watts_gpu_";
  for (std::size_t i = 0; i < s.gpu_w.size(); ++i) {
    j[gpu_key + std::to_string(i)] = s.gpu_w[i];
  }
  return j;
}

Json get_node_power_json(hwsim::Node& node) {
  return render_node_power_json(node.sample());
}

PowerSample parse_node_power_json(const Json& json) {
  PowerSample s;
  s.hostname = json.string_or("hostname", "");
  s.timestamp_s = json.number_or("timestamp", 0.0);
  if (json.contains("power_node_watts")) {
    s.node_w = json.at("power_node_watts").as_double();
  }
  if (json.contains("power_node_estimate_watts")) {
    s.node_estimate_w = json.at("power_node_estimate_watts").as_double();
  }
  if (json.contains("power_mem_watts")) {
    s.mem_w = json.at("power_mem_watts").as_double();
  }
  for (std::size_t i = 0;; ++i) {
    const std::string key = "power_cpu_watts_socket_" + std::to_string(i);
    if (!json.contains(key)) break;
    s.cpu_w.push_back(json.at(key).as_double());
  }
  for (std::size_t i = 0;; ++i) {
    const std::string key = "power_gpu_watts_gpu_" + std::to_string(i);
    if (!json.contains(key)) break;
    s.gpu_w.push_back(json.at(key).as_double());
  }
  if (s.gpu_w.empty()) {
    for (std::size_t i = 0;; ++i) {
      const std::string key = "power_gpu_watts_oam_" + std::to_string(i);
      if (!json.contains(key)) break;
      s.gpu_w.push_back(json.at(key).as_double());
      s.gpu_is_oam = true;
    }
  }
  return s;
}

CapResult cap_best_effort_node_power_limit(hwsim::Node& node, double watts) {
  // Prefer the platform's direct node dial (IBM AC922).
  CapResult direct = node.set_node_power_cap(watts);
  if (direct.status != CapStatus::Unsupported) return direct;

  // Best-effort fallback: split across sockets uniformly after reserving
  // the unmanageable domains (memory + base) at their idle draw.
  const hwsim::LoadDemand& floor = node.idle_demand();
  double reserve = floor.mem_w;
  for (double g : floor.gpu_w) reserve += g;
  const int sockets = node.socket_count();
  if (sockets <= 0) return {CapStatus::Unsupported, std::nullopt};
  const double per_socket = (watts - reserve) / sockets;

  CapResult aggregate{CapStatus::Ok, 0.0};
  double applied_total = reserve;
  for (int i = 0; i < sockets; ++i) {
    const CapResult r = node.set_socket_power_cap(i, per_socket);
    if (!r.ok()) {
      // Propagate the strongest failure; a single denied socket means the
      // node budget cannot be guaranteed.
      return {r.status, std::nullopt};
    }
    if (r.status == CapStatus::Clamped) aggregate.status = CapStatus::Clamped;
    applied_total += r.applied_watts.value_or(per_socket);
  }
  aggregate.applied_watts = applied_total;
  return aggregate;
}

GpuCapResults cap_each_gpu_power_limit(hwsim::Node& node, double watts) {
  GpuCapResults results;
  for (int i = 0; i < node.gpu_count(); ++i) {
    results.data[results.count++] = node.set_gpu_power_cap(i, watts);
  }
  return results;
}

CapResult cap_gpu_power_limit(hwsim::Node& node, int gpu, double watts) {
  return node.set_gpu_power_cap(gpu, watts);
}

}  // namespace fluxpower::variorum
