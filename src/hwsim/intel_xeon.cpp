#include "hwsim/intel_xeon.hpp"

#include <algorithm>

namespace fluxpower::hwsim {

IntelXeonNode::IntelXeonNode(sim::Simulation& sim, std::string hostname,
                             IntelXeonConfig config)
    : Node(sim, std::move(hostname)), config_(config) {
  init_devices(config_.sockets, config_.cpu_idle_w, config_.gpus,
               config_.gpu_idle_w, config_.mem_idle_w);
  idle();
}

CapResult IntelXeonNode::do_set_socket_power_cap(int socket, double watts) {
  if (socket < 0 || socket >= config_.sockets) {
    return {CapStatus::OutOfRange, std::nullopt};
  }
  CapStatus status = CapStatus::Ok;
  double applied = watts;
  if (watts < config_.cpu_min_cap_w) {
    applied = config_.cpu_min_cap_w;
    status = CapStatus::Clamped;
  } else if (watts > config_.cpu_max_w) {
    applied = config_.cpu_max_w;
    status = CapStatus::Clamped;
  }
  store_cap(socket_caps_[static_cast<std::size_t>(socket)], applied);
  return {status, applied};
}

CapResult IntelXeonNode::do_set_gpu_power_cap(int gpu, double watts) {
  if (gpu < 0 || gpu >= config_.gpus) {
    return {CapStatus::OutOfRange, std::nullopt};
  }
  CapStatus status = CapStatus::Ok;
  double applied = watts;
  if (watts < config_.gpu_min_cap_w) {
    applied = config_.gpu_min_cap_w;
    status = CapStatus::Clamped;
  } else if (watts > config_.gpu_max_w) {
    applied = config_.gpu_max_w;
    status = CapStatus::Clamped;
  }
  store_cap(gpu_caps_[static_cast<std::size_t>(gpu)], applied);
  return {status, applied};
}

Grants IntelXeonNode::compute_grants(const LoadDemand& demand) const {
  Grants g;
  g.base_w = config_.base_w;
  g.mem_w = std::min(demand.mem_w, config_.mem_max_w);
  g.cpu_w.resize(demand.cpu_w.size());
  for (std::size_t i = 0; i < demand.cpu_w.size(); ++i) {
    double limit = config_.cpu_max_w;
    if (i < socket_caps_.size() && socket_caps_[i]) {
      limit = std::min(limit, *socket_caps_[i]);
    }
    g.cpu_w[i] = std::min(demand.cpu_w[i], std::max(limit, config_.cpu_idle_w));
  }
  g.gpu_w.resize(demand.gpu_w.size());
  for (std::size_t i = 0; i < demand.gpu_w.size(); ++i) {
    double limit = config_.gpu_max_w;
    if (i < gpu_caps_.size() && gpu_caps_[i]) limit = std::min(limit, *gpu_caps_[i]);
    g.gpu_w[i] = std::min(demand.gpu_w[i], std::max(limit, config_.gpu_idle_w));
  }
  return g;
}

PowerSample IntelXeonNode::read_sensors() {
  PowerSample s;
  s.timestamp_s = sim_.now();
  s.hostname = hostname_;
  for (double w : grants_.cpu_w) s.cpu_w.push_back(noisy(w));
  for (double w : grants_.gpu_w) s.gpu_w.push_back(noisy(w));
  s.mem_w = noisy(grants_.mem_w);  // DRAM RAPL domain
  s.node_w = std::nullopt;         // no node sensor on this platform
  double est = *s.mem_w;
  for (double w : s.cpu_w) est += w;
  for (double w : s.gpu_w) est += w;
  s.node_estimate_w = est;
  return s;
}

}  // namespace fluxpower::hwsim
