#include "hwsim/cray_ex235a.hpp"

#include <algorithm>

namespace fluxpower::hwsim {

CrayEx235aNode::CrayEx235aNode(sim::Simulation& sim, std::string hostname,
                               CrayEx235aConfig config)
    : Node(sim, std::move(hostname)), config_(config) {
  init_devices(config_.sockets, config_.cpu_idle_w, config_.gcds,
               config_.gcd_idle_w, config_.mem_idle_w);
  idle();
}

CapResult CrayEx235aNode::do_set_gpu_power_cap(int gpu, double watts) {
  if (gpu < 0 || gpu >= config_.gcds) {
    return {CapStatus::OutOfRange, std::nullopt};
  }
  if (!config_.capping_enabled_for_users) {
    return {CapStatus::PermissionDenied, std::nullopt};
  }
  const double applied = std::clamp(watts, config_.gcd_idle_w, config_.gcd_max_w);
  store_cap(gpu_caps_[static_cast<std::size_t>(gpu)], applied);
  return {applied == watts ? CapStatus::Ok : CapStatus::Clamped, applied};
}

CapResult CrayEx235aNode::do_set_socket_power_cap(int socket, double watts) {
  if (socket < 0 || socket >= config_.sockets) {
    return {CapStatus::OutOfRange, std::nullopt};
  }
  if (!config_.capping_enabled_for_users) {
    return {CapStatus::PermissionDenied, std::nullopt};
  }
  const double applied = std::clamp(watts, config_.cpu_idle_w, config_.cpu_max_w);
  store_cap(socket_caps_[static_cast<std::size_t>(socket)], applied);
  return {applied == watts ? CapStatus::Ok : CapStatus::Clamped, applied};
}

Grants CrayEx235aNode::compute_grants(const LoadDemand& demand) const {
  Grants g;
  g.base_w = config_.base_w;
  g.mem_w = std::min(demand.mem_w, config_.mem_max_w);

  g.gpu_w.resize(demand.gpu_w.size());
  for (std::size_t i = 0; i < demand.gpu_w.size(); ++i) {
    double limit = config_.gcd_max_w;
    if (i < gpu_caps_.size() && gpu_caps_[i]) limit = std::min(limit, *gpu_caps_[i]);
    g.gpu_w[i] = std::min(demand.gpu_w[i], std::max(limit, config_.gcd_idle_w));
  }
  g.cpu_w.resize(demand.cpu_w.size());
  for (std::size_t i = 0; i < demand.cpu_w.size(); ++i) {
    double limit = config_.cpu_max_w;
    if (i < socket_caps_.size() && socket_caps_[i]) {
      limit = std::min(limit, *socket_caps_[i]);
    }
    g.cpu_w[i] = std::min(demand.cpu_w[i], std::max(limit, config_.cpu_idle_w));
  }
  return g;
}

PowerSample CrayEx235aNode::read_sensors() {
  PowerSample s;
  s.timestamp_s = sim_.now();
  s.hostname = hostname_;
  for (double w : grants_.cpu_w) s.cpu_w.push_back(noisy(w));

  // Telemetry is per OAM: the two GCDs behind each module share a sensor.
  for (int oam = 0; oam < oam_count(); ++oam) {
    const std::size_t a = static_cast<std::size_t>(2 * oam);
    const std::size_t b = a + 1;
    double w = 0.0;
    if (a < grants_.gpu_w.size()) w += grants_.gpu_w[a];
    if (b < grants_.gpu_w.size()) w += grants_.gpu_w[b];
    s.gpu_w.push_back(noisy(w));
  }
  s.gpu_is_oam = true;

  // No node or memory sensor exists. The node figure is a conservative
  // estimate: measured CPU + measured OAMs. Memory and base power are
  // physically drawn (grants include them) but invisible here — exactly
  // the gap the paper describes for Tioga.
  s.mem_w = std::nullopt;
  s.node_w = std::nullopt;
  double est = 0.0;
  for (double w : s.cpu_w) est += w;
  for (double w : s.gpu_w) est += w;
  s.node_estimate_w = est;
  return s;
}

}  // namespace fluxpower::hwsim
