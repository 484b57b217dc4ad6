#include "hwsim/arm_grace.hpp"

#include <algorithm>

namespace fluxpower::hwsim {

ArmGraceNode::ArmGraceNode(sim::Simulation& sim, std::string hostname,
                           ArmGraceConfig config)
    : Node(sim, std::move(hostname)), config_(config) {
  init_devices(config_.sockets, config_.cpu_idle_w, 0, 0.0,
               config_.mem_idle_w);
  idle();
}

CapResult ArmGraceNode::do_set_socket_power_cap(int socket, double watts) {
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

Grants ArmGraceNode::compute_grants(const LoadDemand& demand) const {
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
  return g;
}

PowerSample ArmGraceNode::read_sensors() {
  PowerSample s;
  s.timestamp_s = sim_.now();
  s.hostname = hostname_;
  for (double w : grants_.cpu_w) s.cpu_w.push_back(noisy(w));
  s.mem_w = noisy(grants_.mem_w);
  // BMC board-power sensor: direct node reading including base power.
  s.node_w = noisy(draw_w_);
  s.node_estimate_w = std::nullopt;
  return s;
}

}  // namespace fluxpower::hwsim
