#include "hwsim/node.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace fluxpower::hwsim {

namespace {

bool same_bits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || hwsim::same_bits(*a, *b));
}

}  // namespace

const char* domain_type_name(DomainType type) noexcept {
  switch (type) {
    case DomainType::Node: return "node";
    case DomainType::CpuSocket: return "cpu";
    case DomainType::Memory: return "mem";
    case DomainType::Gpu: return "gpu";
    case DomainType::Oam: return "oam";
  }
  return "unknown";
}

const char* cap_status_name(CapStatus status) noexcept {
  switch (status) {
    case CapStatus::Ok: return "ok";
    case CapStatus::Clamped: return "clamped";
    case CapStatus::OutOfRange: return "out-of-range";
    case CapStatus::Unsupported: return "unsupported";
    case CapStatus::PermissionDenied: return "permission-denied";
    case CapStatus::IoError: return "io-error";
  }
  return "unknown";
}

double Grants::gpu_total() const {
  return std::accumulate(gpu_w.begin(), gpu_w.end(), 0.0);
}

double Grants::cpu_total() const {
  return std::accumulate(cpu_w.begin(), cpu_w.end(), 0.0);
}

double Grants::total() const {
  return cpu_total() + gpu_total() + mem_w + base_w;
}

Node::Node(sim::Simulation& sim, std::string hostname)
    : sim_(sim), hostname_(std::move(hostname)),
      rng_(std::hash<std::string>{}(hostname_)) {}

void Node::init_devices(int sockets, double cpu_idle_w, int gpus,
                        double gpu_idle_w, double mem_idle_w) {
  auto check = [this](int n, std::size_t max, const char* what) {
    if (n < 0 || static_cast<std::size_t>(n) > max) {
      throw std::invalid_argument(std::string(vendor_name()) + ": " +
                                  std::to_string(n) + " " + what +
                                  " (supported: 0-" + std::to_string(max) +
                                  ")");
    }
  };
  check(sockets, kMaxSockets, "sockets");
  check(gpus, kMaxGpuSensors, "GPUs");
  const auto n_sockets = static_cast<std::size_t>(sockets);
  const auto n_gpus = static_cast<std::size_t>(gpus);
  gpu_caps_.assign(n_gpus, std::nullopt);
  socket_caps_.assign(n_sockets, std::nullopt);
  idle_floor_.cpu_w.assign(n_sockets, cpu_idle_w);
  idle_floor_.gpu_w.assign(n_gpus, gpu_idle_w);
  idle_floor_.mem_w = mem_idle_w;
}

void Node::set_demand(const LoadDemand& demand) {
  if (same_bits(demand, requested_)) {
    meter_.update(sim_.now(), draw_w_);
    return;
  }
  requested_ = demand;
  refresh();
}

void Node::idle() {
  requested_ = LoadDemand{};
  refresh();
}

void Node::refresh() {
  // Re-floor the raw request against the idle floor, scaled down in the
  // low-power state (the awake scale 1.0 leaves every floor bit-exact), then
  // recompute grants under the active caps.
  const double scale = low_power_ ? low_power_factor() : 1.0;
  const LoadDemand& floor = idle_floor_;
  demand_ = requested_;
  demand_.cpu_w.resize(floor.cpu_w.size(), 0.0);
  demand_.gpu_w.resize(floor.gpu_w.size(), 0.0);
  for (std::size_t i = 0; i < demand_.cpu_w.size(); ++i) {
    demand_.cpu_w[i] = std::max(demand_.cpu_w[i], floor.cpu_w[i] * scale);
  }
  for (std::size_t i = 0; i < demand_.gpu_w.size(); ++i) {
    demand_.gpu_w[i] = std::max(demand_.gpu_w[i], floor.gpu_w[i] * scale);
  }
  demand_.mem_w = std::max(demand_.mem_w, floor.mem_w * scale);
  grants_ = compute_grants(demand_);
  draw_w_ = grants_.total();
  meter_.update(sim_.now(), draw_w_);
}

void Node::store_cap(std::optional<double>& slot, std::optional<double> watts,
                     bool other_input_changed) {
  if (!other_input_changed && same_bits(slot, watts)) {
    meter_.update(sim_.now(), draw_w_);
    return;
  }
  slot = watts;
  refresh();
}

double Node::noisy(double w) {
  if (sensor_noise_ <= 0.0) return w;
  return std::max(0.0, w * (1.0 + rng_.normal(0.0, sensor_noise_)));
}

PowerSample Node::sample() {
  PowerSample s = read_sensors();
  if (fault_tap_ != nullptr) fault_tap_->on_sample(*this, s);
  return s;
}

CapResult Node::set_node_power_cap(double watts) {
  if (fault_tap_ != nullptr &&
      fault_tap_->fail_cap_write(*this, DomainType::Node)) {
    ++cap_write_faults_;
    return {CapStatus::IoError, std::nullopt};
  }
  return do_set_node_power_cap(watts);
}

CapResult Node::clear_node_power_cap() {
  if (fault_tap_ != nullptr &&
      fault_tap_->fail_cap_write(*this, DomainType::Node)) {
    ++cap_write_faults_;
    return {CapStatus::IoError, std::nullopt};
  }
  return do_clear_node_power_cap();
}

CapResult Node::set_gpu_power_cap(int gpu, double watts) {
  if (fault_tap_ != nullptr &&
      fault_tap_->fail_cap_write(*this, DomainType::Gpu)) {
    ++cap_write_faults_;
    return {CapStatus::IoError, std::nullopt};
  }
  return do_set_gpu_power_cap(gpu, watts);
}

CapResult Node::set_socket_power_cap(int socket, double watts) {
  if (fault_tap_ != nullptr &&
      fault_tap_->fail_cap_write(*this, DomainType::CpuSocket)) {
    ++cap_write_faults_;
    return {CapStatus::IoError, std::nullopt};
  }
  return do_set_socket_power_cap(socket, watts);
}

CapResult Node::do_set_node_power_cap(double /*watts*/) {
  return {CapStatus::Unsupported, std::nullopt};
}

CapResult Node::do_clear_node_power_cap() {
  return {CapStatus::Unsupported, std::nullopt};
}

CapResult Node::do_set_gpu_power_cap(int /*gpu*/, double /*watts*/) {
  return {CapStatus::Unsupported, std::nullopt};
}

std::optional<double> Node::gpu_power_cap(int gpu) const {
  if (gpu < 0 || static_cast<std::size_t>(gpu) >= gpu_caps_.size()) {
    return std::nullopt;
  }
  return gpu_caps_[static_cast<std::size_t>(gpu)];
}

CapResult Node::do_set_socket_power_cap(int /*socket*/, double /*watts*/) {
  return {CapStatus::Unsupported, std::nullopt};
}

std::optional<double> Node::socket_power_cap(int socket) const {
  if (socket < 0 || static_cast<std::size_t>(socket) >= socket_caps_.size()) {
    return std::nullopt;
  }
  return socket_caps_[static_cast<std::size_t>(socket)];
}

}  // namespace fluxpower::hwsim
