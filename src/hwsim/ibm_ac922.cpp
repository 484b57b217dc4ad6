#include "hwsim/ibm_ac922.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace fluxpower::hwsim {

IbmAc922Node::IbmAc922Node(sim::Simulation& sim, std::string hostname,
                           IbmAc922Config config)
    : Node(sim, std::move(hostname)), config_(config) {
  init_devices(config_.sockets, config_.cpu_idle_w, config_.gpus,
               config_.gpu_idle_w, config_.mem_idle_w);
  wedged_.assign(static_cast<std::size_t>(config_.gpus), false);
  gpu_cap_epochs_.assign(static_cast<std::size_t>(config_.gpus), 0);
  idle();
}

double IbmAc922Node::derived_gpu_cap(double node_cap_w) const {
  // Calibration anchors from Table III (PSR = 100). The OCC's real algorithm
  // is proprietary; a piecewise-linear fit through the published
  // measurements reproduces exactly the behaviour the paper observed,
  // including the conservatism at low node caps.
  struct Anchor {
    double node_cap;
    double gpu_cap;
  };
  static constexpr std::array<Anchor, 4> kAnchors{{
      {1200.0, 100.0},
      {1800.0, 216.0},
      {1950.0, 253.0},
      {3050.0, 300.0},
  }};

  if (node_cap_w <= kAnchors.front().node_cap) {
    // Extrapolate below 1200 W with the 1200–1800 slope; clamp at zero.
    const double slope = (kAnchors[1].gpu_cap - kAnchors[0].gpu_cap) /
                         (kAnchors[1].node_cap - kAnchors[0].node_cap);
    return std::max(0.0, kAnchors[0].gpu_cap +
                             slope * (node_cap_w - kAnchors[0].node_cap));
  }
  if (node_cap_w >= kAnchors.back().node_cap) return kAnchors.back().gpu_cap;
  for (std::size_t i = 1; i < kAnchors.size(); ++i) {
    if (node_cap_w <= kAnchors[i].node_cap) {
      const double t = (node_cap_w - kAnchors[i - 1].node_cap) /
                       (kAnchors[i].node_cap - kAnchors[i - 1].node_cap);
      const double cap = kAnchors[i - 1].gpu_cap +
                         t * (kAnchors[i].gpu_cap - kAnchors[i - 1].gpu_cap);
      // PSR < 100 shifts headroom away from the GPUs proportionally.
      return cap * (config_.psr / 100.0) +
             config_.gpu_min_cap_w * (1.0 - config_.psr / 100.0) *
                 (cap > config_.gpu_min_cap_w ? 1.0 : 0.0);
    }
  }
  return kAnchors.back().gpu_cap;
}

CapResult IbmAc922Node::do_set_node_power_cap(double watts) {
  CapStatus status = CapStatus::Ok;
  double applied = watts;
  if (watts < config_.node_soft_min_cap_w) {
    applied = config_.node_soft_min_cap_w;
    status = CapStatus::Clamped;
  } else if (watts > config_.node_max_cap_w) {
    applied = config_.node_max_cap_w;
    status = CapStatus::Clamped;
  }
  if (config_.node_cap_latency_s > 0.0) {
    // OPAL settles the cap asynchronously: the write is acknowledged now,
    // enforcement changes once the firmware converges (last writer wins).
    const std::uint64_t epoch = ++node_cap_epoch_;
    sim_.schedule_after(config_.node_cap_latency_s, [this, applied, epoch] {
      if (epoch != node_cap_epoch_) return;  // superseded by a newer write
      store_cap(node_cap_, applied);
    });
    return {status, applied};
  }
  store_cap(node_cap_, applied);
  return {status, applied};
}

CapResult IbmAc922Node::do_clear_node_power_cap() {
  store_cap(node_cap_, std::nullopt);
  return {CapStatus::Ok, config_.node_max_cap_w};
}

CapResult IbmAc922Node::do_set_gpu_power_cap(int gpu, double watts) {
  if (gpu < 0 || gpu >= config_.gpus) {
    return {CapStatus::OutOfRange, std::nullopt};
  }
  const auto idx = static_cast<std::size_t>(gpu);

  // §V failure injection: at low node caps the NVML write intermittently
  // has no effect — it either keeps the last set cap or resets to maximum.
  if (config_.nvml_failure_rate > 0.0 && node_cap_ &&
      *node_cap_ <= config_.nvml_failure_below_node_cap_w &&
      rng_.chance(config_.nvml_failure_rate)) {
    ++nvml_failures_;
    if (rng_.chance(0.5)) {
      // Reset-to-max variant: the GPU is wedged at its maximum. The OCC's
      // derived cap is enforced through the same NVML path, so it no
      // longer holds for this GPU either (this is how the paper could
      // observe GPUs "defaulting to the maximum power cap" despite the
      // node-level cap's conservative derivation).
      store_gpu_cap(idx, config_.gpu_max_w, /*wedged=*/true);
    }
    // Keep-last variant: state untouched. Either way NVML reports success.
    return {CapStatus::Ok, gpu_caps_[idx]};
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
  if (config_.gpu_cap_latency_s > 0.0) {
    const std::uint64_t epoch = ++gpu_cap_epochs_[idx];
    sim_.schedule_after(config_.gpu_cap_latency_s, [this, idx, applied, epoch] {
      if (epoch != gpu_cap_epochs_[idx]) return;
      store_gpu_cap(idx, applied, /*wedged=*/false);
    });
    return {status, applied};
  }
  store_gpu_cap(idx, applied, /*wedged=*/false);  // a successful write un-wedges
  return {status, applied};
}

void IbmAc922Node::store_gpu_cap(std::size_t idx, double watts, bool wedged) {
  // The wedge flag is a grant input of its own: flipping it refreshes even
  // when the stored cap already holds `watts`.
  const bool flipped = wedged_[idx] != wedged;
  wedged_[idx] = wedged;
  store_cap(gpu_caps_[idx], watts, flipped);
}

bool IbmAc922Node::gpu_cap_wedged(int gpu) const {
  if (gpu < 0 || static_cast<std::size_t>(gpu) >= wedged_.size()) return false;
  return wedged_[static_cast<std::size_t>(gpu)];
}

Grants IbmAc922Node::compute_grants(const LoadDemand& demand) const {
  Grants g;
  g.base_w = config_.base_w;
  g.mem_w = std::min(demand.mem_w, config_.mem_max_w);

  // Per-GPU effective limit: NVML cap intersected with the OCC's derived
  // maximum when a node cap is active.
  const double derived =
      node_cap_ ? derived_gpu_cap(*node_cap_) : config_.gpu_max_w;
  g.gpu_w.resize(demand.gpu_w.size());
  for (std::size_t i = 0; i < demand.gpu_w.size(); ++i) {
    // A wedged GPU (failed NVML reset-to-max) escapes the derived cap:
    // both limits travel over the same NVML path.
    const bool wedged = i < wedged_.size() && wedged_[i];
    double limit = wedged ? config_.gpu_max_w
                          : std::min(config_.gpu_max_w, derived);
    if (!wedged && i < gpu_caps_.size() && gpu_caps_[i]) {
      limit = std::min(limit, *gpu_caps_[i]);
    }
    // A cap below the idle floor cannot reduce draw below idle.
    limit = std::max(limit, config_.gpu_idle_w);
    g.gpu_w[i] = std::min(demand.gpu_w[i], limit);
  }

  g.cpu_w.resize(demand.cpu_w.size());
  for (std::size_t i = 0; i < demand.cpu_w.size(); ++i) {
    g.cpu_w[i] = std::min(demand.cpu_w[i], config_.cpu_max_w);
  }

  if (!node_cap_) return g;

  // OCC enforcement: if the node total still exceeds the cap after the
  // derived GPU limits, throttle CPU DVFS toward idle, then squeeze the
  // GPUs further. The hard guarantee only holds down to 1000 W with GPU
  // activity; below the aggregate idle floor nothing shrinks further.
  const double cap = *node_cap_;
  auto shrink = [&](auto& grants, double floor_each) {
    double excess = g.total() - cap;
    if (excess <= 0.0) return;
    double reducible = 0.0;
    for (double w : grants) reducible += std::max(0.0, w - floor_each);
    if (reducible <= 0.0) return;
    const double scale = std::min(1.0, excess / reducible);
    for (double& w : grants) {
      w -= std::max(0.0, w - floor_each) * scale;
    }
  };
  shrink(g.cpu_w, config_.cpu_idle_w);
  shrink(g.gpu_w, config_.gpu_idle_w);
  if (g.total() > cap && g.mem_w > config_.mem_idle_w) {
    g.mem_w = std::max(config_.mem_idle_w, g.mem_w - (g.total() - cap));
  }
  return g;
}

PowerSample IbmAc922Node::read_sensors() {
  PowerSample s;
  s.timestamp_s = sim_.now();
  s.hostname = hostname_;
  s.cpu_w.reserve(grants_.cpu_w.size());
  for (double w : grants_.cpu_w) s.cpu_w.push_back(noisy(w));
  s.gpu_w.reserve(grants_.gpu_w.size());
  for (double w : grants_.gpu_w) s.gpu_w.push_back(noisy(w));
  s.mem_w = noisy(grants_.mem_w);
  // The OCC node sensor is direct and includes uncore/base power.
  s.node_w = noisy(draw_w_);
  s.node_estimate_w = std::nullopt;
  s.gpu_is_oam = false;
  return s;
}

}  // namespace fluxpower::hwsim
