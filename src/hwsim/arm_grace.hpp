// arm_grace.hpp — generic ARM server node model (Grace-class).
//
// Variorum's vendor-neutrality spans ARM platforms (§II-C); this model
// provides the ARM surface: hwmon-style sensors exposing per-socket CPU
// power and a *direct node* sensor (ARM server BMCs typically expose total
// board power), plus per-socket capping through the firmware interface.
// No discrete GPUs. Used by vendor-neutrality tests and to demonstrate the
// monitor/manager running unmodified on a fourth platform.
#pragma once

#include "hwsim/node.hpp"

namespace fluxpower::hwsim {

struct ArmGraceConfig {
  int sockets = 1;  ///< one 72-core superchip socket
  double cpu_idle_w = 80.0;
  double cpu_max_w = 500.0;
  double cpu_min_cap_w = 150.0;
  double mem_idle_w = 30.0;   ///< LPDDR5X on-package
  double mem_max_w = 70.0;
  double base_w = 60.0;
};

class ArmGraceNode final : public Node {
 public:
  ArmGraceNode(sim::Simulation& sim, std::string hostname,
               ArmGraceConfig config = {});

  int socket_count() const override { return config_.sockets; }
  int gpu_count() const override { return 0; }
  const char* vendor_name() const override { return "arm_grace"; }

  PowerSample read_sensors() override;

  CapResult do_set_socket_power_cap(int socket, double watts) override;

  const ArmGraceConfig& config() const noexcept { return config_; }

 protected:
  Grants compute_grants(const LoadDemand& demand) const override;

 private:
  ArmGraceConfig config_;
};

}  // namespace fluxpower::hwsim
