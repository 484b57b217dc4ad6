// intel_xeon.hpp — generic Intel Xeon node model.
//
// Variorum's vendor-neutrality claim covers Intel (and ARM) platforms where
// *no node-level power dial exists*: "best effort power capping at the node
// level distributes power uniformly across available sockets" (§II-C). This
// model provides that platform shape — RAPL per-socket capping, per-socket
// and DRAM sensors, no node sensor — so the best-effort path in the
// Variorum layer has real coverage beyond IBM/AMD.
#pragma once

#include "hwsim/node.hpp"

namespace fluxpower::hwsim {

struct IntelXeonConfig {
  int sockets = 2;
  int gpus = 0;  ///< optional PCIe accelerators with NVML-style capping

  double cpu_idle_w = 60.0;
  double gpu_idle_w = 30.0;
  double mem_idle_w = 35.0;
  double base_w = 80.0;

  double cpu_max_w = 350.0;
  double cpu_min_cap_w = 75.0;  ///< RAPL PL1 floor
  double gpu_max_w = 300.0;
  double gpu_min_cap_w = 100.0;
  double mem_max_w = 120.0;
};

class IntelXeonNode final : public Node {
 public:
  IntelXeonNode(sim::Simulation& sim, std::string hostname,
                IntelXeonConfig config = {});

  int socket_count() const override { return config_.sockets; }
  int gpu_count() const override { return config_.gpus; }
  const char* vendor_name() const override { return "intel_xeon"; }

  PowerSample read_sensors() override;

  CapResult do_set_socket_power_cap(int socket, double watts) override;
  CapResult do_set_gpu_power_cap(int gpu, double watts) override;
  // set_node_power_cap intentionally not overridden: no node dial exists
  // in the hardware; node capping must go through Variorum's best-effort
  // socket distribution.

  const IntelXeonConfig& config() const noexcept { return config_; }

 protected:
  Grants compute_grants(const LoadDemand& demand) const override;

 private:
  IntelXeonConfig config_;
};

}  // namespace fluxpower::hwsim
