// cray_ex235a.hpp — Tioga-style HPE Cray EX235a node model.
//
// Reproduces Tioga's telemetry/capping surface from §II-A:
//   * single-socket AMD Trento CPU, telemetry via E-SMI / HSMP /
//     amd-energy MSRs;
//   * four MI250X OAM packages, each holding two Graphics Compute Dies
//     (GCDs); the workload sees 8 GPUs but power telemetry is *per OAM*
//     (560 W max across the two GCDs), via ROCm interfaces;
//   * no memory or node sensor — node power is the conservative sum of the
//     CPU socket and the four OAMs (uncore excluded, exactly what the
//     paper reports for Tioga);
//   * power capping supported by the hardware but not enabled for users on
//     the early-access system: every cap call returns PermissionDenied.
#pragma once

#include "hwsim/node.hpp"

namespace fluxpower::hwsim {

struct CrayEx235aConfig {
  int sockets = 1;
  int gcds = 8;  ///< 4 OAMs x 2 GCDs; telemetry aggregates pairs

  double cpu_idle_w = 45.0;
  double gcd_idle_w = 45.0;  ///< ~90 W idle per OAM
  double base_w = 90.0;      ///< exists physically but is *not measurable*

  double cpu_max_w = 280.0;
  double gcd_max_w = 280.0;  ///< 560 W OAM max across 2 GCDs
  double mem_idle_w = 40.0;  ///< drawn but invisible to telemetry
  double mem_max_w = 90.0;

  /// Firmware switch: capping is fused off for users on the early-access
  /// system. Flipping this simulates a post-GA firmware that enables it.
  bool capping_enabled_for_users = false;
};

class CrayEx235aNode final : public Node {
 public:
  CrayEx235aNode(sim::Simulation& sim, std::string hostname,
                 CrayEx235aConfig config = {});

  int socket_count() const override { return config_.sockets; }
  int gpu_count() const override { return config_.gcds; }
  int oam_count() const { return config_.gcds / 2; }
  const char* vendor_name() const override { return "amd_trento_mi250x"; }

  PowerSample read_sensors() override;

  CapResult do_set_gpu_power_cap(int gpu, double watts) override;
  CapResult do_set_socket_power_cap(int socket, double watts) override;

  const CrayEx235aConfig& config() const noexcept { return config_; }

 protected:
  Grants compute_grants(const LoadDemand& demand) const override;

 private:
  CrayEx235aConfig config_;
};

}  // namespace fluxpower::hwsim
