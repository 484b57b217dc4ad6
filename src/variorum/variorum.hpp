// variorum.hpp — vendor-neutral power telemetry and capping API.
//
// Mirrors the three Variorum entry points the paper's Flux integration uses
// (§II-C):
//   * variorum_get_node_power_json  — vendor-neutral telemetry as JSON;
//   * variorum_cap_best_effort_node_power_limit — node-level capping that
//     uses the platform's node dial when one exists (IBM AC922) and
//     otherwise distributes the budget uniformly across sockets;
//   * variorum_cap_each_gpu_power_limit — the same cap on every GPU.
//
// The API dispatches on the hwsim::Node capability surface rather than on a
// vendor enum: a platform that reports Unsupported for the node dial gets
// the best-effort socket distribution, exactly like the real library's
// per-architecture backends.
#pragma once

#include <cstddef>

#include "hwsim/node.hpp"
#include "util/json.hpp"

namespace fluxpower::variorum {

/// Telemetry sample in the neutral typed form — the canonical read used by
/// the monitor's sampling loop and the manager's control loops. Costs one
/// sensor sweep and zero heap allocations.
hwsim::PowerSample get_node_power_sample(hwsim::Node& node);

/// Render a typed sample as the Variorum JSON object. Keys follow the real
/// library's convention *in this exact insertion order*: `hostname`,
/// `timestamp` (seconds, simulated), `power_node_watts` (absent on
/// platforms without a node sensor, in which case
/// `power_node_estimate_watts` carries the conservative CPU+GPU sum),
/// `power_cpu_watts_socket_<i>`, `power_mem_watts` and either
/// `power_gpu_watts_gpu_<i>` or `power_gpu_watts_oam_<i>` depending on the
/// platform's accelerator sensor granularity. The order is a compatibility
/// invariant: edge-rendered JSON must stay byte-stable (see DESIGN.md,
/// "Telemetry data plane").
util::Json render_node_power_json(const hwsim::PowerSample& sample);

/// Telemetry sample as a JSON object: get_node_power_sample rendered by
/// render_node_power_json. Kept for edge consumers (dashboards, wire
/// streams); internal paths should carry the typed sample instead.
util::Json get_node_power_json(hwsim::Node& node);

/// Decode a telemetry JSON object back into the neutral PowerSample form.
/// Used by the monitor's aggregation path and by tests for round-tripping.
hwsim::PowerSample parse_node_power_json(const util::Json& json);

/// Best-effort node-level power cap. On platforms with a hardware node dial
/// the cap is applied directly. Otherwise the budget minus an idle
/// memory/base reserve is split uniformly across CPU sockets (the real
/// library's documented fallback). Returns the dominant status.
hwsim::CapResult cap_best_effort_node_power_limit(hwsim::Node& node,
                                                  double watts);

/// Per-GPU cap results held inline, one per GPU in GPU order: vendor
/// constructors reject more than kMaxGpuSensors GPUs, so they always fit
/// and a call allocates nothing (as FixedWattsVec does for watts).
struct GpuCapResults {
  hwsim::CapResult data[hwsim::kMaxGpuSensors] = {};
  std::size_t count = 0;

  std::size_t size() const noexcept { return count; }
  bool empty() const noexcept { return count == 0; }
  const hwsim::CapResult* begin() const noexcept { return data; }
  const hwsim::CapResult* end() const noexcept { return data + count; }
};

/// Apply the same power cap to every GPU on the node. Returns per-GPU
/// results (a node with capping fused off yields PermissionDenied for each).
GpuCapResults cap_each_gpu_power_limit(hwsim::Node& node, double watts);

/// Cap a single GPU (used by FPP's per-GPU, non-uniform capping).
hwsim::CapResult cap_gpu_power_limit(hwsim::Node& node, int gpu, double watts);

}  // namespace fluxpower::variorum
