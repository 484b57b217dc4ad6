// types.hpp — shared hardware-simulation value types.
//
// The simulator reproduces the *interfaces* the paper's framework sees:
// per-domain instantaneous power sensors and per-domain cap controls, with
// each vendor exposing a different subset (see DESIGN.md). Applications
// express load as absolute per-device power demand; vendor node models turn
// demand + active caps into granted power.
//
// `PowerSample` is the telemetry currency of the whole stack: it is stored
// verbatim in the monitor's ring buffer, merged through the TBON, and only
// rendered to Variorum JSON at the system's edges. That is why it is a flat
// trivially-copyable struct with fixed-capacity arrays instead of a bag of
// strings/vectors/optionals — one sample costs `sizeof(PowerSample)` bytes
// and zero heap allocations, wherever it travels. `LoadDemand` and `Grants`
// hold the same inline watts arrays, so the demand → grant → progress path
// that every app step and cap write runs never touches the heap either.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace fluxpower::hwsim {

/// Power domains a vendor may expose. `Oam` is AMD's accelerator module
/// (two GPU dies behind one sensor) — Tioga reports OAM power, not per-GPU.
enum class DomainType { Node, CpuSocket, Memory, Gpu, Oam };

const char* domain_type_name(DomainType type) noexcept;

/// Result of a cap-setting operation. `Unsupported` models hardware without
/// the control (e.g. node-level capping on Intel/AMD); `PermissionDenied`
/// models controls fused off for users (Tioga's early-access firmware);
/// `Clamped` means the request was applied after clamping into the valid
/// range, mirroring OPAL's behaviour for out-of-range soft caps; `IoError`
/// is a *transient* driver/firmware communication failure (the §V
/// intermittent-cap-failure class) — retrying the same write may succeed.
enum class CapStatus {
  Ok,
  Clamped,
  OutOfRange,
  Unsupported,
  PermissionDenied,
  IoError
};

struct CapResult {
  CapStatus status = CapStatus::Ok;
  /// Cap actually in effect after the call (absent when unsupported/denied).
  std::optional<double> applied_watts;

  bool ok() const noexcept {
    return status == CapStatus::Ok || status == CapStatus::Clamped;
  }
};

const char* cap_status_name(CapStatus status) noexcept;

/// Sensor-count ceilings across every supported platform. AC922 has 2
/// sockets + 4 GPUs, EX235a 1 socket + 4 OAM sensors, Grace 1 socket, and
/// Xeon 2 sockets + a configurable PCIe accelerator set. The headroom makes
/// these safe for hypothetical denser nodes without growing the sample.
/// They also bound demands and grants, which are per GCD on EX235a: its 8
/// GCDs fill kMaxGpuSensors, and vendor constructors reject more devices.
inline constexpr std::size_t kMaxSockets = 4;
inline constexpr std::size_t kMaxGpuSensors = 8;
inline constexpr std::size_t kMaxHostnameLen = 31;

/// Fixed-capacity inline vector of doubles — the per-domain watts array of
/// demands, grants and telemetry. It mirrors the slice of the standard
/// vector interface the stack uses, so vendor code reads the same against
/// any of the three. push_back beyond capacity drops the value: a sensor
/// sweep can never overrun the sample, it can only under-report. Brace
/// lists, resize and assign throw std::length_error beyond capacity
/// instead; vendor constructors reject device counts above the ceilings,
/// so the simulator itself never gets there.
template <std::size_t Capacity>
struct FixedWattsVec {
  double data[Capacity] = {};
  std::size_t count = 0;

  FixedWattsVec() = default;
  /// `v = {110, 110}` sets both values and the size. Without this
  /// constructor the struct would be an aggregate and the same braces would
  /// fill `data` while leaving the vector empty.
  FixedWattsVec(std::initializer_list<double> ws) {
    if (ws.size() > Capacity) over_capacity(ws.size());
    for (double w : ws) data[count++] = w;
  }

  static constexpr std::size_t capacity() noexcept { return Capacity; }
  std::size_t size() const noexcept { return count; }
  bool empty() const noexcept { return count == 0; }
  void clear() noexcept { count = 0; }
  void reserve(std::size_t) noexcept {}  // layout is fixed; parity with vector
  void push_back(double w) noexcept {
    if (count < Capacity) data[count++] = w;
  }
  /// Grow (filling with `w`) or shrink to `n` values.
  void resize(std::size_t n, double w = 0.0) {
    if (n > Capacity) over_capacity(n);
    for (std::size_t i = count; i < n; ++i) data[i] = w;
    count = n;
  }
  /// Replace the contents with `n` copies of `w`.
  void assign(std::size_t n, double w) {
    if (n > Capacity) over_capacity(n);
    for (std::size_t i = 0; i < n; ++i) data[i] = w;
    count = n;
  }
  double& operator[](std::size_t i) noexcept { return data[i]; }
  const double& operator[](std::size_t i) const noexcept { return data[i]; }
  double* begin() noexcept { return data; }
  double* end() noexcept { return data + count; }
  const double* begin() const noexcept { return data; }
  const double* end() const noexcept { return data + count; }
  bool operator==(const FixedWattsVec& other) const noexcept {
    if (count != other.count) return false;
    for (std::size_t i = 0; i < count; ++i) {
      if (data[i] != other.data[i]) return false;
    }
    return true;
  }

 private:
  [[noreturn]] static void over_capacity(std::size_t n) {
    throw std::length_error("FixedWattsVec: " + std::to_string(n) +
                            " values exceed capacity " +
                            std::to_string(Capacity));
  }
};

/// Absolute instantaneous power demand of the workload on one node.
/// Values are watts *including* each device's idle floor; an idle node is
/// represented by demands equal to the idle floors (see Node::idle()).
struct LoadDemand {
  FixedWattsVec<kMaxSockets> cpu_w;     ///< per socket
  FixedWattsVec<kMaxGpuSensors> gpu_w;  ///< per GPU (per GCD on AMD)
  double mem_w = 0.0;
  bool operator==(const LoadDemand&) const = default;
};

/// Power actually granted to each domain after applying the active caps.
struct Grants {
  FixedWattsVec<kMaxSockets> cpu_w;
  FixedWattsVec<kMaxGpuSensors> gpu_w;
  double mem_w = 0.0;
  double base_w = 0.0;  ///< uncore/fans/board: constant, never capped

  double gpu_total() const;
  double cpu_total() const;
  double total() const;
};

/// Optional watts reading without std::optional (which is not guaranteed
/// trivially copyable and doubles the storage granularity). Mirrors the
/// slice of the optional interface the stack uses.
struct OptWatts {
  double watts = 0.0;
  bool present = false;

  OptWatts() = default;
  OptWatts(std::nullopt_t) {}
  OptWatts(double w) : watts(w), present(true) {}
  OptWatts& operator=(std::nullopt_t) {
    watts = 0.0;
    present = false;
    return *this;
  }
  OptWatts& operator=(double w) {
    watts = w;
    present = true;
    return *this;
  }
  bool has_value() const noexcept { return present; }
  explicit operator bool() const noexcept { return present; }
  double operator*() const noexcept { return watts; }
  double value_or(double fallback) const noexcept {
    return present ? watts : fallback;
  }
  void reset() noexcept {
    watts = 0.0;
    present = false;
  }
  bool operator==(const OptWatts&) const = default;
};

/// Fixed-capacity hostname. Hostnames in the simulator are short rank-derived
/// strings ("lassen1023"); anything longer is truncated.
struct FixedHostname {
  char data[kMaxHostnameLen + 1] = {};
  unsigned char len = 0;

  FixedHostname() = default;
  FixedHostname(std::string_view s) { assign(s); }
  FixedHostname& operator=(std::string_view s) {
    assign(s);
    return *this;
  }
  void assign(std::string_view s) {
    len = static_cast<unsigned char>(
        s.size() < kMaxHostnameLen ? s.size() : kMaxHostnameLen);
    for (unsigned char i = 0; i < len; ++i) data[i] = s[i];
    data[len] = '\0';
  }
  bool empty() const noexcept { return len == 0; }
  std::size_t size() const noexcept { return len; }
  const char* c_str() const noexcept { return data; }
  std::string_view view() const noexcept { return {data, len}; }
  operator std::string_view() const noexcept { return view(); }
  std::string str() const { return std::string(view()); }
  bool operator==(const FixedHostname& other) const noexcept {
    return view() == other.view();
  }
  bool operator==(std::string_view other) const noexcept {
    return view() == other;
  }
  friend std::ostream& operator<<(std::ostream& os, const FixedHostname& h) {
    return os << h.view();
  }
};

/// One telemetry sample, the vendor-neutral superset. Vendors that lack a
/// sensor leave the corresponding optional empty — exactly how Variorum
/// surfaces missing domains (§II-A: Tioga has no node or memory sensor).
///
/// Flat POD by design: the monitor stores these raw in its circular buffer
/// and ships them through the TBON untouched; JSON is rendered only at the
/// edges (variorum::render_node_power_json).
struct PowerSample {
  double timestamp_s = 0.0;
  FixedHostname hostname;
  OptWatts node_w;           ///< direct node sensor (IBM only)
  OptWatts node_estimate_w;  ///< conservative CPU+GPU sum
  FixedWattsVec<kMaxSockets> cpu_w;     ///< per socket
  OptWatts mem_w;
  FixedWattsVec<kMaxGpuSensors> gpu_w;  ///< per GPU, or per OAM when gpu_is_oam
  bool gpu_is_oam = false;
  /// The sensor sweep returned an error (dead node, dropped-out or stuck
  /// domain). Consumers must treat the power fields as unreliable; the
  /// monitor counts and discards such sweeps instead of buffering them.
  /// Occupies tail padding: sizeof(PowerSample) is unchanged by this flag.
  bool sensor_fault = false;

  /// Best available node power: the direct sensor when present, else the
  /// conservative estimate.
  double best_node_w() const {
    if (node_w) return *node_w;
    return node_estimate_w.value_or(0.0);
  }
};

static_assert(std::is_trivially_copyable_v<PowerSample>,
              "PowerSample is the wire/storage telemetry format and must "
              "stay trivially copyable");

}  // namespace fluxpower::hwsim
