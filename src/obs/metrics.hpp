// metrics.hpp — metrics registries (observability plane).
//
// The paper's production story depends on operators *seeing* job power
// behaviour: per-job telemetry, cap actions, degradation under faults. This
// registry is the one place every layer deposits its counters so the whole
// stack exposes a single, coherent Prometheus-style surface:
//
//   * Counter    — monotonically increasing u64 (events, retries, faults).
//   * Gauge      — instantaneous double (buffer fill, queue depth).
//   * Histogram  — fixed-bucket distribution (latency, batch sizes).
//
// Design constraints (see DESIGN.md, "Observability plane"):
//   * Stable registration order: exposition renders metrics in the order
//     they were first registered, so output is byte-stable across runs.
//   * O(1) hot-path updates with zero heap allocations: callers hold a
//     Counter*/Gauge*/Histogram* obtained once at registration; inc/set/
//     observe touch only plain members. Name lookup happens at registration
//     time only, never on the update path.
//   * Mergeable: to_json()/merge_json() let per-broker registries be summed
//     hop by hop over the TBON (the `power.metrics` RPC), with the invariant
//     that the aggregate equals the per-node registry sums exactly.
//   * Shared schema: every broker registers the same instruments, so each
//     distinct (name, kind, help, bounds) is interned once per process in a
//     locked schema table that is never freed. A registry holds only its
//     registration order and its values, one heap slot per instrument.
//
// Naming convention: fluxpower_<module>_<name>_<unit>, e.g.
// fluxpower_monitor_samples_total, fluxpower_broker_rpc_latency_seconds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace fluxpower::obs {

/// Monotonic event counter. Updates are a single add; reset() exists only
/// for module reload (a fresh module instance starts a fresh ledger, which
/// is what the pre-registry per-module counters did).
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Instantaneous value. Aggregation over nodes sums gauges (documented:
/// cluster-level gauges are totals, e.g. total retained samples).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double d) noexcept { value_ += d; }
  double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: at most kMaxBuckets finite upper bounds plus an
/// implicit +Inf bucket. observe() is a short linear scan over the bounds
/// into inline counts — no allocation, no resize, suitable for per-message
/// hot paths.
class Histogram {
 public:
  static constexpr std::size_t kMaxBuckets = 16;

  Histogram() = default;
  /// Bounds must be strictly ascending; at most kMaxBuckets of them. They
  /// are read in place, so they must outlive the histogram (a registry's
  /// histograms read their interned schema's copy).
  explicit Histogram(std::span<const double> bounds);

  /// Count `v` in the first bucket with v <= bound (or +Inf).
  void observe(double v) noexcept {
    std::size_t i = 0;
    while (i < nbounds_ && v > bounds_[i]) ++i;
    ++counts_[i];
    sum_ += v;
    ++count_;
  }

  std::size_t bucket_count() const noexcept { return nbounds_; }
  double bound(std::size_t i) const noexcept { return bounds_[i]; }
  /// Non-cumulative count of bucket i; i == bucket_count() is +Inf.
  std::uint64_t count_in(std::size_t i) const noexcept { return counts_[i]; }
  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  void reset() noexcept;

 private:
  friend class MetricsRegistry;
  const double* bounds_ = nullptr;
  std::size_t nbounds_ = 0;
  std::uint64_t counts_[kMaxBuckets + 1] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// A registry of named metrics. One per broker (per-node scope) plus one
/// process-wide instance (engine/bench scope). Registration is get-or-create
/// by name; registering an existing name with a different kind throws. A
/// registry's first registration of a name fixes its help and bounds; other
/// registries may register the same name with other help, bounds or kind.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view help);
  Gauge& gauge(std::string_view name, std::string_view help);
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::span<const double> bounds);

  std::size_t size() const noexcept { return size_; }

  /// Scalar value of a counter or gauge (nullopt if absent or a histogram).
  std::optional<double> value(std::string_view name) const;

  /// Prometheus text exposition in registration order. `labels`, when
  /// non-empty, is spliced into every sample's label set verbatim (e.g.
  /// `host="lassen0",rank="3"`).
  std::string expose_text(const std::string& labels = {}) const;

  /// JSON form for RPC transport: an array of metric objects
  ///   {"name","type","help","value"} or
  ///   {"name","type","help","bounds":[],"counts":[],"sum","count"}.
  util::Json to_json() const;

  /// Add another registry's to_json() output into this one: counters and
  /// gauges sum, histograms add per-bucket counts (bounds must match).
  /// Unknown metrics are registered on first sight, preserving the donor's
  /// order — so merging the same sequence of registries always produces the
  /// same exposition bytes.
  void merge_json(const util::Json& metrics_array);

 private:
  /// One instrument: its interned schema, the next instrument in
  /// registration order, then its value (Typed<Counter|Gauge|Histogram>).
  /// Each slot is its own heap block, so handles never move.
  struct Slot;
  template <class T>
  struct Typed;

  template <class T>
  T& get_or_create(std::string_view name, std::string_view help,
                   std::span<const double> bounds);
  Slot* find(std::uint32_t name_id) const noexcept;

  Slot* head_ = nullptr;
  Slot* tail_ = nullptr;
  std::size_t size_ = 0;
};

/// Distinct (name, kind, help, bounds) schemas interned so far in this
/// process. Lookups never intern; only a registration of a schema no
/// registry has registered before grows the table.
std::size_t interned_schema_count();

/// The process-wide registry: scope for anything that is not per-broker —
/// the (shared) discrete-event engine, bench-runner bookkeeping.
MetricsRegistry& process_registry();

}  // namespace fluxpower::obs
