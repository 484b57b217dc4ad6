#include "obs/metrics.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace fluxpower::obs {

namespace {

/// Render a double the way Prometheus text exposition expects: integral
/// values without a fractional part ("42"), everything else with enough
/// digits to round-trip visually ("0.0625"). %.9g keeps sim-time-derived
/// values byte-stable without trailing-zero noise.
void append_number(std::string& out, double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  out += buf;
}

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// One distinct (name, kind, help, bounds), interned once per process and
/// never freed: registries and at-exit dumps hold it by pointer.
struct MetricSchema {
  std::string_view name;  ///< the schema table's copy
  std::uint32_t name_id;
  MetricKind kind;
  std::string help;
  std::vector<double> bounds;     ///< histograms only
  const MetricSchema* same_name;  ///< interned earlier under the same name
};

template <class T>
constexpr MetricKind kKindOf = std::is_same_v<T, Counter> ? MetricKind::Counter
                               : std::is_same_v<T, Gauge>
                                   ? MetricKind::Gauge
                                   : MetricKind::Histogram;

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "histogram";
}

void check_bounds(std::span<const double> bounds) {
  if (bounds.size() > Histogram::kMaxBuckets) {
    throw std::invalid_argument("Histogram: too many buckets");
  }
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (!(bounds[i] > bounds[i - 1])) {
      throw std::invalid_argument("Histogram: bounds must be ascending");
    }
  }
}

struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// The process-wide schema table. Island worker threads (building
/// `power.metrics` aggregates inside windows) and TwinServer workers
/// register concurrently, so every access holds `mutex`; a schema, once
/// interned, is immutable and read without it.
struct SchemaTable {
  struct Name {
    std::uint32_t id;
    const MetricSchema* newest;  ///< head of this name's schema chain
  };

  std::mutex mutex;
  std::unordered_map<std::string, Name, NameHash, std::equal_to<>> names;
  std::deque<MetricSchema> schemas;  ///< push_back never moves one

  std::optional<std::uint32_t> find_id(std::string_view name) const {
    const auto it = names.find(name);
    if (it == names.end()) return std::nullopt;
    return it->second.id;
  }

  const MetricSchema* intern(std::string_view name, MetricKind kind,
                             std::string_view help,
                             std::span<const double> bounds) {
    auto it = names.find(name);
    if (it == names.end()) {
      const auto id = static_cast<std::uint32_t>(names.size());
      it = names.emplace(std::string(name), Name{id, nullptr}).first;
    }
    Name& entry = it->second;
    for (const MetricSchema* s = entry.newest; s != nullptr; s = s->same_name) {
      // Bounds compare bit for bit, so -0.0 and 0.0 stay distinct.
      if (s->kind == kind && s->help == help &&
          s->bounds.size() == bounds.size() &&
          (bounds.empty() ||
           std::memcmp(s->bounds.data(), bounds.data(),
                       bounds.size() * sizeof(double)) == 0)) {
        return s;
      }
    }
    schemas.push_back({it->first, entry.id, kind, std::string(help),
                       {bounds.begin(), bounds.end()}, entry.newest});
    entry.newest = &schemas.back();
    return entry.newest;
  }
};

/// Leaked on purpose, so it outlives every registry with static storage.
SchemaTable& schema_table() {
  static SchemaTable* const table = new SchemaTable;
  return *table;
}

}  // namespace

struct MetricsRegistry::Slot {
  const MetricSchema* schema;
  Slot* next;
};

template <class T>
struct MetricsRegistry::Typed : Slot {
  T value;
};

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.data()), nbounds_(bounds.size()) {
  check_bounds(bounds);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= nbounds_; ++i) counts_[i] = 0;
  count_ = 0;
  sum_ = 0.0;
}

MetricsRegistry::~MetricsRegistry() {
  for (Slot* s = head_; s != nullptr;) {
    Slot* next = s->next;
    switch (s->schema->kind) {
      case MetricKind::Counter: delete static_cast<Typed<Counter>*>(s); break;
      case MetricKind::Gauge: delete static_cast<Typed<Gauge>*>(s); break;
      case MetricKind::Histogram:
        delete static_cast<Typed<Histogram>*>(s);
        break;
    }
    s = next;
  }
}

MetricsRegistry::Slot* MetricsRegistry::find(
    std::uint32_t name_id) const noexcept {
  for (Slot* s = head_; s != nullptr; s = s->next) {
    if (s->schema->name_id == name_id) return s;
  }
  return nullptr;
}

template <class T>
T& MetricsRegistry::get_or_create(std::string_view name,
                                  std::string_view help,
                                  std::span<const double> bounds) {
  constexpr MetricKind kind = kKindOf<T>;
  const MetricSchema* schema = nullptr;
  {
    SchemaTable& table = schema_table();
    std::lock_guard lock(table.mutex);
    if (const auto id = table.find_id(name)) {
      if (Slot* s = find(*id)) {
        if (s->schema->kind != kind) {
          throw std::logic_error("MetricsRegistry: metric '" +
                                 std::string(name) +
                                 "' re-registered with a different kind");
        }
        return static_cast<Typed<T>*>(s)->value;
      }
    }
    if constexpr (kind == MetricKind::Histogram) check_bounds(bounds);
    schema = table.intern(name, kind, help, bounds);
  }
  auto* slot = new Typed<T>{{schema, nullptr}, {}};
  if constexpr (kind == MetricKind::Histogram) {
    slot->value = Histogram(schema->bounds);
  }
  (tail_ != nullptr ? tail_->next : head_) = slot;
  tail_ = slot;
  ++size_;
  return slot->value;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  return get_or_create<Counter>(name, help, {});
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  return get_or_create<Gauge>(name, help, {});
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::span<const double> bounds) {
  return get_or_create<Histogram>(name, help, bounds);
}

std::optional<double> MetricsRegistry::value(std::string_view name) const {
  std::optional<std::uint32_t> id;
  {
    SchemaTable& table = schema_table();
    std::lock_guard lock(table.mutex);
    id = table.find_id(name);
  }
  const Slot* s = id ? find(*id) : nullptr;
  if (s == nullptr) return std::nullopt;
  switch (s->schema->kind) {
    case MetricKind::Counter:
      return static_cast<double>(
          static_cast<const Typed<Counter>*>(s)->value.value());
    case MetricKind::Gauge:
      return static_cast<const Typed<Gauge>*>(s)->value.value();
    case MetricKind::Histogram:
      return std::nullopt;
  }
  return std::nullopt;
}

std::string MetricsRegistry::expose_text(const std::string& labels) const {
  std::string out;
  out.reserve(size_ * 96);
  const std::string plain = labels.empty() ? "" : "{" + labels + "}";
  for (const Slot* s = head_; s != nullptr; s = s->next) {
    const MetricSchema& m = *s->schema;
    out += "# HELP ";
    out += m.name;
    out += ' ';
    out += m.help;
    out += "\n# TYPE ";
    out += m.name;
    out += ' ';
    out += kind_name(m.kind);
    out += '\n';
    switch (m.kind) {
      case MetricKind::Counter: {
        out += m.name;
        out += plain;
        out += ' ';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64,
                      static_cast<const Typed<Counter>*>(s)->value.value());
        out += buf;
        out += '\n';
        break;
      }
      case MetricKind::Gauge: {
        out += m.name;
        out += plain;
        out += ' ';
        append_number(out, static_cast<const Typed<Gauge>*>(s)->value.value());
        out += '\n';
        break;
      }
      case MetricKind::Histogram: {
        const Histogram& h = static_cast<const Typed<Histogram>*>(s)->value;
        // Cumulative _bucket series, then _sum and _count, per the
        // Prometheus text format.
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i <= h.bucket_count(); ++i) {
          cum += h.count_in(i);
          out += m.name;
          out += "_bucket{";
          if (!labels.empty()) {
            out += labels;
            out += ',';
          }
          out += "le=\"";
          if (i < h.bucket_count()) {
            append_number(out, h.bound(i));
          } else {
            out += "+Inf";
          }
          out += "\"} ";
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%" PRIu64, cum);
          out += buf;
          out += '\n';
        }
        out += m.name;
        out += "_sum";
        out += plain;
        out += ' ';
        append_number(out, h.sum());
        out += '\n';
        out += m.name;
        out += "_count";
        out += plain;
        out += ' ';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, h.count());
        out += buf;
        out += '\n';
        break;
      }
    }
  }
  return out;
}

util::Json MetricsRegistry::to_json() const {
  util::Json arr = util::Json::array();
  for (const Slot* s = head_; s != nullptr; s = s->next) {
    const MetricSchema& m = *s->schema;
    util::Json obj = util::Json::object();
    obj["name"] = std::string(m.name);
    obj["type"] = kind_name(m.kind);
    obj["help"] = m.help;
    switch (m.kind) {
      case MetricKind::Counter:
        obj["value"] = static_cast<const Typed<Counter>*>(s)->value.value();
        break;
      case MetricKind::Gauge:
        obj["value"] = static_cast<const Typed<Gauge>*>(s)->value.value();
        break;
      case MetricKind::Histogram: {
        const Histogram& h = static_cast<const Typed<Histogram>*>(s)->value;
        util::Json bounds = util::Json::array();
        util::Json counts = util::Json::array();
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          bounds.push_back(h.bound(i));
        }
        for (std::size_t i = 0; i <= h.bucket_count(); ++i) {
          counts.push_back(h.count_in(i));
        }
        obj["bounds"] = std::move(bounds);
        obj["counts"] = std::move(counts);
        obj["sum"] = h.sum();
        obj["count"] = h.count();
        break;
      }
    }
    arr.push_back(std::move(obj));
  }
  return arr;
}

void MetricsRegistry::merge_json(const util::Json& metrics_array) {
  for (const util::Json& obj : metrics_array.as_array()) {
    const std::string& name = obj.at("name").as_string();
    const std::string& type = obj.at("type").as_string();
    const std::string help = obj.string_or("help", "");
    if (type == "counter") {
      counter(name, help).inc(
          static_cast<std::uint64_t>(obj.at("value").as_int()));
    } else if (type == "gauge") {
      gauge(name, help).add(obj.at("value").as_double());
    } else if (type == "histogram") {
      const util::JsonArray& bounds = obj.at("bounds").as_array();
      const util::JsonArray& counts = obj.at("counts").as_array();
      std::vector<double> bvec;
      bvec.reserve(bounds.size());
      for (const util::Json& b : bounds) bvec.push_back(b.as_double());
      Histogram& h = histogram(name, help, bvec);
      if (h.bucket_count() != bvec.size()) {
        throw std::logic_error("MetricsRegistry::merge_json: histogram '" +
                               name + "' bucket-count mismatch");
      }
      for (std::size_t i = 0; i < bvec.size(); ++i) {
        if (h.bound(i) != bvec[i]) {
          throw std::logic_error("MetricsRegistry::merge_json: histogram '" +
                                 name + "' bound mismatch");
        }
      }
      if (counts.size() != bvec.size() + 1) {
        throw std::logic_error("MetricsRegistry::merge_json: histogram '" +
                               name + "' counts length mismatch");
      }
      for (std::size_t i = 0; i < counts.size(); ++i) {
        h.counts_[i] += static_cast<std::uint64_t>(counts[i].as_int());
      }
      h.count_ += static_cast<std::uint64_t>(obj.at("count").as_int());
      h.sum_ += obj.at("sum").as_double();
    } else {
      throw std::logic_error("MetricsRegistry::merge_json: unknown type '" +
                             type + "'");
    }
  }
}

std::size_t interned_schema_count() {
  SchemaTable& table = schema_table();
  std::lock_guard lock(table.mutex);
  return table.schemas.size();
}

MetricsRegistry& process_registry() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace fluxpower::obs
