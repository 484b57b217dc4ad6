// Per-broker heap of a metrics registry: the names, help strings and bounds
// live once per process in the shared schema table, so a broker's registry
// holds only its values. At 65,536 brokers every byte here is multiplied by
// the site size.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <vector>

#include "counting_allocator.hpp"
#include "experiments/scenario.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace fluxpower::obs {
namespace {

/// Register every instrument of `metrics` (a to_json() array) into `reg`
/// with its name, kind, help and bounds, as the owning modules do.
void register_all(const util::Json& metrics, MetricsRegistry& reg) {
  for (const util::Json& m : metrics.as_array()) {
    const std::string& name = m.at("name").as_string();
    const std::string& type = m.at("type").as_string();
    const std::string& help = m.at("help").as_string();
    if (type == "counter") {
      reg.counter(name, help);
    } else if (type == "gauge") {
      reg.gauge(name, help);
    } else {
      std::vector<double> bounds;
      for (const util::Json& b : m.at("bounds").as_array()) {
        bounds.push_back(b.as_double());
      }
      reg.histogram(name, help, bounds);
    }
  }
}

/// The instruments of a non-root broker with the power monitor loaded:
/// the broker's 6 and the monitor's 10.
util::Json broker_and_monitor_instruments() {
  experiments::ScenarioConfig cfg;
  cfg.nodes = 2;
  cfg.load_monitor = true;
  cfg.load_manager = false;
  experiments::Scenario scenario(cfg);
  return scenario.instance().broker(1).metrics().to_json();
}

TEST(RegistryHeap, BrokerAndMonitorInstrumentsFitInTwoKilobytes) {
  const util::Json instruments = broker_and_monitor_instruments();
  ASSERT_EQ(instruments.as_array().size(), 16u);
  MetricsRegistry warm_up;
  register_all(instruments, warm_up);
  const std::size_t schemas = interned_schema_count();

  const std::int64_t before = test::heap_live_bytes();
  std::int64_t held = 0;
  {
    MetricsRegistry reg;
    register_all(instruments, reg);
    held = test::heap_live_bytes() - before;
    EXPECT_EQ(reg.size(), 16u);
    EXPECT_EQ(reg.to_json().dump(), warm_up.to_json().dump());
  }
  EXPECT_EQ(test::heap_live_bytes(), before)
      << "a destroyed registry returns its heap";
  EXPECT_LE(held, 2048) << "live heap of one broker's registry";
  EXPECT_EQ(interned_schema_count(), schemas)
      << "a schema is interned once per process, not once per registry";
  RecordProperty("live_bytes", static_cast<int>(held));
}

TEST(RegistryHeap, LookupsAllocateNothing) {
  MetricsRegistry reg;
  Counter& c = reg.counter("fluxpower_heap_test_total", "help");
  c.inc(2);
  const std::uint64_t before = test::heap_allocations();
  const auto known = reg.value("fluxpower_heap_test_total");
  const auto unknown = reg.value("fluxpower_heap_test_never_registered");
  Counter& again = reg.counter("fluxpower_heap_test_total", "help");
  const std::uint64_t after = test::heap_allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(known, 2.0);
  EXPECT_FALSE(unknown.has_value());
  EXPECT_EQ(&again, &c);
}

// The live-bytes gate sees array allocations too: a sanitizer runtime's own
// operator new[] would otherwise bypass the counter.
TEST(RegistryHeap, CounterSeesArrayNew) {
  const std::int64_t before = test::heap_live_bytes();
  void* block = ::operator new[](256);
  const std::int64_t held = test::heap_live_bytes() - before;
  ::operator delete[](block);
  EXPECT_GE(held, 256);
  EXPECT_EQ(test::heap_live_bytes(), before);
}

}  // namespace
}  // namespace fluxpower::obs
