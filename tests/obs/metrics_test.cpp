// Tests for obs/metrics: registry semantics, exposition bytes, TBON merge.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace fluxpower::obs {
namespace {

TEST(Counter, IncAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Histogram, BucketsObservationsAtUpperBound) {
  const std::array<double, 3> bounds{1.0, 2.0, 5.0};
  Histogram h(bounds);
  h.observe(0.5);  // le=1
  h.observe(1.0);  // le=1 (bound is inclusive)
  h.observe(1.5);  // le=2
  h.observe(9.0);  // +Inf
  EXPECT_EQ(h.bucket_count(), 3u);
  EXPECT_EQ(h.count_in(0), 2u);
  EXPECT_EQ(h.count_in(1), 1u);
  EXPECT_EQ(h.count_in(2), 0u);
  EXPECT_EQ(h.count_in(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
}

TEST(Histogram, RejectsBadBounds) {
  const std::array<double, 2> descending{2.0, 1.0};
  EXPECT_THROW(Histogram{std::span<const double>(descending)},
               std::invalid_argument);
  const std::vector<double> too_many(Histogram::kMaxBuckets + 1, 1.0);
  EXPECT_THROW(Histogram{std::span<const double>(too_many)},
               std::invalid_argument);
}

TEST(Registry, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry reg;
  Counter& a = reg.counter("fluxpower_test_total", "help");
  Counter& b = reg.counter("fluxpower_test_total", "help");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(reg.size(), 1u);
}

// A kind clash throws only inside one registry; schemas are shared, kinds
// are per registry.
TEST(Registry, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("fluxpower_test_total", "help").inc(4);
  EXPECT_THROW(reg.gauge("fluxpower_test_total", "help"), std::logic_error);
  MetricsRegistry other;
  EXPECT_NO_THROW(other.gauge("fluxpower_test_total", "help").set(0.5));
  EXPECT_EQ(reg.value("fluxpower_test_total"), 4.0);
  EXPECT_EQ(other.value("fluxpower_test_total"), 0.5);
  EXPECT_NE(other.expose_text().find("# TYPE fluxpower_test_total gauge\n"),
            std::string::npos);
}

TEST(Registry, ValueLookup) {
  MetricsRegistry reg;
  reg.counter("c", "h").inc(3);
  reg.gauge("g", "h").set(1.5);
  const std::array<double, 1> bounds{1.0};
  reg.histogram("h", "h", bounds);
  EXPECT_EQ(reg.value("c"), 3.0);
  EXPECT_EQ(reg.value("g"), 1.5);
  EXPECT_FALSE(reg.value("h").has_value());   // histograms are not scalars
  // Looking up a name no registry ever registered interns nothing.
  const std::size_t schemas = interned_schema_count();
  EXPECT_FALSE(reg.value("nope").has_value());
  EXPECT_FALSE(reg.value("fluxpower_never_registered_anywhere").has_value());
  EXPECT_EQ(interned_schema_count(), schemas);
  // Registering an interned schema in another registry reuses it.
  MetricsRegistry other;
  other.counter("c", "h");
  EXPECT_EQ(interned_schema_count(), schemas);
}

// Golden exposition: exact bytes, registration order, cumulative buckets.
TEST(Registry, GoldenExposition) {
  MetricsRegistry reg;
  reg.counter("fluxpower_x_events_total", "Events seen").inc(7);
  reg.gauge("fluxpower_x_fill_ratio", "Buffer fill").set(0.25);
  const std::array<double, 2> bounds{0.001, 0.01};
  Histogram& h = reg.histogram("fluxpower_x_latency_seconds", "Latency",
                               bounds);
  h.observe(0.0005);
  h.observe(0.002);
  h.observe(5.0);
  const std::string expected =
      "# HELP fluxpower_x_events_total Events seen\n"
      "# TYPE fluxpower_x_events_total counter\n"
      "fluxpower_x_events_total 7\n"
      "# HELP fluxpower_x_fill_ratio Buffer fill\n"
      "# TYPE fluxpower_x_fill_ratio gauge\n"
      "fluxpower_x_fill_ratio 0.25\n"
      "# HELP fluxpower_x_latency_seconds Latency\n"
      "# TYPE fluxpower_x_latency_seconds histogram\n"
      "fluxpower_x_latency_seconds_bucket{le=\"0.001\"} 1\n"
      "fluxpower_x_latency_seconds_bucket{le=\"0.01\"} 2\n"
      "fluxpower_x_latency_seconds_bucket{le=\"+Inf\"} 3\n"
      "fluxpower_x_latency_seconds_sum 5.0025\n"
      "fluxpower_x_latency_seconds_count 3\n";
  EXPECT_EQ(reg.expose_text(), expected);
}

TEST(Registry, ExpositionSplicesLabels) {
  MetricsRegistry reg;
  reg.counter("fluxpower_x_total", "h").inc(1);
  const std::string text = reg.expose_text("host=\"lassen0\"");
  EXPECT_NE(text.find("fluxpower_x_total{host=\"lassen0\"} 1\n"),
            std::string::npos);
}

TEST(Registry, MergeJsonSumsEverything) {
  const std::array<double, 2> bounds{1.0, 2.0};
  MetricsRegistry a;
  a.counter("c", "h").inc(3);
  a.gauge("g", "h").set(0.5);
  Histogram& ha = a.histogram("hist", "h", bounds);
  ha.observe(0.5);
  ha.observe(10.0);

  MetricsRegistry agg;
  agg.merge_json(a.to_json());
  agg.merge_json(a.to_json());  // merge twice: everything doubles
  EXPECT_EQ(agg.value("c"), 6.0);
  EXPECT_EQ(agg.value("g"), 1.0);
  // The merged registry's exposition equals a registry holding the sums.
  MetricsRegistry expected;
  expected.counter("c", "h").inc(6);
  expected.gauge("g", "h").set(1.0);
  Histogram& he = expected.histogram("hist", "h", bounds);
  he.observe(0.5);
  he.observe(0.5);
  he.observe(10.0);
  he.observe(10.0);
  EXPECT_EQ(agg.expose_text(), expected.expose_text());
}

TEST(Registry, MergeJsonRejectsBoundMismatch) {
  const std::array<double, 2> bounds_a{1.0, 2.0};
  const std::array<double, 2> bounds_b{1.0, 3.0};
  MetricsRegistry a, b;
  a.histogram("hist", "h", bounds_a);
  b.histogram("hist", "h", bounds_b);
  MetricsRegistry agg;
  agg.merge_json(a.to_json());
  EXPECT_THROW(agg.merge_json(b.to_json()), std::logic_error);
}

// Large and fractional values survive the JSON trip exactly enough for
// counters (integral) and render without scientific noise in exposition.
TEST(Registry, NumberFormatting) {
  MetricsRegistry reg;
  reg.counter("big_total", "h").inc(1234567890123ull);
  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("big_total 1234567890123\n"), std::string::npos);
}

// The schema table is shared, but each registry's first registration of a
// name fixes that registry's help and bounds.
TEST(Registry, SameNameWithOtherHelpOrBoundsKeepsEachRegistrysOwn) {
  const std::array<double, 2> bounds_a{1.0, 2.0};
  const std::array<double, 3> bounds_b{0.5, 1.0, 4.0};
  MetricsRegistry a, b;
  a.counter("fluxpower_schema_test_total", "help A").inc(1);
  b.counter("fluxpower_schema_test_total", "help B").inc(2);
  a.histogram("fluxpower_schema_test_seconds", "h", bounds_a).observe(1.5);
  b.histogram("fluxpower_schema_test_seconds", "h", bounds_b).observe(1.5);
  // A registry's later registrations keep its first help and bounds.
  a.counter("fluxpower_schema_test_total", "help B");
  b.histogram("fluxpower_schema_test_seconds", "h", bounds_a);

  MetricsRegistry expected_a;
  expected_a.counter("fluxpower_schema_test_total", "help A").inc(1);
  expected_a.histogram("fluxpower_schema_test_seconds", "h", bounds_a)
      .observe(1.5);
  EXPECT_EQ(a.expose_text(), expected_a.expose_text());
  const std::string text_b = b.expose_text();
  EXPECT_NE(text_b.find("# HELP fluxpower_schema_test_total help B\n"),
            std::string::npos);
  EXPECT_NE(text_b.find("fluxpower_schema_test_total 2\n"), std::string::npos);
  EXPECT_NE(text_b.find("_bucket{le=\"0.5\"} 0\n"), std::string::npos);
  EXPECT_NE(text_b.find("_bucket{le=\"4\"} 1\n"), std::string::npos);
  EXPECT_EQ(text_b.find("le=\"2\""), std::string::npos);
}

TEST(Registry, HandlesStayValidAsTheRegistryGrows) {
  MetricsRegistry reg;
  Counter& first = reg.counter("fluxpower_grow_first_total", "h");
  first.inc(5);
  for (int i = 0; i < 200; ++i) {
    reg.gauge("fluxpower_grow_" + std::to_string(i), "h").set(i);
  }
  EXPECT_EQ(&reg.counter("fluxpower_grow_first_total", "h"), &first);
  EXPECT_EQ(first.value(), 5u);
  EXPECT_EQ(reg.value("fluxpower_grow_199"), 199.0);
  EXPECT_EQ(reg.size(), 201u);
}

// Registries built on several threads at once intern their schemas in the
// shared table concurrently; each must still expose exactly what a registry
// built alone does.
TEST(Registry, ConcurrentIdenticalRegistriesExposeIdenticalBytes) {
  constexpr int kThreads = 8;
  const std::array<double, 3> bounds{0.1, 1.0, 10.0};
  auto build = [&bounds](MetricsRegistry& reg) {
    for (int i = 0; i < 64; ++i) {
      const std::string stem = "fluxpower_concurrent_" + std::to_string(i);
      reg.counter(stem + "_total", "Concurrent counter").inc(i);
      reg.gauge(stem + "_ratio", "Concurrent gauge").set(0.25 * i);
      reg.histogram(stem + "_seconds", "Concurrent histogram", bounds)
          .observe(0.5 * i);
    }
  };
  std::vector<std::string> texts(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      MetricsRegistry reg;
      build(reg);
      texts[t] = reg.expose_text();
    });
  }
  for (std::thread& th : threads) th.join();
  MetricsRegistry alone;
  build(alone);
  for (const std::string& text : texts) EXPECT_EQ(text, alone.expose_text());
}

}  // namespace
}  // namespace fluxpower::obs
