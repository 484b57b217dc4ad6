// Regression tests for the columnar (SoA) sample store: it must reproduce
// util::RingBuffer<PowerSample> semantics exactly — element-for-element,
// across wraparound, late widening and lifetime inheritance —
// and its columns must never desynchronize from the per-slot metadata
// (check_integrity).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hwsim/types.hpp"
#include "monitor/sample_store.hpp"
#include "util/ring_buffer.hpp"

namespace fluxpower::monitor {
namespace {

using hwsim::PowerSample;

// Deterministic sample generator: varied domain presence, counts and
// flags so every column and flag bit is exercised.
struct SampleGen {
  std::uint64_t state;
  double t = 0.0;

  explicit SampleGen(std::uint64_t seed) : state(seed * 2654435761u + 1) {}

  std::uint64_t next() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 17;
  }
  double watts() { return 100.0 + static_cast<double>(next() % 10000) / 13.0; }

  /// At most `max_cpu` sockets and `max_gpu` GPUs.
  PowerSample sample(std::size_t max_cpu = hwsim::kMaxSockets,
                     std::size_t max_gpu = hwsim::kMaxGpuSensors) {
    PowerSample s;
    t += 0.5 + static_cast<double>(next() % 4);  // strictly increasing
    s.timestamp_s = t;
    s.hostname = (next() % 2) == 0 ? "lassen7" : "tioga42";
    if (next() % 3 != 0) s.node_w = watts();
    if (next() % 2 == 0) s.node_estimate_w = watts();
    const std::size_t ncpu = next() % (max_cpu + 1);
    for (std::size_t c = 0; c < ncpu; ++c) s.cpu_w.push_back(watts());
    if (next() % 4 != 0) s.mem_w = watts();
    const std::size_t ngpu = next() % (max_gpu + 1);
    for (std::size_t g = 0; g < ngpu; ++g) s.gpu_w.push_back(watts());
    s.gpu_is_oam = (next() % 2) == 0;
    s.sensor_fault = (next() % 16) == 0;
    return s;
  }

  /// Every socket and GPU a PowerSample can carry.
  PowerSample widest() {
    PowerSample s = sample(0, 0);
    for (std::size_t c = 0; c < hwsim::kMaxSockets; ++c) {
      s.cpu_w.push_back(watts());
    }
    for (std::size_t g = 0; g < hwsim::kMaxGpuSensors; ++g) {
      s.gpu_w.push_back(watts());
    }
    return s;
  }
};

void expect_same_sample(const PowerSample& a, const PowerSample& b) {
  EXPECT_EQ(a.timestamp_s, b.timestamp_s);
  EXPECT_EQ(a.hostname.view(), b.hostname.view());
  EXPECT_EQ(a.node_w, b.node_w);
  EXPECT_EQ(a.node_estimate_w, b.node_estimate_w);
  EXPECT_TRUE(a.cpu_w == b.cpu_w);
  EXPECT_EQ(a.mem_w, b.mem_w);
  EXPECT_TRUE(a.gpu_w == b.gpu_w);
  EXPECT_EQ(a.gpu_is_oam, b.gpu_is_oam);
  EXPECT_EQ(a.sensor_fault, b.sensor_fault);
  EXPECT_EQ(a.best_node_w(), b.best_node_w());
}

/// Push `s` into both, then require the same ledger and an intact store.
void push_both(ColumnarSampleStore& store,
               util::RingBuffer<PowerSample>& reference,
               const PowerSample& s) {
  store.push(s);
  reference.push(s);
  ASSERT_EQ(store.size(), reference.size());
  ASSERT_EQ(store.total_pushed(), reference.total_pushed());
  ASSERT_EQ(store.evicted(), reference.evicted());
  ASSERT_TRUE(store.check_integrity())
      << "capacity " << store.capacity() << " push " << store.total_pushed();
}

void expect_same_contents(const ColumnarSampleStore& store,
                          const util::RingBuffer<PowerSample>& reference) {
  ASSERT_EQ(store.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_same_sample(store.get(i), reference[i]);
    EXPECT_EQ(store.timestamp_at(i), reference[i].timestamp_s);
  }
  expect_same_sample(store.front(), reference.front());
  expect_same_sample(store.back(), reference.back());
}

TEST(ColumnarStore, MatchesRingBufferAcrossWraparound) {
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                     std::size_t{64}, std::size_t{100}}) {
    ColumnarSampleStore store(capacity);
    util::RingBuffer<PowerSample> reference(capacity);
    SampleGen gen(capacity);
    // Wrap several times over.
    for (std::size_t i = 0; i < capacity * 4 + 3; ++i) {
      ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.sample()));
    }
    expect_same_contents(store, reference);
  }

  // Late widening: Lassen-width samples past the first wrap, then one with
  // every socket and GPU (the store re-lays out with its ring wrapped),
  // then narrow samples again.
  ColumnarSampleStore store(8);
  util::RingBuffer<PowerSample> reference(8);
  SampleGen gen(11);
  for (int i = 0; i < 11; ++i) {
    ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.sample(2, 4)));
  }
  ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.widest()));
  for (int i = 0; i < 3; ++i) {
    ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.sample(2, 4)));
  }
  expect_same_contents(store, reference);
  for (int i = 0; i < 12; ++i) {
    ASSERT_NO_FATAL_FAILURE(push_both(store, reference, gen.sample(2, 4)));
  }
  expect_same_contents(store, reference);
}

TEST(ColumnarStore, LedgerIdentityAcrossClearAndInherit) {
  ColumnarSampleStore store(8);
  SampleGen gen(99);
  for (int i = 0; i < 20; ++i) store.push(gen.sample());
  EXPECT_EQ(store.total_pushed(), 20u);
  EXPECT_EQ(store.evicted(), 12u);

  // A set-config buffer swap clears the retained samples: the replacement
  // store inherits the predecessor's lifetime, exactly like
  // RingBuffer::inherit_lifetime, so every sample it never held counts as
  // evicted.
  ColumnarSampleStore replacement(4);
  replacement.inherit_lifetime(store.total_pushed());
  EXPECT_EQ(replacement.size(), 0u);
  EXPECT_EQ(replacement.evicted(), 20u);
  EXPECT_TRUE(replacement.check_integrity());
  for (int i = 0; i < 6; ++i) replacement.push(gen.sample());
  EXPECT_EQ(replacement.total_pushed(), 26u);
  EXPECT_EQ(replacement.size(), 4u);
  EXPECT_EQ(replacement.evicted(), 22u);
  EXPECT_TRUE(replacement.check_integrity());
}

TEST(ColumnarStore, WindowRangeMatchesLinearScan) {
  ColumnarSampleStore store(50);
  util::RingBuffer<PowerSample> reference(50);
  SampleGen gen(7);
  for (int i = 0; i < 130; ++i) {
    const PowerSample s = gen.sample();
    store.push(s);
    reference.push(s);
  }
  for (const auto [start, end] :
       {std::pair{0.0, 1e9}, std::pair{120.0, 200.0}, std::pair{0.0, 50.0},
        std::pair{200.0, 150.0}, std::pair{171.0, 171.0}}) {
    const auto [lo, hi] = store.window_range(start, end);
    std::vector<std::size_t> expect;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      if (reference[i].timestamp_s >= start && reference[i].timestamp_s <= end) {
        expect.push_back(i);
      }
    }
    ASSERT_EQ(hi - lo, expect.size()) << "window [" << start << "," << end
                                      << "]";
    for (std::size_t k = 0; k < expect.size(); ++k) {
      EXPECT_EQ(lo + k, expect[k]);
    }
  }
}

TEST(ColumnarStore, ZeroCapacityThrows) {
  EXPECT_THROW(ColumnarSampleStore(0), std::invalid_argument);
}

}  // namespace
}  // namespace fluxpower::monitor
