// Twin state-encoding unit tests: primitive encodings (including NaN
// payloads and signed zeros) read back by a test-local reader, and digest
// sensitivity: state that once had no section coverage (timer-wheel
// epoch/rebase counters, interned hostnames via sample content, pending
// stolen time, FPP control rotation) must move the state digest when it
// changes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "twin/fork.hpp"
#include "twin/snapshot.hpp"

namespace fluxpower::twin {
namespace {

/// Little-endian reader over ByteWriter output. The program only writes
/// sections; these tests read a few fields back by position.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  bool boolean() { return u8() == 1; }
  std::uint32_t u32() { return static_cast<std::uint32_t>(little_endian(4)); }
  std::uint64_t u64() { return little_endian(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const auto b = take(u32());
    return std::string(b.begin(), b.end());
  }
  std::span<const std::uint8_t> raw(std::size_t n) { return take(n); }
  bool done() const noexcept { return pos_ == bytes_.size(); }

 private:
  std::uint64_t little_endian(std::size_t n) {
    const auto b = take(n);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    }
    return v;
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > bytes_.size() - pos_) throw std::out_of_range("Reader: truncated");
    const auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

TEST(TwinCodec, PrimitiveRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.boolean(true);
  w.boolean(false);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(3.141592653589793);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(std::numeric_limits<double>::infinity());
  w.str("hello, twin");
  w.str("");

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_EQ(r.str(), "hello, twin");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(TwinCodec, DigestIsStableAndOrderSensitive) {
  ByteWriter a;
  a.u64(1);
  a.u64(2);
  ByteWriter b;
  b.u64(2);
  b.u64(1);
  EXPECT_NE(Digest64::of(a.data()), Digest64::of(b.data()));
  EXPECT_EQ(Digest64::of(a.data()), Digest64::of(a.data()));
}

TwinSpec small_spec(bool with_faults) {
  TwinSpec spec;
  spec.scenario.nodes = 3;
  spec.scenario.load_manager = true;
  spec.scenario.manager.cluster_power_bound_w = 3600.0;
  spec.scenario.manager.node_policy = manager::NodePolicy::Fpp;
  spec.scenario.manager.fpp.stagger_probes = true;
  spec.scenario.monitor = monitor::PowerMonitorConfig::for_lassen();
  if (with_faults) {
    faultsim::FaultPlaneConfig f;
    f.seed = 99;
    f.cap_write_failure_rate = 0.1;
    spec.scenario.faults = f;
  }
  experiments::JobRequest job;
  job.kind = apps::AppKind::Quicksilver;
  job.nnodes = 2;
  // ~500 s of runtime: the sensitivity probes below capture up to t=400 and
  // need the workload (and its control loops) still live at every instant.
  job.work_scale = 40.0;
  spec.jobs.push_back(job);
  spec.max_time_s = 900.0;
  return spec;
}

// ---------------------------------------------------------------------------
// Digest sensitivity: every piece of state below once had no section
// coverage; each case mutates exactly that state and requires the
// fingerprint to move.

TEST(DigestSensitivity, PendingStolenTimeIsCovered) {
  TwinSession session(small_spec(false));
  session.advance_to(20.0);
  const std::uint64_t before = capture_state(session.scenario()).digest();
  session.scenario().cluster().node(1).add_stolen_time(1e-3);
  const std::uint64_t after = capture_state(session.scenario()).digest();
  EXPECT_NE(before, after);
}

TEST(DigestSensitivity, SensorRngSubstreamIsCovered) {
  TwinSession session(small_spec(false));
  session.advance_to(20.0);
  const std::uint64_t before = capture_state(session.scenario()).digest();
  // Consuming one deviate moves the substream position and nothing else.
  session.scenario().cluster().node(2).sample();
  const std::uint64_t after = capture_state(session.scenario()).digest();
  EXPECT_NE(before, after);
}

TEST(DigestSensitivity, WheelEpochRebaseCounterIsCovered) {
  // Two engines can agree on now()/pending yet disagree on how many epoch
  // rebases got them there (different scheduling history). The SIM section
  // must tell them apart. The wheel horizon is kNumBuckets * kBucketWidth
  // = 1024 s, so a run past that has rebased at least once.
  TwinSession session(small_spec(false));
  session.advance_to(20.0);
  sim::Simulation& sim = session.scenario().sim();
  const std::uint64_t rebases_before = sim.wheel_rebases();
  // Drive the raw engine past the wheel horizon (the scenario's own runner
  // stops at job completion; the recorder keeps the queue alive forever).
  sim.run_until(1100.0);
  EXPECT_GT(sim.wheel_rebases(), rebases_before);
  // And the counter is digested: two sessions replayed to the same instant
  // agree (equivalence suite), while a raw counter poke would be visible
  // via the SIM section bytes — assert the section parses it by position.
  const StateImage image = capture_state(session.scenario());
  const StateSection* sim_section = image.find(kTagSim);
  ASSERT_NE(sim_section, nullptr);
  Reader r(sim_section->bytes);
  r.f64();                      // now
  r.u64();                      // seq counter
  r.u64();                      // pending
  r.u64();                      // executed
  r.f64();                      // wheel epoch base
  r.u32();                      // wheel cursor
  EXPECT_EQ(r.u64(), sim.wheel_rebases());
}

/// Rank `rank`'s node-plugin blob, read by position from the POL section.
std::vector<std::uint8_t> node_plugin_blob(const StateImage& image,
                                           std::uint32_t rank,
                                           const std::string& plugin) {
  const StateSection* pol = image.find(kTagPol);
  if (pol == nullptr) throw std::runtime_error("no POL section");
  Reader r(pol->bytes);
  r.str();  // scheduler policy
  r.f64();  // admitted power
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    r.u64();
    r.f64();
  }
  for (std::uint32_t n = r.u32(); n > 0; --n) r.u64();  // queue
  const std::uint32_t ranks = r.u32();
  for (std::uint32_t i = 0; i < ranks; ++i) {
    if (!r.boolean()) continue;
    const std::string name = r.str();
    const auto blob = r.raw(r.u32());
    if (i == rank) {
      if (name != plugin) throw std::runtime_error("rank runs " + name);
      return {blob.begin(), blob.end()};
    }
  }
  throw std::runtime_error("rank not in POL");
}

TEST(DigestSensitivity, FppControlRotationIsCovered) {
  // Under stagger_probes the per-node rotation position decides which GPU
  // controller probes next; losing it on restore would desynchronize every
  // later cap decision. The FPP plugin's POL blob carries it: FFT ticks run
  // every 30 s and every third one (t = 90 s) is a control round, which
  // advances the rotation and restarts the time since control.
  TwinSession session(small_spec(false));
  session.advance_to(80.0);
  const StateImage before = capture_state(session.scenario());
  session.advance_to(100.0);
  const StateImage after = capture_state(session.scenario());

  const std::vector<std::uint8_t> a = node_plugin_blob(before, 0, "fpp");
  const std::vector<std::uint8_t> b = node_plugin_blob(after, 0, "fpp");
  Reader ra(a);
  Reader rb(b);
  const std::uint64_t round_before = ra.u64();
  const double since_before = ra.f64();
  const std::uint64_t round_after = rb.u64();
  const double since_after = rb.f64();
  EXPECT_TRUE(ra.done());
  EXPECT_TRUE(rb.done());
  EXPECT_EQ(round_after, round_before + 1);
  EXPECT_DOUBLE_EQ(since_before, 60.0);
  EXPECT_DOUBLE_EQ(since_after, 0.0);
  EXPECT_NE(before.find(kTagPol)->digest, after.find(kTagPol)->digest);
}

TEST(DigestSensitivity, MonitorRingContentIsCovered) {
  // Interned hostnames and ring content travel inside the MON section;
  // one extra retained sample must move it.
  TwinSession session(small_spec(false));
  session.advance_to(30.0);
  const StateImage before = capture_state(session.scenario());
  session.advance_to(34.0);  // two more 2 s sweeps
  const StateImage after = capture_state(session.scenario());
  const StateSection* a = before.find(kTagMon);
  const StateSection* b = after.find(kTagMon);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a->digest, b->digest);
}

TEST(DigestSensitivity, FaultSubstreamPositionsAreCovered) {
  TwinSession session(small_spec(true));
  session.advance_to(30.0);
  const StateImage image = capture_state(session.scenario());
  const StateSection* flt = image.find(kTagFault);
  ASSERT_NE(flt, nullptr);
  // Cap-write rolls consume the per-rank substreams; more sim time means
  // more rolls, and the FLT section must register the movement.
  session.advance_to(120.0);
  const StateImage later = capture_state(session.scenario());
  EXPECT_NE(image.find(kTagFault)->digest, later.find(kTagFault)->digest);
}

TEST(DescribeDivergence, NamesDifferingSections) {
  TwinSession session(small_spec(false));
  session.advance_to(20.0);
  const StateImage a = capture_state(session.scenario());
  session.advance_to(40.0);
  const StateImage b = capture_state(session.scenario());
  const std::string diff = describe_divergence(a, b, "left", "right");
  EXPECT_NE(diff.find("SIM!"), std::string::npos);
  EXPECT_EQ(describe_divergence(a, a, "l", "r"), "images are identical\n");
}

}  // namespace
}  // namespace fluxpower::twin
