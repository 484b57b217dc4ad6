// The twin's policy-state section (POL): presence, sensitivity to policy
// activity, and the acceptance criterion that snapshot/restore round-trips
// it — a restored twin's POL bytes are verified against the capture by the
// replay-based restore itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "twin/probe.hpp"
#include "twin/session.hpp"
#include "twin/snapshot.hpp"

namespace fluxpower::twin {
namespace {

/// A spec that lights up the whole policy plane: power-aware admission with
/// an eco-enrolled job, the PI-bound node plugin (progress-driven), faults
/// off so failures point at the policy plane, not the weather.
TwinSpec make_policy_spec() {
  TwinSpec spec;
  spec.scenario.nodes = 4;
  spec.scenario.seed = 7;
  spec.scenario.load_manager = true;
  spec.scenario.manager.cluster_power_bound_w = 4800.0;
  spec.scenario.manager.static_node_cap_w = 1950.0;
  spec.scenario.manager.node_policy = manager::NodePolicy::PiBound;
  spec.scenario.manager.limit_refresh_s = 20.0;
  spec.scenario.sched_policy = "power-aware";
  spec.scenario.report_progress = true;
  spec.max_time_s = 1200.0;

  experiments::JobRequest gemm;
  gemm.kind = apps::AppKind::Gemm;
  gemm.nnodes = 3;
  gemm.work_scale = 0.6;
  spec.jobs.push_back(gemm);

  experiments::JobRequest eco;
  eco.kind = apps::AppKind::Lammps;
  eco.nnodes = 2;
  eco.work_scale = 0.5;
  eco.submit_time_s = 15.0;
  eco.eco_tolerance = 0.2;
  spec.jobs.push_back(eco);
  return spec;
}

TEST(TwinPolTest, CaptureEmitsPolSection) {
  TwinSession session(make_policy_spec());
  session.advance_to(30.0);
  const StateImage image = capture_state(session.scenario());
  const StateSection* pol = image.find(kTagPol);
  ASSERT_NE(pol, nullptr);
  EXPECT_FALSE(pol->bytes.empty());
  EXPECT_EQ(pol->version, kSectionVersion);
}

// The section must track policy activity: the digest moves between an
// instant with jobs queued/admitted and a later instant after releases.
TEST(TwinPolTest, PolDigestTracksPolicyState) {
  TwinSession a(make_policy_spec());
  a.advance_to(20.0);
  const StateImage early_image = capture_state(a.scenario());
  const StateSection* early = early_image.find(kTagPol);
  ASSERT_NE(early, nullptr);
  const std::uint64_t early_digest = early->digest;

  a.advance_to(120.0);
  const StateImage late_image = capture_state(a.scenario());
  const StateSection* late = late_image.find(kTagPol);
  ASSERT_NE(late, nullptr);
  EXPECT_NE(late->digest, early_digest)
      << "POL digest did not move across admissions/releases";
}

// Determinism: two sessions from the same spec agree on POL at every probe.
TEST(TwinPolTest, PolSectionIsDeterministic) {
  TwinSession a(make_policy_spec());
  TwinSession b(make_policy_spec());
  for (double t : {10.0, 40.0, 90.0}) {
    a.advance_to(t);
    b.advance_to(t);
    const StateImage ia = capture_state(a.scenario());
    const StateImage ib = capture_state(b.scenario());
    const StateSection* sa = ia.find(kTagPol);
    const StateSection* sb = ib.find(kTagPol);
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    EXPECT_EQ(sa->digest, sb->digest) << "t=" << t;
    EXPECT_EQ(sa->bytes, sb->bytes) << "t=" << t;
  }
}

// Acceptance criterion: snapshot/restore round-trips the POL section.
// restore() replays the spec and verifies EVERY stored section byte-for-
// byte (POL included) before returning; encode/decode re-verifies digests.
TEST(TwinPolTest, SnapshotRestoreRoundTripsPolSection) {
  TwinSession session(make_policy_spec());
  session.advance_to(45.0);
  const Snapshot snap = Snapshot::capture(session);
  ASSERT_NE(snap.image().find(kTagPol), nullptr);

  // Wire round-trip preserves the section bit-exactly.
  const Snapshot decoded = Snapshot::decode(snap.encode());
  const StateSection* stored = snap.image().find(kTagPol);
  const StateSection* wired = decoded.image().find(kTagPol);
  ASSERT_NE(wired, nullptr);
  EXPECT_EQ(wired->digest, stored->digest);
  EXPECT_EQ(wired->bytes, stored->bytes);

  // Replay-based restore verifies POL (and every other section) or throws.
  std::unique_ptr<TwinSession> restored;
  ASSERT_NO_THROW(restored = decoded.restore());
  const StateImage replayed_image = capture_state(restored->scenario());
  const StateSection* replayed = replayed_image.find(kTagPol);
  ASSERT_NE(replayed, nullptr);
  EXPECT_EQ(replayed->digest, stored->digest);

  // The restored twin keeps running: both twins finish byte-identically.
  const experiments::ScenarioResult orig = session.finish();
  const experiments::ScenarioResult twin = restored->finish();
  ASSERT_EQ(orig.jobs.size(), twin.jobs.size());
  for (std::size_t i = 0; i < orig.jobs.size(); ++i) {
    EXPECT_EQ(orig.jobs[i].t_start, twin.jobs[i].t_start);
    EXPECT_EQ(orig.jobs[i].t_end, twin.jobs[i].t_end);
    EXPECT_EQ(orig.jobs[i].exact_avg_node_energy_j,
              twin.jobs[i].exact_avg_node_energy_j);
  }
  EXPECT_EQ(orig.total_energy_j, twin.total_energy_j);
}

// The spec fields behind the policy plane survive their own round-trip
// (sched_policy name, per-job eco_tolerance, PI config).
TEST(TwinPolTest, SpecV3FieldsRoundTrip) {
  TwinSpec spec = make_policy_spec();
  spec.scenario.manager.pi.degradation_bound = 0.12;
  spec.scenario.manager.pi.kp = 900.0;
  ByteWriter w;
  spec.encode(w);
  ByteReader r(w.data());
  const TwinSpec back = TwinSpec::decode(r);
  EXPECT_EQ(back.scenario.sched_policy, "power-aware");
  EXPECT_DOUBLE_EQ(back.jobs.at(1).eco_tolerance, 0.2);
  EXPECT_DOUBLE_EQ(back.scenario.manager.pi.degradation_bound, 0.12);
  EXPECT_DOUBLE_EQ(back.scenario.manager.pi.kp, 900.0);
  EXPECT_EQ(back.digest(), spec.digest());
}

}  // namespace
}  // namespace fluxpower::twin
