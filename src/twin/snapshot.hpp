// snapshot.hpp — deterministic snapshot/restore for the digital twin.
//
// A Snapshot is {spec, time, state image}: the scenario's genome, the
// instant it was captured, and the per-layer serialization of everything
// observable at that instant (see probe.hpp). Snapshots live in memory
// only; forks share one by pointer.
//
// Restore is REPLAY-BASED AND BYTE-VERIFIED, not memcpy-based. The event
// engine's queue holds type-erased closures over live object graphs, which
// no byte codec can rehydrate; but the whole stack is deterministic, so
// rebuilding the scenario from its spec and fast-forwarding to the capture
// time reaches the *same* state — and the probe proves it, byte for byte,
// against the stored image before restore() returns. A restore that drifts
// by even one bit in any section throws SnapshotMismatch with a per-section
// diff instead of handing back a subtly different twin. The stored image is
// therefore load-bearing: it is the tripwire that converts "we believe the
// sim is deterministic" into a checked invariant at every restore.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "twin/probe.hpp"
#include "twin/session.hpp"
#include "twin/spec.hpp"

namespace fluxpower::twin {

/// A replayed scenario failed byte-for-byte verification against the stored
/// image — the determinism contract is broken. The message carries the
/// per-section divergence.
class SnapshotMismatch : public std::runtime_error {
 public:
  explicit SnapshotMismatch(const std::string& what)
      : std::runtime_error(what) {}
};

class Snapshot {
 public:
  /// Capture the session's current state. The session remains live and
  /// unmodified (the probe is read-only).
  static Snapshot capture(TwinSession& session);

  const TwinSpec& spec() const noexcept { return spec_; }
  double time() const noexcept { return t_snapshot_; }
  const StateImage& image() const noexcept { return image_; }
  /// Fingerprint over section digests — cheap state identity.
  std::uint64_t state_digest() const noexcept { return image_.digest(); }

  /// Rebuild a live session at time(): materialize the spec, fast-forward
  /// (unless the captured session was never advanced), and verify every
  /// captured section byte-for-byte. Throws SnapshotMismatch on any
  /// divergence.
  std::unique_ptr<TwinSession> restore() const;

  /// Restore under a *modified* spec (the fork engine's NodeKill support
  /// injects an inert zero-rate fault plane into faultless specs so
  /// force_crash has a plane to drive; a zero-rate plane consults no RNG
  /// and leaves every other section byte-identical). Sections present in
  /// the stored image are verified as usual; sections the override adds
  /// (FLT for a newly attached plane) have no stored counterpart and are
  /// skipped.
  std::unique_ptr<TwinSession> restore_with_spec(
      const TwinSpec& spec_override) const;

 private:
  Snapshot() = default;

  TwinSpec spec_;
  double t_snapshot_ = 0.0;
  bool advanced_ = false;  ///< false: restore replays nothing
  StateImage image_;
};

}  // namespace fluxpower::twin
