// probe.hpp — deterministic serialization of a live scenario's state.
//
// The probe walks every layer of a running Scenario — event engine, node
// hardware, broker plane, job ledger, monitor rings, manager
// control state, fault plane substreams, scenario bookkeeping — and encodes
// each into its own tagged, digested section. Two process states
// that produce identical StateImages are observably equivalent: every
// downstream output (tables, timelines, metrics) is a pure function of the
// captured state plus the deterministic event future.
//
// Iteration discipline: sections visit entities in *rank or id order only*,
// never in pointer-keyed or hash order — a probe that serialized
// `FaultPlane::by_node_` (keyed by Node*) would digest ASLR, not sim state.
//
// The probe is read-only and allocation-light; capture cost scales with
// retained telemetry (the monitor ring dominates).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "twin/codec.hpp"

namespace fluxpower::twin {

/// Section tags, in capture order. '!' pads short names to four chars.
inline constexpr std::uint32_t kTagSim = fourcc('S', 'I', 'M', '!');
inline constexpr std::uint32_t kTagHw = fourcc('H', 'W', '!', '!');
inline constexpr std::uint32_t kTagFlux = fourcc('F', 'L', 'U', 'X');
inline constexpr std::uint32_t kTagJobs = fourcc('J', 'O', 'B', 'S');
inline constexpr std::uint32_t kTagMon = fourcc('M', 'O', 'N', '!');
inline constexpr std::uint32_t kTagMgr = fourcc('M', 'G', 'R', '!');
/// Policy plane: scheduler policy identity + admission ledger + queue, and
/// every rank's node-policy plugin identity + opaque state blob.
inline constexpr std::uint32_t kTagPol = fourcc('P', 'O', 'L', '!');
inline constexpr std::uint32_t kTagFault = fourcc('F', 'L', 'T', '!');
inline constexpr std::uint32_t kTagScen = fourcc('S', 'C', 'E', 'N');

struct StateSection {
  std::uint32_t tag = 0;
  std::vector<std::uint8_t> bytes;
  std::uint64_t digest = 0;  ///< Digest64 of bytes

  bool operator==(const StateSection&) const = default;
};

/// The full per-layer image of one scenario at one instant.
struct StateImage {
  std::vector<StateSection> sections;

  const StateSection* find(std::uint32_t tag) const noexcept;
  /// Digest of digests, in section order — the state fingerprint.
  std::uint64_t digest() const noexcept;

  bool operator==(const StateImage&) const = default;
};

/// Capture every section from a live scenario. The FLT section is emitted
/// only when a fault plane is attached.
StateImage capture_state(experiments::Scenario& scenario);

/// Human-readable diff of two images for SnapshotMismatch messages: which
/// sections differ (by digest), plus the first differing byte offset of
/// each. `rhs_label`/`lhs_label` name the sides (e.g. "snapshot"/"replay").
std::string describe_divergence(const StateImage& lhs, const StateImage& rhs,
                                const std::string& lhs_label,
                                const std::string& rhs_label);

}  // namespace fluxpower::twin
