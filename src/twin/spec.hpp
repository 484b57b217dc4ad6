// spec.hpp — serializable scenario definition (the twin's "genome").
//
// A TwinSpec captures everything needed to rebuild a Scenario from nothing:
// the full ScenarioConfig (platform, fleet size, module configs, fault
// weather, seeds) plus the ordered job submissions and the run horizon.
// Because the whole stack is deterministic, spec + event count is a complete
// description of any reachable state — which is what makes replay-based
// snapshot restore (see snapshot.hpp) exact rather than approximate.
//
// The encoding is versioned independently of the snapshot container so a
// spec-only change (new config field) doesn't invalidate state-section
// decoding, and vice versa. Specs are not a compatibility surface: no
// snapshot outlives the build that wrote it, so decode() accepts only the
// current version. Enums encode as u32 of their underlying value.
#pragma once

#include <cstdint>
#include <vector>

#include "experiments/scenario.hpp"
#include "twin/codec.hpp"

namespace fluxpower::twin {

/// Current TwinSpec wire version; decode() rejects every other one. Bump on
/// any field addition or removal.
inline constexpr std::uint32_t kSpecVersion = 5;

struct TwinSpec {
  experiments::ScenarioConfig scenario;
  std::vector<experiments::JobRequest> jobs;
  double max_time_s = 86400.0;

  void encode(ByteWriter& w) const;
  static TwinSpec decode(ByteReader& r);

  /// Digest over the encoded form — two specs with equal digests build
  /// byte-identical scenarios.
  std::uint64_t digest() const;

  /// Build a fresh, unstarted Scenario with all jobs submitted. Each call
  /// yields an independent simulation that will replay the same event
  /// sequence as every sibling.
  std::unique_ptr<experiments::Scenario> materialize() const;
};

}  // namespace fluxpower::twin
