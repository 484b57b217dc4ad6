// spec.hpp — a scenario definition (the twin's "genome").
//
// A TwinSpec holds everything needed to rebuild a Scenario from nothing:
// the full ScenarioConfig (platform, fleet size, module configs, fault
// weather, seeds) plus the ordered job submissions and the run horizon.
// Because the whole stack is deterministic, spec + event count is a complete
// description of any reachable state — which is what makes replay-based
// snapshot restore (see snapshot.hpp) exact rather than approximate. Specs
// live only in memory: no snapshot outlives the build that took it.
#pragma once

#include <memory>
#include <vector>

#include "experiments/scenario.hpp"

namespace fluxpower::twin {

struct TwinSpec {
  experiments::ScenarioConfig scenario;
  std::vector<experiments::JobRequest> jobs;
  double max_time_s = 86400.0;

  /// Build a fresh, unstarted Scenario with all jobs submitted. Each call
  /// yields an independent simulation that will replay the same event
  /// sequence as every sibling.
  std::unique_ptr<experiments::Scenario> materialize() const {
    auto built = std::make_unique<experiments::Scenario>(scenario);
    for (const experiments::JobRequest& j : jobs) built->submit(j);
    return built;
  }
};

}  // namespace fluxpower::twin
