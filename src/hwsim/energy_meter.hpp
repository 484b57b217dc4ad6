// energy_meter.hpp — exact power-over-time integration.
//
// Tables II–IV report per-node energy. Sampling-based integration (what the
// monitor client does) is subject to the 2 s sampling grid; the simulator
// additionally keeps an exact piecewise-constant integral so benches can
// report both and tests can bound the sampling error.
#pragma once

#include "sim/simulation.hpp"

namespace fluxpower::hwsim {

class EnergyMeter {
 public:
  /// Record that power changed to `watts` at time `now`. Energy accumulates
  /// the previous power level over the elapsed interval first.
  void update(sim::Time now, double watts);

  /// Total energy in joules through time `now` (integrates the current power
  /// level up to `now` without mutating state).
  double joules(sim::Time now) const;

  /// Reset the accumulator (job-scoped metering). Like update()/joules(),
  /// throws std::logic_error if `now` precedes the last recorded time — a
  /// backwards reset would silently re-bill the rewound interval at the
  /// current power level on the next update.
  void reset(sim::Time now);

 private:
  double joules_ = 0.0;
  double watts_ = 0.0;
  sim::Time last_ = 0.0;
};

}  // namespace fluxpower::hwsim
