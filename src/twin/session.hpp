// session.hpp — a live twin: one spec materialized into a running scenario.
//
// TwinSession pairs a TwinSpec with the Scenario it built, so snapshot
// capture and fork materialization always know the genome of the state they
// hold. Sessions are single-threaded like the engine beneath them; the twin
// server gives each worker its own session.
#pragma once

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "experiments/scenario.hpp"
#include "twin/spec.hpp"

namespace fluxpower::twin {

class TwinSession {
 public:
  /// Build the scenario and submit every job from the spec. The simulation
  /// has not executed anything yet (now() == 0).
  explicit TwinSession(TwinSpec spec)
      : spec_(std::move(spec)), scenario_(spec_.materialize()) {}

  /// Execute events up to `t` (same stop conditions as Scenario::run — all
  /// jobs done or the spec horizon ends the run earlier). Throws
  /// std::invalid_argument for a NaN `t` or one before now(): the clock
  /// cannot run backwards, and advancing to now() itself would run events
  /// due now that a never-advanced session has not run.
  void advance_to(double t) {
    if (std::isnan(t) || t < now()) {
      throw std::invalid_argument("TwinSession::advance_to: horizon " +
                                  std::to_string(t) + " s is before now() = " +
                                  std::to_string(now()) + " s");
    }
    advanced_ = true;
    scenario_->advance_until(t, spec_.max_time_s);
  }

  /// Whether advance_to ever ran. A never-advanced session sits at t = 0
  /// with its t = 0 events still pending, a state advance_to(0) cannot
  /// reach, so its snapshot restores without advancing.
  bool advanced() const noexcept { return advanced_; }

  /// Run to completion and collect results. Terminal.
  experiments::ScenarioResult finish() {
    return scenario_->finish(spec_.max_time_s);
  }

  double now() const noexcept { return scenario_->sim().now(); }
  const TwinSpec& spec() const noexcept { return spec_; }
  experiments::Scenario& scenario() noexcept { return *scenario_; }

 private:
  TwinSpec spec_;
  std::unique_ptr<experiments::Scenario> scenario_;
  bool advanced_ = false;
};

}  // namespace fluxpower::twin
