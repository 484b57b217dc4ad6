// trace_replay.hpp — replay recorded telemetry as a workload.
//
// Closes the telemetry loop: the CSV the monitor client writes (or any CSV
// with `timestamp_s`/`cpu<i>_w`/`mem_w`/`gpu<i>_w` columns) can be played
// back as a node's power demand, so policies can be evaluated against
// *recorded production shapes* rather than synthetic models — how a site
// would validate FPP against its own machines before enabling it.
//
// Replay is telemetry-shaped, not performance-modeled: the job runs for the
// trace's duration regardless of caps; caps simply clip the drawn power
// (grants). Use AppRuntime when the power-performance feedback matters.
#pragma once

#include <string>
#include <vector>

#include "flux/job_manager.hpp"
#include "hwsim/node.hpp"
#include "sim/simulation.hpp"

namespace fluxpower::apps {

/// One demand point of a trace.
struct TracePoint {
  double t_s = 0.0;  ///< relative to trace start
  hwsim::LoadDemand demand;
};

struct PowerTrace {
  std::vector<TracePoint> points;

  double duration_s() const {
    return points.empty() ? 0.0 : points.back().t_s;
  }

  /// Parse monitor-client CSV (columns: anything containing `timestamp_s`,
  /// `cpu<i>_w`, `mem_w`, `gpu<i>_w` / `oam<i>_w`; extra columns ignored).
  /// Rows must carry nondecreasing timestamps; timestamps are rebased so
  /// the first row is t=0. Throws std::invalid_argument on malformed input.
  /// CPU/GPU columns past hwsim::kMaxSockets / kMaxGpuSensors are dropped,
  /// as a replaying node ignores values beyond its own device count.
  static PowerTrace from_csv(const std::string& csv_text);
};

/// Deterministic diurnal/weekly load curve: the multiplier a site's
/// aggregate demand follows over a day (night floor, morning ramp, daytime
/// plateau, evening decline) and a week (weekend factor). Site time is
/// anchored at t=0 == midnight Monday. Piecewise-linear, so multi-week
/// synthetic traces and arrival schedules generated from it replay
/// byte-identically.
struct DiurnalModel {
  double night_level = 0.35;  ///< relative load before the morning ramp
  double day_level = 1.0;     ///< plateau level
  double ramp_start_h = 7.0;
  double ramp_end_h = 9.0;
  double decline_start_h = 17.0;
  double decline_end_h = 22.0;
  /// Weekend (site days 5 and 6) load multiplier.
  double weekend_factor = 0.45;

  /// Load multiplier at site time t_s, in (0, day_level].
  double level_at(double t_s) const noexcept;
};

/// Synthesize a multi-week trace: every `step_s` the per-domain demand is
/// `peak * level_at(t)`. Feed it to TraceReplayRuntime to replay recorded
/// production *shapes* without recorded production *data* — the multi-week
/// operations studies (bench/ext_site_ops) build their background load this
/// way.
PowerTrace make_diurnal_trace(const DiurnalModel& model, double duration_s,
                              double step_s, const hwsim::LoadDemand& peak);

/// JobExecution that replays a trace on every allocated node.
class TraceReplayRuntime final : public flux::JobExecution {
 public:
  TraceReplayRuntime(sim::Simulation& sim, std::vector<hwsim::Node*> nodes,
                     PowerTrace trace);
  ~TraceReplayRuntime() override;

  void start(std::function<void()> on_complete) override;
  void cancel() override;

  bool running() const noexcept { return running_; }

 private:
  void apply_point(std::size_t index);
  void finish();

  sim::Simulation& sim_;
  std::vector<hwsim::Node*> nodes_;
  PowerTrace trace_;
  std::function<void()> on_complete_;
  sim::EventId pending_ = sim::kInvalidEvent;
  bool running_ = false;
};

}  // namespace fluxpower::apps
