#include "twin/spec.hpp"

#include <memory>
#include <string>

namespace fluxpower::twin {

namespace {

// Enums travel as u32 of the underlying value; decode re-checks range so a
// snapshot from a newer build (unknown enum member) fails loudly instead of
// materializing a subtly different scenario.
template <typename E>
void put_enum(ByteWriter& w, E v) {
  w.u32(static_cast<std::uint32_t>(v));
}

template <typename E>
E get_enum(ByteReader& r, std::uint32_t max_value, const char* what) {
  const std::uint32_t v = r.u32();
  if (v > max_value) {
    throw CodecError(std::string("TwinSpec: ") + what + " value " +
                     std::to_string(v) + " out of range");
  }
  return static_cast<E>(v);
}

void encode_monitor(ByteWriter& w, const monitor::PowerMonitorConfig& m) {
  w.f64(m.sample_period_s);
  w.u64(m.buffer_capacity);
  w.f64(m.sample_cost_s);
  w.boolean(m.archive_jobs);
  w.boolean(m.stream_samples);
  w.boolean(m.tree_aggregation);
}

monitor::PowerMonitorConfig decode_monitor(ByteReader& r) {
  monitor::PowerMonitorConfig m;
  m.sample_period_s = r.f64();
  m.buffer_capacity = static_cast<std::size_t>(r.u64());
  m.sample_cost_s = r.f64();
  m.archive_jobs = r.boolean();
  m.stream_samples = r.boolean();
  m.tree_aggregation = r.boolean();
  return m;
}

void encode_faults(ByteWriter& w, const faultsim::FaultPlaneConfig& f) {
  w.u64(f.seed);
  w.f64(f.msg_drop_rate);
  w.f64(f.msg_dup_rate);
  w.f64(f.msg_delay_rate);
  w.f64(f.msg_delay_max_s);
  w.f64(f.node_mtbf_s);
  w.f64(f.node_reboot_s);
  w.boolean(f.protect_root);
  w.f64(f.sensor_dropout_rate);
  w.f64(f.sensor_stuck_rate);
  w.f64(f.sensor_stuck_duration_s);
  w.f64(f.cap_write_failure_rate);
}

faultsim::FaultPlaneConfig decode_faults(ByteReader& r) {
  faultsim::FaultPlaneConfig f;
  f.seed = r.u64();
  f.msg_drop_rate = r.f64();
  f.msg_dup_rate = r.f64();
  f.msg_delay_rate = r.f64();
  f.msg_delay_max_s = r.f64();
  f.node_mtbf_s = r.f64();
  f.node_reboot_s = r.f64();
  f.protect_root = r.boolean();
  f.sensor_dropout_rate = r.f64();
  f.sensor_stuck_rate = r.f64();
  f.sensor_stuck_duration_s = r.f64();
  f.cap_write_failure_rate = r.f64();
  return f;
}

void encode_manager(ByteWriter& w, const manager::PowerManagerConfig& m) {
  w.f64(m.cluster_power_bound_w);
  w.f64(m.node_peak_w);
  w.f64(m.static_node_cap_w);
  put_enum(w, m.node_policy);
  w.f64(m.control_period_s);
  w.f64(m.sample_cost_s);
  w.boolean(m.idle_low_power);
  w.f64(m.history_period_s);
  w.u64(m.history_capacity);
  w.boolean(m.emergency_response);
  w.f64(m.emergency_check_period_s);
  w.f64(m.emergency_threshold);
  w.u32(static_cast<std::uint32_t>(m.emergency_consecutive));
  w.f64(m.emergency_margin);
  w.f64(m.cap_retry_initial_s);
  w.f64(m.cap_retry_max_s);
  w.u32(static_cast<std::uint32_t>(m.quarantine_threshold));
  w.f64(m.push_timeout_s);
  w.f64(m.quarantine_probe_s);
  w.f64(m.limit_refresh_s);

  const manager::FppConfig& fpp = m.fpp;
  w.f64(fpp.converge_th_s);
  w.f64(fpp.change_th_s);
  w.f64(fpp.p_reduce_w);
  for (double level : fpp.powercap_levels_w) w.f64(level);
  w.f64(fpp.powercap_time_s);
  w.f64(fpp.fft_update_s);
  w.f64(fpp.sample_period_s);
  w.f64(fpp.max_gpu_cap_w);
  w.f64(fpp.min_gpu_cap_w);
  w.f64(fpp.max_socket_cap_w);
  w.f64(fpp.min_socket_cap_w);
  put_enum(w, fpp.period_method);
  w.boolean(fpp.exploratory_first_reduce);
  w.boolean(fpp.stagger_probes);

  w.f64(m.progress.control_period_s);
  w.f64(m.progress.step_w);
  w.f64(m.progress.tolerance);

  w.f64(m.pi.control_period_s);
  w.f64(m.pi.degradation_bound);
  w.f64(m.pi.kp);
  w.f64(m.pi.ki);
}

manager::PowerManagerConfig decode_manager(ByteReader& r) {
  manager::PowerManagerConfig m;
  m.cluster_power_bound_w = r.f64();
  m.node_peak_w = r.f64();
  m.static_node_cap_w = r.f64();
  m.node_policy = get_enum<manager::NodePolicy>(
      r, static_cast<std::uint32_t>(manager::NodePolicy::PiBound),
      "NodePolicy");
  m.control_period_s = r.f64();
  m.sample_cost_s = r.f64();
  m.idle_low_power = r.boolean();
  m.history_period_s = r.f64();
  m.history_capacity = static_cast<std::size_t>(r.u64());
  m.emergency_response = r.boolean();
  m.emergency_check_period_s = r.f64();
  m.emergency_threshold = r.f64();
  m.emergency_consecutive = static_cast<int>(r.u32());
  m.emergency_margin = r.f64();
  m.cap_retry_initial_s = r.f64();
  m.cap_retry_max_s = r.f64();
  m.quarantine_threshold = static_cast<int>(r.u32());
  m.push_timeout_s = r.f64();
  m.quarantine_probe_s = r.f64();
  m.limit_refresh_s = r.f64();

  manager::FppConfig& fpp = m.fpp;
  fpp.converge_th_s = r.f64();
  fpp.change_th_s = r.f64();
  fpp.p_reduce_w = r.f64();
  for (double& level : fpp.powercap_levels_w) level = r.f64();
  fpp.powercap_time_s = r.f64();
  fpp.fft_update_s = r.f64();
  fpp.sample_period_s = r.f64();
  fpp.max_gpu_cap_w = r.f64();
  fpp.min_gpu_cap_w = r.f64();
  fpp.max_socket_cap_w = r.f64();
  fpp.min_socket_cap_w = r.f64();
  fpp.period_method = get_enum<dsp::PeriodMethod>(
      r, static_cast<std::uint32_t>(dsp::PeriodMethod::WelchPeriodogram),
      "PeriodMethod");
  fpp.exploratory_first_reduce = r.boolean();
  fpp.stagger_probes = r.boolean();

  m.progress.control_period_s = r.f64();
  m.progress.step_w = r.f64();
  m.progress.tolerance = r.f64();
  m.pi.control_period_s = r.f64();
  m.pi.degradation_bound = r.f64();
  m.pi.kp = r.f64();
  m.pi.ki = r.f64();
  return m;
}

}  // namespace

void TwinSpec::encode(ByteWriter& w) const {
  w.u32(kSpecVersion);

  const experiments::ScenarioConfig& s = scenario;
  put_enum(w, s.platform);
  w.u32(static_cast<std::uint32_t>(s.nodes));
  w.u32(static_cast<std::uint32_t>(s.tbon_fanout));
  w.boolean(s.load_monitor);
  w.boolean(s.monitor.has_value());
  if (s.monitor) encode_monitor(w, *s.monitor);
  w.boolean(s.load_manager);
  encode_manager(w, s.manager);
  w.boolean(s.report_progress);
  w.boolean(s.faults.has_value());
  if (s.faults) encode_faults(w, *s.faults);
  w.f64(s.sensor_noise);
  w.boolean(s.runtime_variability);
  w.u64(s.seed);
  w.f64(s.app_step_s);
  w.f64(s.record_period_s);
  w.u32(static_cast<std::uint32_t>(s.shards));
  w.u32(static_cast<std::uint32_t>(s.workers));
  w.str(s.sched_policy);  // "" = FCFS

  w.u32(static_cast<std::uint32_t>(jobs.size()));
  for (const experiments::JobRequest& j : jobs) {
    put_enum(w, j.kind);
    w.u32(static_cast<std::uint32_t>(j.nnodes));
    w.f64(j.work_scale);
    w.f64(j.submit_time_s);
    w.f64(j.eco_tolerance);
  }
  w.f64(max_time_s);
}

TwinSpec TwinSpec::decode(ByteReader& r) {
  const std::uint32_t version = r.u32();
  if (version != kSpecVersion) {
    throw CodecError("TwinSpec: unsupported version " + std::to_string(version) +
                     " (this build reads " + std::to_string(kSpecVersion) + ")");
  }

  TwinSpec spec;
  experiments::ScenarioConfig& s = spec.scenario;
  s.platform = get_enum<hwsim::Platform>(
      r, static_cast<std::uint32_t>(hwsim::Platform::GenericArmGrace),
      "Platform");
  s.nodes = static_cast<int>(r.u32());
  s.tbon_fanout = static_cast<int>(r.u32());
  s.load_monitor = r.boolean();
  if (r.boolean()) s.monitor = decode_monitor(r);
  s.load_manager = r.boolean();
  s.manager = decode_manager(r);
  s.report_progress = r.boolean();
  if (r.boolean()) s.faults = decode_faults(r);
  s.sensor_noise = r.f64();
  s.runtime_variability = r.boolean();
  s.seed = r.u64();
  s.app_step_s = r.f64();
  s.record_period_s = r.f64();
  s.shards = static_cast<int>(r.u32());
  s.workers = static_cast<int>(r.u32());
  s.sched_policy = r.str();

  const std::uint32_t njobs = r.u32();
  spec.jobs.reserve(njobs);
  for (std::uint32_t i = 0; i < njobs; ++i) {
    experiments::JobRequest j;
    j.kind = get_enum<apps::AppKind>(
        r, static_cast<std::uint32_t>(apps::AppKind::Kripke), "AppKind");
    j.nnodes = static_cast<int>(r.u32());
    j.work_scale = r.f64();
    j.submit_time_s = r.f64();
    j.eco_tolerance = r.f64();
    spec.jobs.push_back(j);
  }
  spec.max_time_s = r.f64();
  return spec;
}

std::uint64_t TwinSpec::digest() const {
  ByteWriter w;
  encode(w);
  return Digest64::of(w.data());
}

std::unique_ptr<experiments::Scenario> TwinSpec::materialize() const {
  auto scenario_ptr = std::make_unique<experiments::Scenario>(scenario);
  for (const experiments::JobRequest& j : jobs) scenario_ptr->submit(j);
  return scenario_ptr;
}

}  // namespace fluxpower::twin
