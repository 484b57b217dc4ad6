#include "trace.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "apps/app_model.hpp"
#include "dsp/period.hpp"
#include "flux/broker.hpp"
#include "flux/instance.hpp"
#include "hwsim/cluster.hpp"
#include "manager/fpp.hpp"
#include "monitor/sample_store.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"
#include "variorum/variorum.hpp"

using namespace fluxpower;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

enum Group : int {
  kSimStep,
  kSetDemand,
  kCapWrite,
  kSample,
  kStorePush,
  kVariorum,
  kPhaseSpeed,
  kDeliver,
  kFindPeriod,
  kManagerFpp,
  kSetupCluster,
  kSetupInstance,
  kSetupModules,
  kObsRegister,
  kGroupCount
};

constexpr const char* kGroupNames[kGroupCount] = {
    "sim.step",        "hwsim.set_demand", "hwsim.cap_write",
    "hwsim.sample",    "monitor.store_push", "variorum",
    "apps.phase_speed", "flux.deliver",    "dsp.find_period",
    "manager.fpp",     "setup.cluster",    "setup.instance",
    "setup.modules",   "obs.register"};

// Workloads meant to exercise an entry point (bit per driver workload).
constexpr unsigned kFederation = 1;
constexpr unsigned kWholeSite = 2;
constexpr unsigned kCappedFpp = 4;
constexpr unsigned kAll = kFederation | kWholeSite | kCappedFpp;

unsigned workload_bit(const std::string& workload) {
  if (workload == "federation-2w") return kFederation;
  if (workload == "whole-site-65k") return kWholeSite;
  if (workload == "capped-fpp-queue") return kCappedFpp;
  return 0;
}

enum EntryId : int {
  eStep,
  eRunBefore,
  eRunUntil,
  eSetDemand,
  eGpuCap,
  eNodeCap,
  eSocketCap,
  eSample,
  eStorePush,
  eGetSample,
  eCapEachGpu,
  eCapBestEffort,
  ePhaseSpeed,
  eDeliver,
  eFindPeriod,
  eFindPeriodConsume,
  eFppUpdate,
  eFppControl,
  eMakeCluster,
  eMakeClusterSharded,
  eInstance,
  eInstanceSharded,
  eLoadModule,
  eCounter,
  eGauge,
  eHistogram,
  kEntryCount
};

struct Entry {
  const char* name;
  Group group;
  unsigned exercised_by;  ///< must record at least one call on these
  unsigned bypassed_by;   ///< must record no call on these
};

// FPP runs only on capped-fpp-queue; the other two predict no change there.
constexpr unsigned kNoFpp = kFederation | kWholeSite;

constexpr Entry kEntries[kEntryCount] = {
    {"Simulation::step", kSimStep, kAll, 0},
    {"Simulation::run_before", kSimStep, kWholeSite, 0},
    {"Simulation::run_until", kSimStep, kWholeSite, 0},
    {"Node::set_demand", kSetDemand, kAll, 0},
    {"Node::set_gpu_power_cap", kCapWrite, kFederation | kCappedFpp, 0},
    {"Node::set_node_power_cap", kCapWrite, kCappedFpp, 0},
    {"Node::set_socket_power_cap", kCapWrite, kFederation, 0},
    {"Node::sample", kSample, kAll, 0},
    {"ColumnarSampleStore::push", kStorePush, kWholeSite | kCappedFpp, 0},
    {"variorum::get_node_power_sample", kVariorum, kAll, 0},
    {"variorum::cap_each_gpu_power_limit", kVariorum, kFederation, 0},
    {"variorum::cap_best_effort_node_power_limit", kVariorum, kCappedFpp, 0},
    {"apps::phase_speed", kPhaseSpeed, kAll, 0},
    {"Broker::deliver", kDeliver, kAll, 0},
    {"dsp::find_period", kFindPeriod, kCappedFpp, kNoFpp},
    {"dsp::find_period_consume", kFindPeriod, kCappedFpp, kNoFpp},
    {"FppController::update_period", kManagerFpp, kCappedFpp, kNoFpp},
    {"FppController::control", kManagerFpp, kCappedFpp, kNoFpp},
    {"hwsim::make_cluster", kSetupCluster, kFederation | kCappedFpp, 0},
    {"hwsim::make_cluster(sharded)", kSetupCluster, kWholeSite, 0},
    {"flux::Instance::Instance", kSetupInstance, kFederation | kCappedFpp, 0},
    {"flux::Instance::Instance(sharded)", kSetupInstance, kWholeSite, 0},
    {"Broker::load_module", kSetupModules, kAll, 0},
    {"MetricsRegistry::counter", kObsRegister, kAll, 0},
    {"MetricsRegistry::gauge", kObsRegister, kAll, 0},
    {"MetricsRegistry::histogram", kObsRegister, kAll, 0},
};

struct GroupTotals {
  Clock::duration self{};
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
};

struct Frame {
  Group group = kSimStep;
  Clock::time_point start{};
  Clock::duration child{};  ///< inclusive time of directly nested spans
};

constexpr int kMaxDepth = 64;
constexpr int kMaxThreads = 64;

/// One per thread, written only by its thread; trace_report folds them.
/// Plain per-thread sums keep worker threads from contending on shared
/// counters, which would stretch the traced run itself.
struct ThreadState {
  std::uint64_t entry_calls[kEntryCount] = {};
  GroupTotals groups[kGroupCount] = {};
  Clock::duration run_before{};
  Frame stack[kMaxDepth] = {};
  int depth = 0;
};

std::mutex g_threads_mu;
ThreadState* g_threads[kMaxThreads] = {};
int g_thread_count = 0;
thread_local ThreadState* t_state = nullptr;

[[noreturn]] void die(const char* what) {
  std::fprintf(stderr, "perfbench trace: %s\n", what);
  std::abort();
}

/// The calling thread's state, created on its first span. Uses malloc, not
/// operator new, which is itself wrapped. States are never freed, so they
/// stay readable after their thread exits.
ThreadState& state() {
  if (t_state == nullptr) {
    void* mem = std::malloc(sizeof(ThreadState));
    if (mem == nullptr) die("out of memory");
    t_state = ::new (mem) ThreadState{};
    std::lock_guard<std::mutex> lock(g_threads_mu);
    if (g_thread_count == kMaxThreads) die("too many threads");
    g_threads[g_thread_count++] = t_state;
  }
  return *t_state;
}

class Span {
 public:
  explicit Span(EntryId entry) : ts_(state()) {
    if (ts_.depth == kMaxDepth) die("span stack overflow");
    ++ts_.entry_calls[entry];
    ts_.stack[ts_.depth++] = Frame{kEntries[entry].group, Clock::now(), {}};
  }
  ~Span() {
    const Frame& f = ts_.stack[--ts_.depth];
    const Clock::duration total = Clock::now() - f.start;
    ts_.groups[f.group].self += total - f.child;
    if (ts_.depth > 0) ts_.stack[ts_.depth - 1].child += total;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadState& ts_;
};

void charge_allocation(std::size_t bytes) noexcept {
  ThreadState* ts = t_state;
  if (ts == nullptr || ts->depth == 0) return;
  GroupTotals& g = ts->groups[ts->stack[ts->depth - 1].group];
  ++g.allocs;
  g.alloc_bytes += bytes;
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

bool tracing() { return true; }

util::Json trace_report(const std::string& workload) {
  std::uint64_t entry_calls[kEntryCount] = {};
  GroupTotals groups[kGroupCount] = {};
  Clock::duration run_before{};
  {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    for (int t = 0; t < g_thread_count; ++t) {
      const ThreadState& ts = *g_threads[t];
      for (int e = 0; e < kEntryCount; ++e) entry_calls[e] += ts.entry_calls[e];
      for (int g = 0; g < kGroupCount; ++g) {
        groups[g].self += ts.groups[g].self;
        groups[g].allocs += ts.groups[g].allocs;
        groups[g].alloc_bytes += ts.groups[g].alloc_bytes;
      }
      run_before += ts.run_before;
    }
  }
  std::uint64_t group_calls[kGroupCount] = {};
  util::Json unexercised = util::Json::array();
  util::Json unexpected = util::Json::array();
  const unsigned bit = workload_bit(workload);
  for (int e = 0; e < kEntryCount; ++e) {
    group_calls[kEntries[e].group] += entry_calls[e];
    if ((kEntries[e].exercised_by & bit) != 0 && entry_calls[e] == 0) {
      unexercised.push_back(kEntries[e].name);
    }
    if ((kEntries[e].bypassed_by & bit) != 0 && entry_calls[e] != 0) {
      unexpected.push_back(kEntries[e].name);
    }
  }
  util::Json out_groups = util::Json::object();
  for (int g = 0; g < kGroupCount; ++g) {
    util::Json row = util::Json::object();
    row["calls"] = group_calls[g];
    row["self_s"] = seconds(groups[g].self);
    row["allocs"] = groups[g].allocs;
    row["alloc_bytes"] = groups[g].alloc_bytes;
    out_groups[kGroupNames[g]] = std::move(row);
  }
  util::Json out = util::Json::object();
  out["groups"] = std::move(out_groups);
  out["run_before_s"] = seconds(run_before);
  out["unexercised"] = std::move(unexercised);
  out["unexpected"] = std::move(unexpected);
  return out;
}

}  // namespace perfbench

// GNU ld --wrap: the program's calls to each symbol listed in CMakeLists.txt
// land on __wrap_<symbol>, and __real_<symbol> is the original. Only calls
// across translation units are redirected; calls inside the defining file,
// inline and virtual calls stay unwrapped and count toward the caller.
#define PERFBENCH_WRAP(ret, sym, entry, params, args) \
  ret __real_##sym params;                            \
  ret __wrap_##sym params {                           \
    perfbench::Span span(perfbench::entry);           \
    return __real_##sym args;                         \
  }

extern "C" {

PERFBENCH_WRAP(bool, _ZN9fluxpower3sim10Simulation4stepEv, eStep,
               (sim::Simulation * self), (self))

void __real__ZN9fluxpower3sim10Simulation10run_beforeEd(sim::Simulation* self,
                                                        double end);
void __wrap__ZN9fluxpower3sim10Simulation10run_beforeEd(sim::Simulation* self,
                                                        double end) {
  const auto start = perfbench::Clock::now();
  {
    perfbench::Span span(perfbench::eRunBefore);
    __real__ZN9fluxpower3sim10Simulation10run_beforeEd(self, end);
  }
  perfbench::state().run_before += perfbench::Clock::now() - start;
}

PERFBENCH_WRAP(void, _ZN9fluxpower3sim10Simulation9run_untilEd, eRunUntil,
               (sim::Simulation * self, double t), (self, t))

PERFBENCH_WRAP(void,
               _ZN9fluxpower5hwsim4Node10set_demandERKNS0_10LoadDemandE,
               eSetDemand,
               (hwsim::Node * self, const hwsim::LoadDemand& demand),
               (self, demand))

PERFBENCH_WRAP(hwsim::CapResult, _ZN9fluxpower5hwsim4Node17set_gpu_power_capEid,
               eGpuCap, (hwsim::Node * self, int gpu, double watts),
               (self, gpu, watts))

PERFBENCH_WRAP(hwsim::CapResult, _ZN9fluxpower5hwsim4Node18set_node_power_capEd,
               eNodeCap, (hwsim::Node * self, double watts), (self, watts))

PERFBENCH_WRAP(hwsim::CapResult,
               _ZN9fluxpower5hwsim4Node20set_socket_power_capEid, eSocketCap,
               (hwsim::Node * self, int socket, double watts),
               (self, socket, watts))

PERFBENCH_WRAP(hwsim::PowerSample, _ZN9fluxpower5hwsim4Node6sampleEv, eSample,
               (hwsim::Node * self), (self))

PERFBENCH_WRAP(
    void,
    _ZN9fluxpower7monitor19ColumnarSampleStore4pushERKNS_5hwsim11PowerSampleE,
    eStorePush,
    (monitor::ColumnarSampleStore * self, const hwsim::PowerSample& s),
    (self, s))

PERFBENCH_WRAP(hwsim::PowerSample,
               _ZN9fluxpower8variorum21get_node_power_sampleERNS_5hwsim4NodeE,
               eGetSample, (hwsim::Node & node), (node))

PERFBENCH_WRAP(std::vector<hwsim::CapResult>,
               _ZN9fluxpower8variorum24cap_each_gpu_power_limitERNS_5hwsim4NodeEd,
               eCapEachGpu, (hwsim::Node & node, double watts), (node, watts))

PERFBENCH_WRAP(
    hwsim::CapResult,
    _ZN9fluxpower8variorum32cap_best_effort_node_power_limitERNS_5hwsim4NodeEd,
    eCapBestEffort, (hwsim::Node & node, double watts), (node, watts))

PERFBENCH_WRAP(
    double,
    _ZN9fluxpower4apps11phase_speedERKNS0_10AppProfileERKNS0_8AppPhaseERKNS_5hwsim10LoadDemandERKNS7_6GrantsE,
    ePhaseSpeed,
    (const apps::AppProfile& profile, const apps::AppPhase& phase,
     const hwsim::LoadDemand& demand, const hwsim::Grants& grants),
    (profile, phase, demand, grants))

PERFBENCH_WRAP(void, _ZN9fluxpower4flux6Broker7deliverERKNS0_7MessageE,
               eDeliver, (flux::Broker * self, const flux::Message& msg),
               (self, msg))

PERFBENCH_WRAP(
    std::optional<dsp::PeriodEstimate>,
    _ZN9fluxpower3dsp11find_periodESt4spanIKdLm18446744073709551615EEdNS0_12PeriodMethodE,
    eFindPeriod,
    (std::span<const double> samples, double dt_s, dsp::PeriodMethod method),
    (samples, dt_s, method))

PERFBENCH_WRAP(
    std::optional<dsp::PeriodEstimate>,
    _ZN9fluxpower3dsp19find_period_consumeERSt6vectorIdSaIdEEdNS0_12PeriodMethodE,
    eFindPeriodConsume,
    (std::vector<double> & samples, double dt_s, dsp::PeriodMethod method),
    (samples, dt_s, method))

PERFBENCH_WRAP(void, _ZN9fluxpower7manager13FppController13update_periodEv,
               eFppUpdate, (manager::FppController * self), (self))

PERFBENCH_WRAP(double, _ZN9fluxpower7manager13FppController7controlEd,
               eFppControl, (manager::FppController * self, double limit_w),
               (self, limit_w))

PERFBENCH_WRAP(
    hwsim::Cluster,
    _ZN9fluxpower5hwsim12make_clusterERNS_3sim10SimulationENS0_8PlatformEiRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    eMakeCluster,
    (sim::Simulation & sim, hwsim::Platform platform, int n,
     const std::string& prefix),
    (sim, platform, n, prefix))

PERFBENCH_WRAP(
    hwsim::Cluster,
    _ZN9fluxpower5hwsim12make_clusterERKSt8functionIFRNS_3sim10SimulationEiEENS0_8PlatformEiRKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
    eMakeClusterSharded,
    (const std::function<sim::Simulation&(int)>& sim_of_rank,
     hwsim::Platform platform, int n, const std::string& prefix),
    (sim_of_rank, platform, n, prefix))

PERFBENCH_WRAP(
    void,
    _ZN9fluxpower4flux8InstanceC1ERNS_3sim10SimulationESt6vectorIPNS_5hwsim4NodeESaIS8_EENS0_14InstanceConfigE,
    eInstance,
    (flux::Instance * self, sim::Simulation& sim,
     std::vector<hwsim::Node*> nodes, flux::InstanceConfig config),
    (self, sim, std::move(nodes), config))

PERFBENCH_WRAP(
    void,
    _ZN9fluxpower4flux8InstanceC1ERNS_3sim13ShardedEngineESt6vectorIiSaIiEES5_IPNS_5hwsim4NodeESaISA_EENS0_14InstanceConfigE,
    eInstanceSharded,
    (flux::Instance * self, sim::ShardedEngine& engine,
     std::vector<int> island_of_rank, std::vector<hwsim::Node*> nodes,
     flux::InstanceConfig config),
    (self, engine, std::move(island_of_rank), std::move(nodes), config))

PERFBENCH_WRAP(void,
               _ZN9fluxpower4flux6Broker11load_moduleESt10shared_ptrINS0_6ModuleEE,
               eLoadModule,
               (flux::Broker * self, std::shared_ptr<flux::Module> module),
               (self, std::move(module)))

PERFBENCH_WRAP(
    obs::Counter&,
    _ZN9fluxpower3obs15MetricsRegistry7counterESt17basic_string_viewIcSt11char_traitsIcEES5_,
    eCounter,
    (obs::MetricsRegistry * self, std::string_view name, std::string_view help),
    (self, name, help))

PERFBENCH_WRAP(
    obs::Gauge&,
    _ZN9fluxpower3obs15MetricsRegistry5gaugeESt17basic_string_viewIcSt11char_traitsIcEES5_,
    eGauge,
    (obs::MetricsRegistry * self, std::string_view name, std::string_view help),
    (self, name, help))

PERFBENCH_WRAP(
    obs::Histogram&,
    _ZN9fluxpower3obs15MetricsRegistry9histogramESt17basic_string_viewIcSt11char_traitsIcEES5_St4spanIKdLm18446744073709551615EE,
    eHistogram,
    (obs::MetricsRegistry * self, std::string_view name, std::string_view help,
     std::span<const double> bounds),
    (self, name, help, bounds))

// Allocation functions: count, then allocate as usual.
void* __real__Znwm(std::size_t bytes);
void* __wrap__Znwm(std::size_t bytes) {
  perfbench::charge_allocation(bytes);
  return __real__Znwm(bytes);
}

void* __real__Znam(std::size_t bytes);
void* __wrap__Znam(std::size_t bytes) {
  perfbench::charge_allocation(bytes);
  return __real__Znam(bytes);
}

void* __real__ZnwmSt11align_val_t(std::size_t bytes, std::align_val_t align);
void* __wrap__ZnwmSt11align_val_t(std::size_t bytes, std::align_val_t align) {
  perfbench::charge_allocation(bytes);
  return __real__ZnwmSt11align_val_t(bytes, align);
}

void* __real__ZnamSt11align_val_t(std::size_t bytes, std::align_val_t align);
void* __wrap__ZnamSt11align_val_t(std::size_t bytes, std::align_val_t align) {
  perfbench::charge_allocation(bytes);
  return __real__ZnamSt11align_val_t(bytes, align);
}

}  // extern "C"
