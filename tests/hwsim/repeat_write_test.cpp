// Tests for repeated demand and cap writes. A write whose input is already
// in force, bit for bit, skips re-deriving the grants but still ticks the
// energy meter, so energy and grants read exactly as if every write had
// recomputed them. The node stores its draw when it derives the grants;
// node_draw_w() and every meter tick must read exactly their sum.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hwsim/arm_grace.hpp"
#include "hwsim/cray_ex235a.hpp"
#include "hwsim/energy_meter.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "hwsim/intel_xeon.hpp"

namespace fluxpower::hwsim {
namespace {

std::uint64_t bits(double w) { return std::bit_cast<std::uint64_t>(w); }

template <std::size_t N>
void expect_same_bits(const FixedWattsVec<N>& a, const FixedWattsVec<N>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i]), bits(b[i])) << "index " << i;
  }
}

void expect_same_grants(const Grants& a, const Grants& b) {
  expect_same_bits(a.cpu_w, b.cpu_w);
  expect_same_bits(a.gpu_w, b.gpu_w);
  EXPECT_EQ(bits(a.mem_w), bits(b.mem_w));
  EXPECT_EQ(bits(a.base_w), bits(b.base_w));
}

// The stored draw is the sum of the grants in force, bit for bit.
void expect_draw_is_grant_sum(const Node& node) {
  EXPECT_EQ(bits(node.node_draw_w()), bits(node.grants().total()));
}

LoadDemand demand(FixedWattsVec<kMaxSockets> cpu,
                  FixedWattsVec<kMaxGpuSensors> gpu, double mem) {
  LoadDemand d;
  d.cpu_w = cpu;
  d.gpu_w = gpu;
  d.mem_w = mem;
  return d;
}

// One write of a scripted sequence.
struct Step {
  enum class Kind { Demand, Gpu, Socket, NodeCap, ClearNodeCap };
  Kind kind;
  LoadDemand load{};
  int device = 0;
  double watts = 0.0;
};

Step set_load(LoadDemand d) { return {Step::Kind::Demand, d}; }
Step gpu_cap(int gpu, double w) { return {Step::Kind::Gpu, {}, gpu, w}; }
Step socket_cap(int s, double w) { return {Step::Kind::Socket, {}, s, w}; }
Step node_cap(double w) { return {Step::Kind::NodeCap, {}, 0, w}; }
Step clear_node_cap() { return {Step::Kind::ClearNodeCap}; }

void apply(Node& node, const Step& s) {
  switch (s.kind) {
    case Step::Kind::Demand: node.set_demand(s.load); return;
    case Step::Kind::Gpu: node.set_gpu_power_cap(s.device, s.watts); return;
    case Step::Kind::Socket: node.set_socket_power_cap(s.device, s.watts); return;
    case Step::Kind::NodeCap: node.set_node_power_cap(s.watts); return;
    case Step::Kind::ClearNodeCap: node.clear_node_power_cap(); return;
  }
}

// Applies every step to `node`, one per sim instant, and only the steps
// that change their slot's input to `distinct`. After each step, `node`'s
// energy must equal, bit for bit, an EnergyMeter fed the sum of its grants
// at the instant the write reached the hardware (a write `settle_s` > 0
// stores late through the firmware-latency path), both nodes must hold the
// same grants, and each node's draw must be its grant sum.
void run_script(sim::Simulation& sim, Node& node, Node& distinct,
                const std::vector<Step>& steps, double settle_s = 0.0) {
  EnergyMeter reference;
  reference.update(sim.now(), node.grants().total());
  // Last input per slot: the demand, each GPU and socket cap, the node cap.
  std::map<std::pair<int, int>, Step> last;
  double t = sim.now();
  for (std::size_t k = 0; k < steps.size(); ++k) {
    SCOPED_TRACE("step " + std::to_string(k));
    const Step& s = steps[k];
    t += 0.731 + 0.0137 * static_cast<double>(k);
    sim.run_until(t);
    apply(node, s);

    const int slot_kind =
        s.kind == Step::Kind::ClearNodeCap ? static_cast<int>(Step::Kind::NodeCap)
                                           : static_cast<int>(s.kind);
    const auto key = std::make_pair(slot_kind, s.device);
    const auto prev = last.find(key);
    const bool repeat =
        prev != last.end() && prev->second.kind == s.kind &&
        prev->second.load == s.load && prev->second.watts == s.watts;
    if (!repeat) apply(distinct, s);
    last.insert_or_assign(key, s);

    const bool delayed = settle_s > 0.0 && (s.kind == Step::Kind::Gpu ||
                                            s.kind == Step::Kind::NodeCap);
    if (delayed) sim.run_until(t + settle_s);
    reference.update(sim.now(), node.grants().total());
    EXPECT_EQ(bits(node.energy_joules()), bits(reference.joules(sim.now())));
    expect_same_grants(node.grants(), distinct.grants());
    expect_draw_is_grant_sum(node);
    expect_draw_is_grant_sum(distinct);
    t = sim.now();
  }
}

TEST(RepeatWrites, Ac922EnergyAndGrantsMatchEveryWriteRecomputing) {
  sim::Simulation sim;
  IbmAc922Node node(sim, "lassen0");
  IbmAc922Node distinct(sim, "lassen1");
  const LoadDemand busy = demand({152.5, 147.25}, {281.3, 279.9, 250.1, 99.7},
                                 91.3);
  const LoadDemand light = demand({80.1, 77.7}, {120.3, 40.2, 38.8, 37.1}, 60.9);
  run_script(sim, node, distinct,
             {set_load(busy), set_load(busy), gpu_cap(0, 211.7), set_load(busy),
              gpu_cap(0, 211.7), gpu_cap(1, 150.3), node_cap(1333.3),
              set_load(light), node_cap(1333.3), set_load(light),
              gpu_cap(1, 150.3), clear_node_cap(), clear_node_cap(),
              set_load(busy), node_cap(1950.0), node_cap(1950.0),
              gpu_cap(0, 50.0), gpu_cap(0, 50.0), set_load(busy)});
}

TEST(RepeatWrites, Ac922DelayedStoresTickWhenTheyLand) {
  IbmAc922Config cfg;
  cfg.node_cap_latency_s = 0.25;
  cfg.gpu_cap_latency_s = 0.25;
  sim::Simulation sim;
  IbmAc922Node node(sim, "lassen0", cfg);
  IbmAc922Node distinct(sim, "lassen1", cfg);
  const LoadDemand busy = demand({152.5, 147.25}, {281.3, 279.9, 250.1, 99.7},
                                 91.3);
  run_script(sim, node, distinct,
             {set_load(busy), gpu_cap(2, 199.9), gpu_cap(2, 199.9),
              node_cap(1402.6), node_cap(1402.6), set_load(busy),
              gpu_cap(2, 180.0), gpu_cap(2, 180.0)},
             cfg.gpu_cap_latency_s);
}

TEST(RepeatWrites, Ex235aEnergyAndGrantsMatchEveryWriteRecomputing) {
  CrayEx235aConfig cfg;
  cfg.capping_enabled_for_users = true;
  sim::Simulation sim;
  CrayEx235aNode node(sim, "tioga0", cfg);
  CrayEx235aNode distinct(sim, "tioga1", cfg);
  const LoadDemand busy = demand(
      {201.7}, {260.3, 255.1, 240.9, 239.3, 270.2, 210.8, 199.4, 188.6}, 80.4);
  run_script(sim, node, distinct,
             {set_load(busy), set_load(busy), gpu_cap(3, 222.2),
              gpu_cap(3, 222.2), socket_cap(0, 170.4), set_load(busy),
              socket_cap(0, 170.4), gpu_cap(3, 600.0), gpu_cap(3, 600.0),
              set_load(busy)});
}

TEST(RepeatWrites, GraceEnergyAndGrantsMatchEveryWriteRecomputing) {
  sim::Simulation sim;
  ArmGraceNode node(sim, "grace0");
  ArmGraceNode distinct(sim, "grace1");
  const LoadDemand busy = demand({433.3}, {}, 55.5);
  const LoadDemand light = demand({120.7}, {}, 31.1);
  run_script(sim, node, distinct,
             {set_load(busy), set_load(busy), socket_cap(0, 301.9),
              socket_cap(0, 301.9), set_load(light), set_load(light),
              socket_cap(0, 20.0), socket_cap(0, 20.0), set_load(busy)});
}

TEST(RepeatWrites, XeonEnergyAndGrantsMatchEveryWriteRecomputing) {
  IntelXeonConfig cfg;
  cfg.gpus = 2;
  sim::Simulation sim;
  IntelXeonNode node(sim, "xeon0", cfg);
  IntelXeonNode distinct(sim, "xeon1", cfg);
  const LoadDemand busy = demand({301.1, 299.9}, {250.5, 240.4}, 100.3);
  run_script(sim, node, distinct,
             {set_load(busy), socket_cap(1, 180.8), socket_cap(1, 180.8),
              set_load(busy), gpu_cap(0, 140.2), gpu_cap(0, 140.2),
              gpu_cap(1, 400.0), gpu_cap(1, 400.0), set_load(busy)});
}

// ---------------------------------------------------------------------------
// Which writes re-derive grants
// ---------------------------------------------------------------------------

// A minimal vendor that counts compute_grants calls. Its constructor does
// not call idle(), so a test can watch the first grants being derived.
class CountingNode final : public Node {
 public:
  explicit CountingNode(sim::Simulation& sim) : Node(sim, "counting0") {
    init_devices(2, 50.0, 2, 30.0, 20.0);
  }

  int socket_count() const override { return 2; }
  int gpu_count() const override { return 2; }
  const char* vendor_name() const override { return "counting"; }

  int grants_derived() const noexcept { return grants_derived_; }

 protected:
  Grants compute_grants(const LoadDemand& d) const override {
    ++grants_derived_;
    Grants g;
    g.cpu_w = d.cpu_w;
    g.gpu_w = d.gpu_w;
    g.mem_w = d.mem_w;
    for (std::size_t i = 0; i < g.gpu_w.size(); ++i) {
      if (gpu_caps_[i]) g.gpu_w[i] = std::min(g.gpu_w[i], *gpu_caps_[i]);
    }
    for (std::size_t i = 0; i < g.cpu_w.size(); ++i) {
      if (socket_caps_[i]) g.cpu_w[i] = std::min(g.cpu_w[i], *socket_caps_[i]);
    }
    return g;
  }
  PowerSample read_sensors() override { return {}; }
  CapResult do_set_gpu_power_cap(int gpu, double watts) override {
    store_cap(gpu_caps_[static_cast<std::size_t>(gpu)], watts);
    return {CapStatus::Ok, watts};
  }
  CapResult do_set_socket_power_cap(int socket, double watts) override {
    store_cap(socket_caps_[static_cast<std::size_t>(socket)], watts);
    return {CapStatus::Ok, watts};
  }
  CapResult do_set_node_power_cap(double watts) override {
    store_cap(node_cap_, watts);
    return {CapStatus::Ok, watts};
  }
  CapResult do_clear_node_power_cap() override {
    store_cap(node_cap_, std::nullopt);
    return {CapStatus::Ok, std::nullopt};
  }

 private:
  mutable int grants_derived_ = 0;
};

TEST(RepeatWrites, IdleOnAFreshNodeDerivesGrants) {
  sim::Simulation sim;
  CountingNode node(sim);
  ASSERT_EQ(node.grants_derived(), 0);
  // The request in force is already the zero demand, yet no grant exists.
  node.idle();
  EXPECT_EQ(node.grants_derived(), 1);
  EXPECT_DOUBLE_EQ(node.node_draw_w(), 2 * 50.0 + 2 * 30.0 + 20.0);
  node.idle();
  EXPECT_EQ(node.grants_derived(), 2);  // idle() always re-derives
}

TEST(RepeatWrites, OnlyChangedDemandsDeriveGrants) {
  sim::Simulation sim;
  CountingNode node(sim);
  node.idle();
  const LoadDemand a = demand({100.0, 90.0}, {200.0, 0.0}, 40.0);
  node.set_demand(a);
  EXPECT_EQ(node.grants_derived(), 2);
  node.set_demand(a);
  node.set_demand(a);
  EXPECT_EQ(node.grants_derived(), 2);

  LoadDemand b = a;
  b.gpu_w[0] = 201.0;
  node.set_demand(b);
  EXPECT_EQ(node.grants_derived(), 3);
  node.set_demand(a);
  EXPECT_EQ(node.grants_derived(), 4);

  // Bit for bit, not by value: -0.0 == 0.0, but the signed zero is a new
  // input (it can reach a grant through a zero idle floor).
  LoadDemand negative_zero = a;
  negative_zero.gpu_w[1] = -0.0;
  node.set_demand(negative_zero);
  EXPECT_EQ(node.grants_derived(), 5);

  // So is a demand of another width.
  LoadDemand narrower = a;
  narrower.gpu_w.resize(1);
  node.set_demand(narrower);
  EXPECT_EQ(node.grants_derived(), 6);

  // The low-power state re-floors; the same request afterwards does not.
  node.set_low_power_state(true);
  EXPECT_EQ(node.grants_derived(), 7);
  node.set_demand(narrower);
  EXPECT_EQ(node.grants_derived(), 7);
}

TEST(RepeatWrites, OnlyChangedCapStoresDeriveGrants) {
  sim::Simulation sim;
  CountingNode node(sim);
  node.idle();
  int derived = node.grants_derived();

  auto expect_derived = [&](int more) {
    derived += more;
    EXPECT_EQ(node.grants_derived(), derived);
  };
  node.set_gpu_power_cap(0, 150.0);
  expect_derived(1);
  node.set_gpu_power_cap(0, 150.0);
  expect_derived(0);
  node.set_gpu_power_cap(1, 150.0);  // same value, another slot
  expect_derived(1);
  node.set_gpu_power_cap(0, 150.5);
  expect_derived(1);
  node.set_socket_power_cap(1, 80.0);
  expect_derived(1);
  node.set_socket_power_cap(1, 80.0);
  expect_derived(0);

  node.clear_node_power_cap();  // no node cap is set
  expect_derived(0);
  node.set_node_power_cap(900.0);
  expect_derived(1);
  node.set_node_power_cap(900.0);
  expect_derived(0);
  node.clear_node_power_cap();
  expect_derived(1);
  node.clear_node_power_cap();
  expect_derived(0);
}

TEST(RepeatWrites, Ac922WriteAtTheWedgedMaximumUnwedges) {
  IbmAc922Config cfg;
  cfg.nvml_failure_rate = 1.0;  // every GPU write fails below 1200 W
  sim::Simulation sim;
  IbmAc922Node node(sim, "lassen0", cfg);
  IbmAc922Node never_wedged(sim, "lassen1", cfg);
  const LoadDemand busy = demand({150.0, 150.0}, {280.0, 280.0, 280.0, 280.0},
                                 90.0);
  node.set_demand(busy);
  never_wedged.set_demand(busy);

  node.set_node_power_cap(1100.0);
  for (int i = 0; i < 64 && !node.gpu_cap_wedged(0); ++i) {
    node.set_gpu_power_cap(0, 150.0);
  }
  ASSERT_TRUE(node.gpu_cap_wedged(0));
  ASSERT_EQ(node.gpu_power_cap(0).value_or(0.0), cfg.gpu_max_w);

  // Above the failure threshold the OCC derives 216 W per GPU; the wedged
  // GPU escapes that limit.
  sim.run_until(1.0);
  node.set_node_power_cap(1800.0);
  never_wedged.set_node_power_cap(1800.0);
  EXPECT_GT(node.grants().gpu_w[0], never_wedged.grants().gpu_w[0]);

  // A successful write of the value the wedge already stored un-wedges the
  // GPU, and the derived limit holds again.
  sim.run_until(2.0);
  EXPECT_TRUE(node.set_gpu_power_cap(0, cfg.gpu_max_w).ok());
  never_wedged.set_gpu_power_cap(0, cfg.gpu_max_w);
  EXPECT_FALSE(node.gpu_cap_wedged(0));
  expect_same_grants(node.grants(), never_wedged.grants());
  EXPECT_EQ(node.node_draw_w(), never_wedged.node_draw_w());
}

// ---------------------------------------------------------------------------
// The stored draw
// ---------------------------------------------------------------------------

TEST(CachedDraw, Ac922WedgeFlipsKeepTheDrawTheGrantSum) {
  IbmAc922Config cfg;
  cfg.nvml_failure_rate = 1.0;  // every GPU write fails below 1200 W
  sim::Simulation sim;
  IbmAc922Node node(sim, "lassen0", cfg);
  node.set_demand(demand({150.0, 150.0}, {280.0, 280.0, 280.0, 280.0}, 90.0));
  node.set_node_power_cap(1100.0);
  expect_draw_is_grant_sum(node);
  for (int i = 0; i < 64 && !node.gpu_cap_wedged(1); ++i) {
    node.set_gpu_power_cap(1, 150.0);
    expect_draw_is_grant_sum(node);
  }
  ASSERT_TRUE(node.gpu_cap_wedged(1));
  sim.run_until(1.0);
  node.set_node_power_cap(1800.0);  // the wedged GPU escapes the limit
  expect_draw_is_grant_sum(node);
  ASSERT_TRUE(node.set_gpu_power_cap(1, cfg.gpu_max_w).ok());  // un-wedges
  ASSERT_FALSE(node.gpu_cap_wedged(1));
  expect_draw_is_grant_sum(node);
}

// One node of each vendor: 0 AC922, 1 EX235a, 2 Grace, 3 Xeon.
std::unique_ptr<Node> make_vendor_node(sim::Simulation& sim, int vendor) {
  switch (vendor) {
    case 0: return std::make_unique<IbmAc922Node>(sim, "lassen0");
    case 1: {
      CrayEx235aConfig tioga;
      tioga.capping_enabled_for_users = true;
      return std::make_unique<CrayEx235aNode>(sim, "tioga0", tioga);
    }
    case 2: return std::make_unique<ArmGraceNode>(sim, "grace0");
    default: {
      IntelXeonConfig xeon;
      xeon.gpus = 2;
      return std::make_unique<IntelXeonNode>(sim, "xeon0", xeon);
    }
  }
}

// Low power on and off and idle() on every vendor, each after a load that
// moves the draw, with the energy integral checked against a reference
// meter fed the grant sum at every refresh.
TEST(CachedDraw, LowPowerAndIdleKeepTheDrawTheGrantSum) {
  for (int vendor = 0; vendor < 4; ++vendor) {
    sim::Simulation sim;
    const std::unique_ptr<Node> owned = make_vendor_node(sim, vendor);
    Node& node = *owned;
    SCOPED_TRACE(node.vendor_name());
    LoadDemand busy;
    busy.cpu_w.assign(static_cast<std::size_t>(node.socket_count()), 211.3);
    busy.gpu_w.assign(node.idle_demand().gpu_w.size(), 233.7);
    busy.mem_w = 77.9;
    EnergyMeter reference;
    reference.update(sim.now(), node.grants().total());
    double t = sim.now();
    auto check = [&] {
      reference.update(sim.now(), node.grants().total());
      EXPECT_EQ(bits(node.energy_joules()), bits(reference.joules(sim.now())));
      expect_draw_is_grant_sum(node);
      sim.run_until(t += 0.913);
    };
    node.set_demand(busy);
    check();
    node.set_low_power_state(true);
    check();
    node.set_demand(busy);  // repeated: the meter ticks, nothing else
    check();
    node.idle();
    check();
    const double parked = node.node_draw_w();
    node.set_low_power_state(false);
    check();
    EXPECT_GT(node.node_draw_w(), parked);
    node.set_demand(busy);
    check();
    node.idle();
    check();
  }
}

}  // namespace
}  // namespace fluxpower::hwsim
