// Tests for the allocation-free hwsim/app hot path: an app step, every
// single cap write and a multi-GPU cap write run without touching the heap.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>

#include "apps/app_runtime.hpp"
#include "counting_allocator.hpp"
#include "hwsim/arm_grace.hpp"
#include "hwsim/cray_ex235a.hpp"
#include "hwsim/ibm_ac922.hpp"
#include "hwsim/intel_xeon.hpp"
#include "variorum/variorum.hpp"

namespace fluxpower::hwsim {
namespace {

LoadDemand busy_ac922() {
  LoadDemand d;
  d.cpu_w = {150, 150};
  d.gpu_w = {280, 280, 280, 280};
  d.mem_w = 90;
  return d;
}

// ---------------------------------------------------------------------------
// Zero-allocation proofs
// ---------------------------------------------------------------------------

TEST(HotPathAlloc, AppStepOverMixedVendorsAllocatesNothing) {
  sim::Simulation sim;
  IbmAc922Node lassen(sim, "lassen0");
  CrayEx235aNode tioga(sim, "tioga0");
  ArmGraceNode grace(sim, "grace0");
  lassen.set_gpu_power_cap(0, 150.0);  // one grant below demand
  const auto prof = apps::make_profile(apps::AppKind::Gemm,
                                       Platform::LassenIbmAc922, 3);
  apps::AppRuntime rt(sim, {&lassen, &tioga, &grace}, prof);
  bool done = false;
  rt.start([&] { done = true; });
  // Warm-up: the first demand and re-arm, then the engine's first drained
  // bucket, whose storage is the first its free list holds.
  ASSERT_TRUE(sim.step());
  ASSERT_TRUE(sim.step());

  std::uint64_t before = test::heap_allocations();
  const bool stepped = sim.step();
  std::uint64_t after = test::heap_allocations();
  ASSERT_TRUE(stepped);
  EXPECT_EQ(after - before, 0u);

  before = test::heap_allocations();
  sim.run_until(sim.now() + 100.0);  // 200 more steps, across phases
  after = test::heap_allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_FALSE(done);
  EXPECT_GT(rt.work_done(), 0.0);
  EXPECT_LT(lassen.grants().gpu_w[0], lassen.demand().gpu_w[0]);
  EXPECT_GT(tioga.node_draw_w(), 0.0);
}

TEST(HotPathAlloc, SingleCapWritesAllocateNothing) {
  sim::Simulation sim;
  IbmAc922Node lassen(sim, "lassen0");
  IntelXeonNode xeon(sim, "xeon0");
  lassen.set_demand(busy_ac922());
  lassen.set_gpu_power_cap(0, 250.0);  // warm-up
  xeon.set_socket_power_cap(0, 200.0);

  std::uint64_t before = test::heap_allocations();
  const CapResult gpu = lassen.set_gpu_power_cap(1, 200.0);
  std::uint64_t after = test::heap_allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(gpu.ok());

  before = test::heap_allocations();
  const CapResult node = lassen.set_node_power_cap(1800.0);
  after = test::heap_allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(node.ok());

  before = test::heap_allocations();
  const CapResult socket = xeon.set_socket_power_cap(1, 150.0);
  after = test::heap_allocations();
  EXPECT_EQ(after - before, 0u);
  EXPECT_TRUE(socket.ok());
}

TEST(HotPathAlloc, CapEachGpuAllocatesNothing) {
  sim::Simulation sim;
  IbmAc922Node lassen(sim, "lassen0");
  lassen.set_demand(busy_ac922());
  (void)variorum::cap_each_gpu_power_limit(lassen, 250.0);  // warm-up

  const std::uint64_t before = test::heap_allocations();
  const variorum::GpuCapResults results =
      variorum::cap_each_gpu_power_limit(lassen, 200.0);
  const std::uint64_t after = test::heap_allocations();
  EXPECT_EQ(after - before, 0u);
  ASSERT_EQ(results.size(), 4u);
  for (const CapResult& r : results) EXPECT_TRUE(r.ok());
}

// The gates above see array allocations too: a sanitizer runtime's own
// operator new[] would otherwise bypass the counter.
TEST(HotPathAlloc, CounterSeesArrayNew) {
  const std::uint64_t before = test::heap_allocations();
  void* block = ::operator new[](64);
  const std::uint64_t after = test::heap_allocations();
  ::operator delete[](block);
  EXPECT_EQ(after - before, 1u);
}

}  // namespace
}  // namespace fluxpower::hwsim
