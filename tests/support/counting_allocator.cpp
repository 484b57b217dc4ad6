#include "counting_allocator.hpp"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

// Relaxed atomics: a thread that allocates while another measures skews the
// reading but is never a data race.
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_blocks{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_requested_bytes{0};
constexpr auto kRelaxed = std::memory_order_relaxed;

void* allocate(std::size_t n) noexcept {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p != nullptr) {
    g_allocations.fetch_add(1, kRelaxed);
    g_live_blocks.fetch_add(1, kRelaxed);
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           kRelaxed);
    g_requested_bytes.fetch_add(n, kRelaxed);
  }
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_blocks.fetch_sub(1, kRelaxed);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         kRelaxed);
  std::free(p);
}

void* allocate_or_throw(std::size_t n) {
  if (void* p = allocate(n)) return p;
  throw std::bad_alloc{};
}

}  // namespace

namespace fluxpower::test {

std::uint64_t heap_allocations() noexcept {
  return g_allocations.load(kRelaxed);
}
std::int64_t heap_live_blocks() noexcept {
  return g_live_blocks.load(kRelaxed);
}
std::int64_t heap_live_bytes() noexcept { return g_live_bytes.load(kRelaxed); }
std::uint64_t heap_requested_bytes() noexcept {
  return g_requested_bytes.load(kRelaxed);
}

}  // namespace fluxpower::test

void* operator new(std::size_t n) { return allocate_or_throw(n); }
void* operator new[](std::size_t n) { return allocate_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
