// counting_allocator.hpp — heap counters for the tests that gate allocation.
//
// Linking counting_allocator.cpp into a test binary replaces every scalar,
// array and nothrow form of the global operator new and delete with
// malloc/free that keep four counters:
//   allocations      successful allocations of any form
//   live blocks      blocks allocated and not yet freed
//   live bytes       usable bytes (malloc_usable_size) of the live blocks,
//                    so the allocator's size-class rounding counts too
//   requested bytes  bytes asked for, summed over every allocation
// The array and nothrow forms matter: a sanitizer runtime supplies its own,
// which would bypass counters placed only on the scalar form. Tests read
// the counters right before and after a measured region, with no gtest
// bookkeeping in between. The counts are process-wide: measure while no
// other thread allocates.
#pragma once

#include <cstdint>

namespace fluxpower::test {

std::uint64_t heap_allocations() noexcept;
std::int64_t heap_live_blocks() noexcept;
std::int64_t heap_live_bytes() noexcept;
std::uint64_t heap_requested_bytes() noexcept;

}  // namespace fluxpower::test
