// prefetch.hpp — software cache prefetch hints.
//
// Loops that walk many heap objects (a sensor sweep over every node-agent of
// a placement cell, a recorder tick over every node) call these a few
// elements ahead so the misses overlap with the current element's work. A
// prefetch never faults, so a null or stale address is harmless. Compilers
// without the builtin get a no-op.
#pragma once

namespace fluxpower::util {

/// Hint that `p` will be read soon.
inline void prefetch(const void* p) noexcept {
#if defined(__GNUC__)
  __builtin_prefetch(p, 0, 3);
#else
  (void)p;
#endif
}

/// Hint that `p` will be written soon.
inline void prefetch_write(const void* p) noexcept {
#if defined(__GNUC__)
  __builtin_prefetch(p, 1, 3);
#else
  (void)p;
#endif
}

}  // namespace fluxpower::util
