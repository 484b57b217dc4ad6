// state_codec.hpp — tiny append-only encoders for policy state blobs.
//
// Node plugins serialize their mutable state into a raw byte vector (the
// twin carries those blobs in its POL section and digests them). Layout
// matches twin::ByteWriter's primitives — little-endian fixed width, f64 as
// IEEE bits — so the blobs are stable across platforms and the digests are
// meaningful determinism tripwires.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace fluxpower::policy {

inline void state_put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void state_put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void state_put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  state_put_u64(out, bits);
}

inline void state_put_bool(std::vector<std::uint8_t>& out, bool v) {
  out.push_back(v ? 1 : 0);
}

}  // namespace fluxpower::policy
