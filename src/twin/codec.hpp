// codec.hpp — byte-stable state encoder for the digital twin.
//
// The probe writes each state section with ByteWriter, and restore compares
// the bytes of a replayed scenario with the captured ones. Sections must
// therefore be byte-stable — the same sim state always encodes to the same
// bytes — and nothing ever parses them back. The encoding is deliberately
// boring: little-endian fixed-width integers, IEEE-754 bit patterns for
// doubles (NaN payloads preserved; -0.0 and 0.0 are distinct states), and
// length-prefixed strings. Containers encode size first, elements in
// canonical (insertion or key) order — never pointer or hash order.
//
// The digest is 64-bit FNV-1a over a section's bytes. It is a determinism
// fingerprint, not a cryptographic commitment: restore compares full
// section bytes as well, so a collision cannot hide a real divergence.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fluxpower::twin {

/// Streaming FNV-1a (64-bit): stable across platforms, one multiply per
/// byte — cheap enough to digest every section at capture time.
class Digest64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  void update(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint64_t h = h_;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
    h_ = h;
  }
  std::uint64_t value() const noexcept { return h_; }

  static std::uint64_t of(std::span<const std::uint8_t> bytes) noexcept {
    Digest64 d;
    d.update(bytes.data(), bytes.size());
    return d.value();
  }

 private:
  std::uint64_t h_ = kOffsetBasis;
};

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern: NaN payloads and signed zeros keep their bytes.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  const std::vector<std::uint8_t>& data() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Four-character section tag packed into a u32 (e.g. "SIM!").
constexpr std::uint32_t fourcc(char a, char b, char c, char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24;
}

/// Human-readable tag for divergence reports ("SIM!", "HW!!", ...).
inline std::string fourcc_name(std::uint32_t tag) {
  std::string s(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    s[static_cast<std::size_t>(i)] = (c >= 32 && c < 127) ? c : '?';
  }
  return s;
}

}  // namespace fluxpower::twin
