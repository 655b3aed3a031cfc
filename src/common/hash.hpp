// The content hashes every layer shares: the build graph's product
// hashes, the arc-slice hashes, route tokens and the wire's checksums.
// Deterministic across runs and platforms, so a hash taken on an origin
// compares with one taken on a replica, and incremental builds compare
// exactly with full ones.
#pragma once

#include <cstdint>
#include <string_view>

namespace navsep {

/// FNV-1a 64's offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64 over `bytes`, continuing from `seed` (by default the
/// offset basis, which gives the standard hash).
[[nodiscard]] inline std::uint64_t hash_bytes(
    std::string_view bytes, std::uint64_t seed = kFnvOffsetBasis) noexcept {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Order-sensitive combination (h(a)+h(b) must differ from h(b)+h(a)):
/// the value's bytes go through FNV, so combine(0, x) != x.
[[nodiscard]] inline std::uint64_t hash_combine(std::uint64_t seed,
                                                std::uint64_t value) noexcept {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xffull;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace navsep
