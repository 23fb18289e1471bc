// Deterministic stateless hashing for the generator.
//
// Some per-(AS, origin) decisions (TE overrides, geo tags) must be
// reproducible at route-extraction time without replaying a sequential RNG;
// they are derived from splitmix64 of the participating identifiers instead.
// These are pure functions of their inputs — the same arguments yield the
// same bits on every platform, which keeps `generate <dir> <seed>` output
// byte-identical.  test_util pins known answers.
#pragma once

#include <cstdint>

namespace htor {

/// Fast, well-distributed 64-bit mix (Steele et al.'s SplitMix64 finalizer).
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Combine two words so that neither can cancel the other.
inline std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ splitmix64(b));
}

/// Deterministic uniform double in [0, 1) from a hash value.
inline double hash_unit(std::uint64_t h) {
  return static_cast<double>(splitmix64(h) >> 11) * 0x1.0p-53;
}

}  // namespace htor
