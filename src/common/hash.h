// Lightweight non-cryptographic hashing helpers (FNV-1a, hash combining).
#ifndef MEDES_COMMON_HASH_H_
#define MEDES_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace medes {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// 64-bit FNV-1a. Fast, decent distribution; used for table keys where a
// cryptographic hash would be overkill.
inline uint64_t Fnv1a64(std::span<const uint8_t> data, uint64_t seed = kFnvOffsetBasis) {
  uint64_t h = seed;
  for (uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

// Boost-style hash combine with a 64-bit golden-ratio constant.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4));
}

// Finalizer from SplitMix64 — turns a weak integer key into a well-mixed one.
inline uint64_t MixBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace medes

#endif  // MEDES_COMMON_HASH_H_
