// SHA-1 compression kernels: the scalar reference, SHA-NI, and an 8-lane
// vertical AVX2 chunk batch.
//
// Medes hashes 64-byte chunks — exactly one compression block — so besides
// the generic single-block compress used by the streaming hasher there is a
// fixed-length fast path: a 64-byte message's padding block is a compile
// time constant, so Chunk64 is two back-to-back compressions with no
// buffering or length bookkeeping. The batch entry point hashes all sampled
// chunks of a page in one call so the AVX2 variant can fill its lanes. All
// variants produce bit-identical digests (cpu_features.h).
#ifndef MEDES_COMMON_KERNELS_SHA1_KERNELS_H_
#define MEDES_COMMON_KERNELS_SHA1_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "common/kernels/cpu_features.h"

namespace medes::kernels {

// SHA-1 initialisation vector (FIPS 180-1).
inline constexpr uint32_t kSha1Init[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                                          0xC3D2E1F0u};

// Generic single 64-byte block compression: state <- compress(state, block).
// Dispatched: SHA-NI above kScalar when the CPU has it, else the scalar
// reference.
void Sha1Compress(uint32_t state[5], const uint8_t* block);
void Sha1CompressScalar(uint32_t state[5], const uint8_t* block);

// SHA-NI variant; call only when Sha1ShaNiCompiled() and the cpuid `sha`
// bit are both true (falls back to scalar on non-x86 builds).
bool Sha1ShaNiCompiled();
void Sha1CompressShaNi(uint32_t state[5], const uint8_t* block);

// Fixed-length fast path: digest *state* of exactly 64 message bytes
// (init vector, then the dispatched compress over the data block and the
// constant padding block). Callers serialise the state big-endian to get
// digest bytes.
void Sha1Chunk64(const uint8_t* chunk, uint32_t out_state[5]);

// Batch: out_state[i] = Chunk64(chunks[i]) for i in [0, n). Dispatched: the
// AVX2 variant at kAvx2 when SHA-NI is not engaged, else one Chunk64 per
// chunk.
void Sha1Chunk64Batch(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]);
// 8 chunks vertically in AVX2 lanes, the tail one Chunk64 at a time;
// requires cpuid avx2 (one Chunk64 per chunk on non-x86 builds).
void Sha1Chunk64BatchAvx2(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]);

// Rebinds the dispatched entry points (called by cpu_features).
void BindSha1Kernels(Tier tier);

}  // namespace medes::kernels

#endif  // MEDES_COMMON_KERNELS_SHA1_KERNELS_H_
