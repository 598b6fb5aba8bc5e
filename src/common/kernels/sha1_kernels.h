// SHA-1 compression kernels: the scalar reference, SHA-NI, and two chunk
// batches — SHA-NI with two chunks interleaved, and 8 vertical AVX2 lanes.
//
// Medes hashes 64-byte chunks — exactly one compression block — so besides
// the generic single-block compress used by the streaming hasher there is a
// fixed-length fast path: a 64-byte message's padding block is a compile
// time constant, so Chunk64 is two back-to-back compressions with no
// buffering or length bookkeeping. The batch entry point hashes all sampled
// chunks of a page in one call, so a batch variant can overlap chunks: the
// SHA-NI one runs two chunks' latency-bound sha1rnds4 chains side by side,
// and the AVX2 one fills its 8 lanes. All variants produce bit-identical
// digests; cpu_features.h says which one each entry point runs.
#ifndef MEDES_COMMON_KERNELS_SHA1_KERNELS_H_
#define MEDES_COMMON_KERNELS_SHA1_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace medes::kernels {

// SHA-1 initialisation vector (FIPS 180-1).
inline constexpr uint32_t kSha1Init[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                                          0xC3D2E1F0u};

// Padding block for a message of exactly 64 bytes: 0x80, 54 zero bytes,
// then the 64-bit big-endian bit length (512 = 0x200).
inline constexpr uint8_t kSha1Pad64[64] = {
    0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0,    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x00};

// Generic single 64-byte block compression: state <- compress(state, block).
// SHA-NI when the CPU has it, else the scalar reference.
void Sha1Compress(uint32_t state[5], const uint8_t* block);
void Sha1CompressScalar(uint32_t state[5], const uint8_t* block);

// SHA-NI variant; call only when DetectCpuFeatures().sha_ni (the scalar
// compress on non-x86 builds).
void Sha1CompressShaNi(uint32_t state[5], const uint8_t* block);

// Fixed-length fast path: digest *state* of exactly 64 message bytes
// (init vector, then Sha1Compress over the data block and the constant
// padding block). Callers serialise the state big-endian to get
// digest bytes.
void Sha1Chunk64(const uint8_t* chunk, uint32_t out_state[5]);

// Batch: out_state[i] = Chunk64(chunks[i]) for i in [0, n): the
// interleaved SHA-NI variant when the CPU has SHA-NI, else the AVX2 variant
// when it has AVX2, else one Chunk64 per chunk.
void Sha1Chunk64Batch(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]);
// Pairs of chunks, then a last single one, each pair's four compressions
// interleaved in one SHA-NI instruction stream; requires cpuid sha (one
// Chunk64 per chunk on non-x86 builds).
void Sha1Chunk64BatchShaNi(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]);
// 8 chunks vertically in AVX2 lanes, the tail one Chunk64 at a time;
// requires cpuid avx2 (one Chunk64 per chunk on non-x86 builds).
void Sha1Chunk64BatchAvx2(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]);

}  // namespace medes::kernels

#endif  // MEDES_COMMON_KERNELS_SHA1_KERNELS_H_
