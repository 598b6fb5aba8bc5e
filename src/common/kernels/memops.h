// Word/vector byte-run primitives for the delta codec hot path.
//
// Match extension (how far two buffers agree) and seed equality are the
// inner loops of DeltaEncode: every candidate match runs one MemEqual over
// the seed and one MatchForward/MatchBackward over the surrounding bytes.
// Each primitive has a scalar reference and a portable SWAR variant (8-byte
// XOR + count-zeros), bound at every tier above kScalar; the unqualified
// names dispatch through the tier bound by cpu_features. Both variants
// return bit-identical results (see the contract in cpu_features.h). There
// is no AVX2 variant: a 32-byte stride did not beat SWAR at the encoder,
// the only caller.
#ifndef MEDES_COMMON_KERNELS_MEMOPS_H_
#define MEDES_COMMON_KERNELS_MEMOPS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/kernels/cpu_features.h"

namespace medes::kernels {

// Length of the longest common prefix of a[0..max) and b[0..max).
size_t MatchForward(const uint8_t* a, const uint8_t* b, size_t max);
size_t MatchForwardScalar(const uint8_t* a, const uint8_t* b, size_t max);
size_t MatchForwardSwar(const uint8_t* a, const uint8_t* b, size_t max);

// Length of the longest common suffix of a_end[-max..0) and b_end[-max..0):
// the largest m <= max with a_end[-i] == b_end[-i] for all i in [1, m].
size_t MatchBackward(const uint8_t* a_end, const uint8_t* b_end, size_t max);
size_t MatchBackwardScalar(const uint8_t* a_end, const uint8_t* b_end, size_t max);
size_t MatchBackwardSwar(const uint8_t* a_end, const uint8_t* b_end, size_t max);

// Whole-buffer equality (seed comparison; len is typically 16).
bool MemEqual(const uint8_t* a, const uint8_t* b, size_t len);
bool MemEqualScalar(const uint8_t* a, const uint8_t* b, size_t len);
bool MemEqualSwar(const uint8_t* a, const uint8_t* b, size_t len);

// Copies len bytes between non-overlapping buffers, tuned for the short
// (8–64 byte) runs delta op streams are made of. Plain memcpy semantics.
inline void CopyBytes(uint8_t* dst, const uint8_t* src, size_t len) {
  if (len <= 16) {
    // Two possibly-overlapping 8-byte moves cover every length in [9, 16];
    // shorter runs fall through to the byte loop below.
    if (len >= 8) {
      std::memcpy(dst, src, 8);
      std::memcpy(dst + len - 8, src + len - 8, 8);
      return;
    }
    for (size_t i = 0; i < len; ++i) {
      dst[i] = src[i];
    }
    return;
  }
  std::memcpy(dst, src, len);
}

// Rebinds the dispatched entry points (called by cpu_features).
void BindMemopsKernels(Tier tier);

}  // namespace medes::kernels

#endif  // MEDES_COMMON_KERNELS_MEMOPS_H_
