#include "common/kernels/prefilter_kernels.h"

#include <bit>

#include "common/kernels/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MEDES_KERNELS_X86 1
#endif

namespace medes::kernels {

size_t NextCandidatePortable(const SeedPrefilter& filter, std::span<const uint8_t> data,
                             size_t pos, size_t last) {
  for (; pos <= last; ++pos) {
    if (filter.MayMatch(data.data() + pos)) {
      return pos;
    }
  }
  return pos;
}

#if defined(MEDES_KERNELS_X86)

__attribute__((target("avx2"))) size_t NextCandidateAvx2(const SeedPrefilter& filter,
                                                         std::span<const uint8_t> data,
                                                         size_t pos, size_t last) {
  // Both 128-bit halves hold the same 16 bytes p..p+15; dword j of the
  // shuffles is position p+j's w0 (bytes j..j+3) and w1 (bytes j+4..j+7).
  const __m256i shuf_w0 = _mm256_setr_epi8(0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6,  //
                                           4, 5, 6, 7, 5, 6, 7, 8, 6, 7, 8, 9, 7, 8, 9, 10);
  const __m256i shuf_w1 = _mm256_add_epi8(shuf_w0, _mm256_set1_epi8(4));
  const bool wide = filter.wide();
  const __m256i c1 = _mm256_set1_epi32(static_cast<int>(kPrefilterMul[0]));
  const __m256i c2 = _mm256_set1_epi32(wide ? static_cast<int>(kPrefilterMul[1]) : 0);
  const __m256i c3 = _mm256_set1_epi32(static_cast<int>(kPrefilterMul[2]));
  const __m256i c4 = _mm256_set1_epi32(wide ? static_cast<int>(kPrefilterMul[3]) : 0);
  const __m256i low5 = _mm256_set1_epi32(31);
  const int* words = reinterpret_cast<const int*>(filter.words());
  constexpr int kShift = 32 - kPrefilterIndexBits;
  for (; pos + 7 <= last && pos + 16 <= data.size(); pos += 8) {
    const __m256i bytes = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data.data() + pos)));
    const __m256i w0 = _mm256_shuffle_epi8(bytes, shuf_w0);
    const __m256i w1 = _mm256_shuffle_epi8(bytes, shuf_w1);
    const __m256i a = _mm256_srli_epi32(
        _mm256_add_epi32(_mm256_mullo_epi32(w0, c1), _mm256_mullo_epi32(w1, c2)), kShift);
    const __m256i b = _mm256_srli_epi32(
        _mm256_add_epi32(_mm256_mullo_epi32(w0, c3), _mm256_mullo_epi32(w1, c4)), kShift);
    const __m256i word_a = _mm256_i32gather_epi32(words, _mm256_srli_epi32(a, 5), 4);
    const __m256i word_b = _mm256_i32gather_epi32(words, _mm256_srli_epi32(b, 5), 4);
    const __m256i both =
        _mm256_and_si256(_mm256_srlv_epi32(word_a, _mm256_and_si256(a, low5)),
                         _mm256_srlv_epi32(word_b, _mm256_and_si256(b, low5)));
    // Bit 0 of each lane to its sign bit, one mask bit per position.
    const unsigned hits = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32(both, 31))));
    if (hits != 0) {
      return pos + static_cast<size_t>(std::countr_zero(hits));
    }
  }
  return NextCandidatePortable(filter, data, pos, last);
}

#else  // !MEDES_KERNELS_X86

size_t NextCandidateAvx2(const SeedPrefilter& filter, std::span<const uint8_t> data, size_t pos,
                         size_t last) {
  return NextCandidatePortable(filter, data, pos, last);
}

#endif  // MEDES_KERNELS_X86

size_t NextCandidate(const SeedPrefilter& filter, std::span<const uint8_t> data, size_t pos,
                     size_t last) {
  using NextFn = size_t (*)(const SeedPrefilter&, std::span<const uint8_t>, size_t, size_t);
  static const NextFn next =
      DetectCpuFeatures().avx2 ? &NextCandidateAvx2 : &NextCandidatePortable;
  return next(filter, data, pos, last);
}

}  // namespace medes::kernels
