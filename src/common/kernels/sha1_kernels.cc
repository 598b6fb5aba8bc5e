#include "common/kernels/sha1_kernels.h"

#include <cstring>

#include "common/kernels/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MEDES_KERNELS_X86 1
#endif

namespace medes::kernels {
namespace {

inline uint32_t RotL(uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

inline uint32_t LoadBe32(const uint8_t* p) {
  return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) | (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}

}  // namespace

// The reference: 80 rounds over a 16-entry message-word ring.
void Sha1CompressScalar(uint32_t state[5], const uint8_t* block) {
  uint32_t w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = LoadBe32(block + 4 * t);
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3], e = state[4];
  for (int t = 0; t < 80; ++t) {
    uint32_t wt;
    if (t < 16) {
      wt = w[t];
    } else {
      wt = RotL(w[(t - 3) & 15] ^ w[(t - 8) & 15] ^ w[(t - 14) & 15] ^ w[(t - 16) & 15], 1);
      w[t & 15] = wt;
    }
    uint32_t f, k;
    if (t < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    uint32_t tmp = RotL(a, 5) + f + e + k + wt;
    e = d;
    d = c;
    c = RotL(b, 30);
    b = a;
    a = tmp;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

namespace {

using CompressFn = void (*)(uint32_t[5], const uint8_t*);

// The compression every entry point uses, chosen once per process.
CompressFn ChosenCompress() {
  static const CompressFn compress =
      DetectCpuFeatures().sha_ni ? &Sha1CompressShaNi : &Sha1CompressScalar;
  return compress;
}

}  // namespace

void Sha1Compress(uint32_t state[5], const uint8_t* block) { ChosenCompress()(state, block); }

void Sha1Chunk64(const uint8_t* chunk, uint32_t out_state[5]) {
  const CompressFn compress = ChosenCompress();
  std::memcpy(out_state, kSha1Init, sizeof(kSha1Init));
  compress(out_state, chunk);
  compress(out_state, kSha1Pad64);
}

namespace {

// The one-chunk-at-a-time batch.
void Sha1Chunk64Each(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]) {
  for (size_t i = 0; i < n; ++i) {
    Sha1Chunk64(chunks[i], out_state[i]);
  }
}

}  // namespace

#if defined(MEDES_KERNELS_X86)

namespace {

// File-scope because lambdas do not inherit the enclosing function's target
// attribute; sha1rnds4 also demands a compile-time immediate, hence the
// switch.
__attribute__((target("sha,sse4.1"))) inline __m128i Rnds4(__m128i v, __m128i ev, int func) {
  switch (func) {
    case 0:
      return _mm_sha1rnds4_epu32(v, ev, 0);
    case 1:
      return _mm_sha1rnds4_epu32(v, ev, 1);
    case 2:
      return _mm_sha1rnds4_epu32(v, ev, 2);
    default:
      return _mm_sha1rnds4_epu32(v, ev, 3);
  }
}

}  // namespace

// SHA-NI single-block compression. Follows the canonical Intel scheduling:
// four message registers msg[0..3] cycle through sha1msg1/xor/sha1msg2 while
// E alternates between two accumulators combined with sha1nexte.
__attribute__((target("sha,sse4.1"))) void Sha1CompressShaNi(uint32_t state[5],
                                                             const uint8_t* block) {
  const __m128i kBswapMask = _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll);
  __m128i abcd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  __m128i e[2];
  e[0] = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  e[1] = _mm_setzero_si128();
  const __m128i abcd_save = abcd;
  const __m128i e0_save = e[0];

  __m128i msg[4];
  for (int t = 0; t < 4; ++t) {
    msg[t] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * t));
    msg[t] = _mm_shuffle_epi8(msg[t], kBswapMask);
  }

  // Rounds 0-3: the first E addend is plain (no rotate-by-30 source yet).
  e[0] = _mm_add_epi32(e[0], msg[0]);
  e[1] = abcd;
  abcd = Rnds4(abcd, e[0], 0);

  // Rounds 4-7.
  e[1] = _mm_sha1nexte_epu32(e[1], msg[1]);
  e[0] = abcd;
  abcd = Rnds4(abcd, e[1], 0);
  msg[0] = _mm_sha1msg1_epu32(msg[0], msg[1]);

  // Rounds 8-11.
  e[0] = _mm_sha1nexte_epu32(e[0], msg[2]);
  e[1] = abcd;
  abcd = Rnds4(abcd, e[0], 0);
  msg[1] = _mm_sha1msg1_epu32(msg[1], msg[2]);
  msg[0] = _mm_xor_si128(msg[0], msg[2]);

  // Rounds 12-75: steady-state schedule.
  for (int g = 3; g < 19; ++g) {
    const int p = g & 1;
    e[p] = _mm_sha1nexte_epu32(e[p], msg[g & 3]);
    e[p ^ 1] = abcd;
    msg[(g + 1) & 3] = _mm_sha1msg2_epu32(msg[(g + 1) & 3], msg[g & 3]);
    abcd = Rnds4(abcd, e[p], g / 5);
    msg[(g + 3) & 3] = _mm_sha1msg1_epu32(msg[(g + 3) & 3], msg[g & 3]);
    msg[(g + 2) & 3] = _mm_xor_si128(msg[(g + 2) & 3], msg[g & 3]);
  }

  // Rounds 76-79.
  e[1] = _mm_sha1nexte_epu32(e[1], msg[3]);
  e[0] = abcd;
  abcd = Rnds4(abcd, e[1], 3);

  e[0] = _mm_sha1nexte_epu32(e[0], e0_save);
  abcd = _mm_add_epi32(abcd, abcd_save);
  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  state[4] = static_cast<uint32_t>(_mm_extract_epi32(e[0], 3));
}

namespace {

__attribute__((target("avx2"))) inline __m256i RotLV(__m256i x, int n) {
  return _mm256_or_si256(_mm256_slli_epi32(x, n), _mm256_srli_epi32(x, 32 - n));
}

// 80 rounds over 8 vertical lanes. `w` is the 16-entry message-word ring,
// each entry holding word t of all 8 chunks.
__attribute__((target("avx2"))) void Sha1Rounds8Avx2(__m256i s[5], __m256i w[16]) {
  __m256i a = s[0], b = s[1], c = s[2], d = s[3], e = s[4];
  for (int t = 0; t < 80; ++t) {
    __m256i wt;
    if (t < 16) {
      wt = w[t];
    } else {
      wt = _mm256_xor_si256(_mm256_xor_si256(w[(t - 3) & 15], w[(t - 8) & 15]),
                            _mm256_xor_si256(w[(t - 14) & 15], w[(t - 16) & 15]));
      wt = RotLV(wt, 1);
      w[t & 15] = wt;
    }
    __m256i f, k;
    if (t < 20) {
      f = _mm256_xor_si256(d, _mm256_and_si256(b, _mm256_xor_si256(c, d)));
      k = _mm256_set1_epi32(0x5A827999);
    } else if (t < 40) {
      f = _mm256_xor_si256(b, _mm256_xor_si256(c, d));
      k = _mm256_set1_epi32(0x6ED9EBA1);
    } else if (t < 60) {
      f = _mm256_or_si256(_mm256_and_si256(b, c),
                          _mm256_and_si256(d, _mm256_or_si256(b, c)));
      k = _mm256_set1_epi32(static_cast<int>(0x8F1BBCDCu));
    } else {
      f = _mm256_xor_si256(b, _mm256_xor_si256(c, d));
      k = _mm256_set1_epi32(static_cast<int>(0xCA62C1D6u));
    }
    __m256i tmp = _mm256_add_epi32(
        _mm256_add_epi32(RotLV(a, 5), f),
        _mm256_add_epi32(_mm256_add_epi32(e, k), wt));
    e = d;
    d = c;
    c = RotLV(b, 30);
    b = a;
    a = tmp;
  }
  s[0] = _mm256_add_epi32(s[0], a);
  s[1] = _mm256_add_epi32(s[1], b);
  s[2] = _mm256_add_epi32(s[2], c);
  s[3] = _mm256_add_epi32(s[3], d);
  s[4] = _mm256_add_epi32(s[4], e);
}

__attribute__((target("avx2"))) void Sha1Chunk64x8Avx2(const uint8_t* const* chunks,
                                                       uint32_t (*out_state)[5]) {
  __m256i s[5];
  for (int i = 0; i < 5; ++i) {
    s[i] = _mm256_set1_epi32(static_cast<int>(kSha1Init[i]));
  }
  __m256i w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = _mm256_set_epi32(static_cast<int>(LoadBe32(chunks[7] + 4 * t)),
                            static_cast<int>(LoadBe32(chunks[6] + 4 * t)),
                            static_cast<int>(LoadBe32(chunks[5] + 4 * t)),
                            static_cast<int>(LoadBe32(chunks[4] + 4 * t)),
                            static_cast<int>(LoadBe32(chunks[3] + 4 * t)),
                            static_cast<int>(LoadBe32(chunks[2] + 4 * t)),
                            static_cast<int>(LoadBe32(chunks[1] + 4 * t)),
                            static_cast<int>(LoadBe32(chunks[0] + 4 * t)));
  }
  Sha1Rounds8Avx2(s, w);
  for (int t = 0; t < 16; ++t) {
    w[t] = _mm256_set1_epi32(static_cast<int>(LoadBe32(kSha1Pad64 + 4 * t)));
  }
  Sha1Rounds8Avx2(s, w);
  alignas(32) uint32_t lanes[5][8];
  for (int i = 0; i < 5; ++i) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[i]), s[i]);
  }
  for (int l = 0; l < 8; ++l) {
    for (int i = 0; i < 5; ++i) {
      out_state[l][i] = lanes[i][l];
    }
  }
}

}  // namespace

void Sha1Chunk64BatchAvx2(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    Sha1Chunk64x8Avx2(chunks + i, out_state + i);
  }
  Sha1Chunk64Each(chunks + i, n - i, out_state + i);
}

#else  // !MEDES_KERNELS_X86

void Sha1CompressShaNi(uint32_t state[5], const uint8_t* block) {
  Sha1CompressScalar(state, block);
}

void Sha1Chunk64BatchAvx2(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]) {
  Sha1Chunk64Each(chunks, n, out_state);
}

#endif  // MEDES_KERNELS_X86

void Sha1Chunk64Batch(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]) {
  using BatchFn = void (*)(const uint8_t* const*, size_t, uint32_t(*)[5]);
  // The 8-lane batch runs only where SHA-NI is absent: on a SHA-NI host
  // each chunk goes through the SHA-NI compression instead.
  static const BatchFn batch = DetectCpuFeatures().avx2 && !DetectCpuFeatures().sha_ni
                                   ? &Sha1Chunk64BatchAvx2
                                   : &Sha1Chunk64Each;
  batch(chunks, n, out_state);
}

}  // namespace medes::kernels
