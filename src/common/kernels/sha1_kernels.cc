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

// Expanded message schedule W[0..79] of the constant padding block, in
// SHA-NI register order: group g holds W[4g..4g+3] with W[4g] in the top
// dword, as a byte-swapped load of the block would.
struct PadSchedule {
  alignas(16) uint32_t words[20][4];
};

constexpr PadSchedule MakePadSchedule() {
  uint32_t w[80] = {};
  for (int t = 0; t < 16; ++t) {
    w[t] = (uint32_t{kSha1Pad64[4 * t]} << 24) | (uint32_t{kSha1Pad64[4 * t + 1]} << 16) |
           (uint32_t{kSha1Pad64[4 * t + 2]} << 8) | uint32_t{kSha1Pad64[4 * t + 3]};
  }
  for (int t = 16; t < 80; ++t) {
    const uint32_t x = w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16];
    w[t] = (x << 1) | (x >> 31);
  }
  PadSchedule s{};
  for (int g = 0; g < 20; ++g) {
    for (int j = 0; j < 4; ++j) {
      s.words[g][j] = w[4 * g + 3 - j];
    }
  }
  return s;
}

constexpr PadSchedule kPadSchedule = MakePadSchedule();

// Message words of the padding block's round group g.
inline __m128i PadGroup(int g) {
  return _mm_load_si128(reinterpret_cast<const __m128i*>(kPadSchedule.words[g]));
}

// Sha1Chunk64 of L chunks through one SHA-NI instruction stream: every
// step below runs for each lane before the next, so the lanes' sha1rnds4
// chains overlap instead of waiting on one another's latency. The data
// block expands its schedule with sha1msg1/sha1msg2 as the single-block
// compression does; the padding block's schedule is the constant
// kPadSchedule. Lane state: abcd in sha1rnds4 order, and e alternating
// between two accumulators. A data-block lane keeps seven registers live
// and SHA-NI has only the 16 legacy xmm registers, so two lanes is the
// most that runs without spills.
template <int L>
__attribute__((target("sha,sse4.1"))) void Sha1Chunk64LanesShaNi(const uint8_t* const* chunks,
                                                                 uint32_t (*out_state)[5]) {
  const __m128i kBswapMask = _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll);
  const __m128i abcd_init =
      _mm_set_epi32(static_cast<int>(kSha1Init[0]), static_cast<int>(kSha1Init[1]),
                    static_cast<int>(kSha1Init[2]), static_cast<int>(kSha1Init[3]));
  const __m128i e_init = _mm_set_epi32(static_cast<int>(kSha1Init[4]), 0, 0, 0);
  __m128i abcd[L], e0[L], e1[L], msg[L][4];

  // Data block.
  for (int l = 0; l < L; ++l) {
    for (int t = 0; t < 4; ++t) {
      msg[l][t] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(chunks[l] + 16 * t)), kBswapMask);
    }
    e0[l] = _mm_add_epi32(e_init, msg[l][0]);
    e1[l] = abcd_init;
    abcd[l] = _mm_sha1rnds4_epu32(abcd_init, e0[l], 0);
  }
  for (int l = 0; l < L; ++l) {
    e1[l] = _mm_sha1nexte_epu32(e1[l], msg[l][1]);
    e0[l] = abcd[l];
    abcd[l] = _mm_sha1rnds4_epu32(abcd[l], e1[l], 0);
    msg[l][0] = _mm_sha1msg1_epu32(msg[l][0], msg[l][1]);
  }
  for (int l = 0; l < L; ++l) {
    e0[l] = _mm_sha1nexte_epu32(e0[l], msg[l][2]);
    e1[l] = abcd[l];
    abcd[l] = _mm_sha1rnds4_epu32(abcd[l], e0[l], 0);
    msg[l][1] = _mm_sha1msg1_epu32(msg[l][1], msg[l][2]);
    msg[l][0] = _mm_xor_si128(msg[l][0], msg[l][2]);
  }
#pragma GCC unroll 16
  for (int g = 3; g < 19; ++g) {
    for (int l = 0; l < L; ++l) {
      __m128i& ep = (g & 1) != 0 ? e1[l] : e0[l];
      __m128i& eq = (g & 1) != 0 ? e0[l] : e1[l];
      ep = _mm_sha1nexte_epu32(ep, msg[l][g & 3]);
      eq = abcd[l];
      msg[l][(g + 1) & 3] = _mm_sha1msg2_epu32(msg[l][(g + 1) & 3], msg[l][g & 3]);
      abcd[l] = Rnds4(abcd[l], ep, g / 5);
      msg[l][(g + 3) & 3] = _mm_sha1msg1_epu32(msg[l][(g + 3) & 3], msg[l][g & 3]);
      msg[l][(g + 2) & 3] = _mm_xor_si128(msg[l][(g + 2) & 3], msg[l][g & 3]);
    }
  }
  // Rounds 76-79, then the feed-forward. The chaining value the padding
  // block starts from is kept for its own feed-forward.
  __m128i abcd_mid[L], e_mid[L];
  for (int l = 0; l < L; ++l) {
    e1[l] = _mm_sha1nexte_epu32(e1[l], msg[l][3]);
    e0[l] = abcd[l];
    abcd[l] = _mm_sha1rnds4_epu32(abcd[l], e1[l], 3);
    e_mid[l] = _mm_sha1nexte_epu32(e0[l], e_init);
    abcd_mid[l] = _mm_add_epi32(abcd[l], abcd_init);
  }

  // Padding block.
  for (int l = 0; l < L; ++l) {
    e0[l] = _mm_add_epi32(e_mid[l], PadGroup(0));
    e1[l] = abcd_mid[l];
    abcd[l] = _mm_sha1rnds4_epu32(abcd_mid[l], e0[l], 0);
  }
#pragma GCC unroll 19
  for (int g = 1; g < 20; ++g) {
    for (int l = 0; l < L; ++l) {
      __m128i& ep = (g & 1) != 0 ? e1[l] : e0[l];
      __m128i& eq = (g & 1) != 0 ? e0[l] : e1[l];
      ep = _mm_sha1nexte_epu32(ep, PadGroup(g));
      eq = abcd[l];
      abcd[l] = Rnds4(abcd[l], ep, g / 5);
    }
  }
  for (int l = 0; l < L; ++l) {
    e0[l] = _mm_sha1nexte_epu32(e0[l], e_mid[l]);
    abcd[l] = _mm_shuffle_epi32(_mm_add_epi32(abcd[l], abcd_mid[l]), 0x1B);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out_state[l]), abcd[l]);
    out_state[l][4] = static_cast<uint32_t>(_mm_extract_epi32(e0[l], 3));
  }
}

}  // namespace

void Sha1Chunk64BatchShaNi(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    Sha1Chunk64LanesShaNi<2>(chunks + i, out_state + i);
  }
  if (i < n) {
    Sha1Chunk64LanesShaNi<1>(chunks + i, out_state + i);
  }
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

void Sha1Chunk64BatchShaNi(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]) {
  Sha1Chunk64Each(chunks, n, out_state);
}

void Sha1Chunk64BatchAvx2(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]) {
  Sha1Chunk64Each(chunks, n, out_state);
}

#endif  // MEDES_KERNELS_X86

void Sha1Chunk64Batch(const uint8_t* const* chunks, size_t n, uint32_t (*out_state)[5]) {
  using BatchFn = void (*)(const uint8_t* const*, size_t, uint32_t(*)[5]);
  static const BatchFn batch = [] {
    const CpuFeatures cpu = DetectCpuFeatures();
    if (cpu.sha_ni) {
      return &Sha1Chunk64BatchShaNi;
    }
    return cpu.avx2 ? &Sha1Chunk64BatchAvx2 : &Sha1Chunk64Each;
  }();
  batch(chunks, n, out_state);
}

}  // namespace medes::kernels
