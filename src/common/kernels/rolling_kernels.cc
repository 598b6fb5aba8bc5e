#include "common/kernels/rolling_kernels.h"

#include <bit>
#include <cstring>

#include "common/kernels/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MEDES_KERNELS_X86 1
#endif

namespace medes::kernels {
namespace {

constexpr uint16_t kB16 = static_cast<uint16_t>(kRollingBase);

// The portable walk keeps hashes in uint32_t: unsigned arithmetic wraps
// mod 2^32, which agrees mod 2^16, so the low 16 bits are the 16-bit hash
// and no 16-bit (partial-register) operation is needed.
inline uint32_t InitWindow16(const uint8_t* data, size_t window) {
  uint32_t h = 0;
  for (size_t i = 0; i < window; ++i) {
    h = h * kB16 + data[i];
  }
  return h;
}

// (h - outgoing*B^(W-1))*B + incoming, written as h*B + incoming -
// outgoing*pb with pb = B^W mod 2^16, so only one multiply sits on the
// dependency chain.
inline uint32_t Roll16(uint32_t h, uint8_t outgoing, uint8_t incoming, uint32_t pb) {
  return h * kB16 + incoming - outgoing * pb;
}

// The selection test, copied out of the rule so the hit stores (which may
// alias anything of type uint16_t) do not force it to be reloaded.
struct Matcher {
  uint32_t mask;
  uint32_t pattern;

  // Tests the hash of position p and appends p at `dst` on a hit; returns
  // the next free slot. Sampling masks make hits rare, so the branch is
  // predictable and the scan stores nothing between them.
  uint16_t* Record(uint32_t h, size_t p, uint16_t* dst) const {
    if ((h & mask) == pattern) {
      *dst++ = static_cast<uint16_t>(p);
    }
    return dst;
  }
};

// The variants split positions into `lanes` contiguous blocks of `block`
// (the last block also takes the remainder). Lane l records its hits
// relative to its block start in out[l*block, end[l]), a region it owns
// since it cannot hit more positions than it scans; this rebases them and
// packs them into one ascending run.
size_t PackLaneHits(uint16_t* out, size_t block, uint16_t* const* end, size_t lanes) {
  uint16_t* packed = end[0];
  for (size_t l = 1; l < lanes; ++l) {
    const uint16_t offset = static_cast<uint16_t>(l * block);
    for (const uint16_t* hit = out + l * block; hit != end[l]; ++hit) {
      *packed++ = static_cast<uint16_t>(*hit + offset);
    }
  }
  return static_cast<size_t>(packed - out);
}

}  // namespace

SampleRule MakeSampleRule(size_t window, uint16_t mask, uint16_t pattern) {
  uint64_t pow = 1;
  for (size_t i = 1; i < window; ++i) {
    pow *= kRollingBase;
  }
  return {window, static_cast<uint16_t>(pow), mask, pattern};
}

size_t SelectWindowsPortable(const SampleRule& rule, const uint8_t* data, size_t n,
                             uint16_t* out) {
  const size_t w = rule.window;
  const size_t count = n - w + 1;
  const uint32_t pb = uint32_t{rule.pow_w1} * kB16;
  const Matcher m{rule.mask, rule.pattern};
  // The serial walk is latency-bound on its multiply chain. Four
  // contiguous blocks give four independent chains the CPU can overlap, at
  // the cost of three extra window initialisations — not worth it for
  // short inputs.
  constexpr size_t kLanes = 4;
  if (count < kLanes * 2 || count < w * kLanes / 2) {
    uint32_t h = InitWindow16(data, w);
    uint16_t* cur = m.Record(h, 0, out);
    for (size_t p = 1; p < count; ++p) {
      h = Roll16(h, data[p - 1], data[p - 1 + w], pb);
      cur = m.Record(h, p, cur);
    }
    return static_cast<size_t>(cur - out);
  }
  const size_t block = count / kLanes;
  uint32_t h[kLanes];
  uint16_t* cur[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    h[l] = InitWindow16(data + l * block, w);
    cur[l] = m.Record(h[l], 0, out + l * block);
  }
  // Step i of lane l drops byte data[l*block + i - 1] and adds byte
  // data[l*block + i - 1 + w]; `lane` points at data + i - 1.
  const uint8_t* lane = data;
  for (size_t i = 1; i < block; ++i, ++lane) {
    for (size_t l = 0; l < kLanes; ++l) {
      h[l] = Roll16(h[l], lane[l * block], lane[l * block + w], pb);
      cur[l] = m.Record(h[l], i, cur[l]);
    }
  }
  // The last block is longer when count % kLanes != 0.
  constexpr size_t kLast = kLanes - 1;
  for (size_t i = block; i < count - kLast * block; ++i) {
    const size_t p = kLast * block + i;
    h[kLast] = Roll16(h[kLast], data[p - 1], data[p - 1 + w], pb);
    cur[kLast] = m.Record(h[kLast], i, cur[kLast]);
  }
  return PackLaneHits(out, block, cur, kLanes);
}

#if defined(MEDES_KERNELS_X86)

namespace {

constexpr size_t kVecLanes = 16;
constexpr size_t kVecMaxWindow = 256;
constexpr size_t kVecMaxSteps = kSelectMaxPositions / kVecLanes;
constexpr size_t kVecMaxRows = kVecMaxSteps + kVecMaxWindow;  // a multiple of 32

// Two in-place 16x16 byte transposes, one per 128-bit half: on return
// half k of v[j] holds byte j of half k of every input row, row i in byte
// i. Four unpack stages of 8-, 16-, 32- and 64-bit interleaves, each
// pairing neighbouring row groups; AVX2 unpacks never cross the halves.
__attribute__((target("avx2"))) inline void Transpose16x16x2(__m256i v[16]) {
  __m256i s1[8][2];  // [row pair][column half]
  for (size_t r = 0; r < 8; ++r) {
    s1[r][0] = _mm256_unpacklo_epi8(v[2 * r], v[2 * r + 1]);
    s1[r][1] = _mm256_unpackhi_epi8(v[2 * r], v[2 * r + 1]);
  }
  __m256i s2[4][4];  // [row quad][column quad]
  for (size_t q = 0; q < 4; ++q) {
    for (size_t h = 0; h < 2; ++h) {
      s2[q][2 * h] = _mm256_unpacklo_epi16(s1[2 * q][h], s1[2 * q + 1][h]);
      s2[q][2 * h + 1] = _mm256_unpackhi_epi16(s1[2 * q][h], s1[2 * q + 1][h]);
    }
  }
  __m256i s3[2][8];  // [row octet][column pair]
  for (size_t o = 0; o < 2; ++o) {
    for (size_t c = 0; c < 4; ++c) {
      s3[o][2 * c] = _mm256_unpacklo_epi32(s2[2 * o][c], s2[2 * o + 1][c]);
      s3[o][2 * c + 1] = _mm256_unpackhi_epi32(s2[2 * o][c], s2[2 * o + 1][c]);
    }
  }
  for (size_t p = 0; p < 8; ++p) {
    v[2 * p] = _mm256_unpacklo_epi64(s3[0][p], s3[1][p]);
    v[2 * p + 1] = _mm256_unpackhi_epi64(s3[0][p], s3[1][p]);
  }
}

// The 16 bytes at data[off], or those before data[n] followed by zeros.
__attribute__((target("avx2"))) inline __m128i LoadUpTo16(const uint8_t* data, size_t n,
                                                          size_t off) {
  if (off + 16 <= n) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + off));
  }
  uint8_t pad[16] = {};
  if (off < n) {
    std::memcpy(pad, data + off, n - off);
  }
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(pad));
}

// Row r of the lane-major buffer, widened to one 16-bit value per lane.
__attribute__((target("avx2"))) inline __m256i LaneRow(const uint8_t* lanes, size_t r) {
  const auto* row = reinterpret_cast<const __m128i*>(lanes + r * kVecLanes);
  return _mm256_cvtepu8_epi16(_mm_load_si128(row));
}

// Bit 2l set iff lane l's hash matches; the 16-bit compare sets two bytes.
__attribute__((target("avx2"))) inline uint32_t MatchBits(__m256i h, __m256i mask, __m256i pat) {
  const __m256i eq = _mm256_cmpeq_epi16(_mm256_and_si256(h, mask), pat);
  return static_cast<uint32_t>(_mm256_movemask_epi8(eq)) & 0x55555555u;
}

}  // namespace

__attribute__((target("avx2"))) size_t SelectWindowsAvx2(const SampleRule& rule,
                                                         const uint8_t* data, size_t n,
                                                         uint16_t* out) {
  const size_t w = rule.window;
  const size_t count = n - w + 1;
  if (w > kVecMaxWindow || count < kVecLanes * kVecLanes) {
    return SelectWindowsPortable(rule, data, n, out);
  }
  // Lane l scans positions [l*steps, (l+1)*steps); lane 15 also takes the
  // count % 16 remainder, finished by a scalar tail. Its steps read the
  // bytes data[l*steps + r] for r < rows, stored lane-major: row r holds
  // that byte of all 16 lanes, so one 16-byte load feeds one vector step.
  const size_t steps = count / kVecLanes;
  const size_t rows = steps + w - 1;
  alignas(32) uint8_t lanes[kVecMaxRows * kVecLanes];
  for (size_t r0 = 0; r0 < rows; r0 += 32) {
    // Rows r0.. in the low halves, rows r0 + 16.. in the high halves. Only
    // the final tiles can run past the input, and those rows (>= rows) are
    // never read back.
    __m256i v[kVecLanes];
    for (size_t l = 0; l < kVecLanes; ++l) {
      const size_t off = l * steps + r0;
      v[l] = _mm256_set_m128i(LoadUpTo16(data, n, off + 16), LoadUpTo16(data, n, off));
    }
    Transpose16x16x2(v);
    for (size_t j = 0; j < 16; ++j) {
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes + (r0 + j) * kVecLanes),
                      _mm256_castsi256_si128(v[j]));
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes + (r0 + 16 + j) * kVecLanes),
                      _mm256_extracti128_si256(v[j], 1));
    }
  }

  // Both loops advance two rows per iteration, h*B^2 + (a*B + b), so one
  // multiply-add per two positions sits on the dependency chain.
  const __m256i vb = _mm256_set1_epi16(static_cast<short>(kB16));
  const __m256i vb2 = _mm256_set1_epi16(static_cast<short>(kB16 * kB16));
  const __m256i vpb = _mm256_set1_epi16(static_cast<short>(rule.pow_w1 * kB16));
  const __m256i vmask = _mm256_set1_epi16(static_cast<short>(rule.mask));
  const __m256i vpattern = _mm256_set1_epi16(static_cast<short>(rule.pattern));
  __m256i h = _mm256_setzero_si256();
  size_t r = w % 2;
  if (r == 1) {
    h = LaneRow(lanes, 0);
  }
  for (; r < w; r += 2) {
    const __m256i pair =
        _mm256_add_epi16(_mm256_mullo_epi16(LaneRow(lanes, r), vb), LaneRow(lanes, r + 1));
    h = _mm256_add_epi16(_mm256_mullo_epi16(h, vb2), pair);
  }
  // Steps with any hit, in order, with their match bits. A step hits with
  // probability about lanes / 2^(mask bits) (16/512 at the default rule),
  // so the branch is predictable and most steps store nothing.
  uint32_t hit_bits[kVecMaxSteps];
  uint16_t hit_step[kVecMaxSteps];
  size_t hit_steps = 0;
  const auto record = [&](size_t s, uint32_t bits) {
    if (bits != 0) {
      hit_bits[hit_steps] = bits;
      hit_step[hit_steps] = static_cast<uint16_t>(s);
      ++hit_steps;
    }
  };
  record(0, MatchBits(h, vmask, vpattern));
  // Step s drops row s - 1 and adds row s - 1 + w: h' = h*B + d(s).
  size_t s = 1;
  for (; s + 1 < steps; s += 2) {
    const __m256i d0 = _mm256_sub_epi16(LaneRow(lanes, s - 1 + w),
                                        _mm256_mullo_epi16(LaneRow(lanes, s - 1), vpb));
    const __m256i d1 =
        _mm256_sub_epi16(LaneRow(lanes, s + w), _mm256_mullo_epi16(LaneRow(lanes, s), vpb));
    const __m256i h0 = _mm256_add_epi16(_mm256_mullo_epi16(h, vb), d0);
    h = _mm256_add_epi16(_mm256_mullo_epi16(h, vb2),
                         _mm256_add_epi16(_mm256_mullo_epi16(d0, vb), d1));
    record(s, MatchBits(h0, vmask, vpattern));
    record(s + 1, MatchBits(h, vmask, vpattern));
  }
  if (s < steps) {
    const __m256i d0 = _mm256_sub_epi16(LaneRow(lanes, s - 1 + w),
                                        _mm256_mullo_epi16(LaneRow(lanes, s - 1), vpb));
    h = _mm256_add_epi16(_mm256_mullo_epi16(h, vb), d0);
    record(s, MatchBits(h, vmask, vpattern));
  }

  uint16_t* cur[kVecLanes];
  for (size_t l = 0; l < kVecLanes; ++l) {
    cur[l] = out + l * steps;
  }
  for (size_t k = 0; k < hit_steps; ++k) {
    for (uint32_t bits = hit_bits[k]; bits != 0; bits &= bits - 1) {
      *cur[std::countr_zero(bits) / 2]++ = hit_step[k];
    }
  }
  constexpr size_t kLast = kVecLanes - 1;
  uint32_t tail = static_cast<uint16_t>(_mm256_extract_epi16(h, kLast));
  const uint32_t pb = uint32_t{rule.pow_w1} * kB16;
  const Matcher m{rule.mask, rule.pattern};
  for (size_t i = steps; i < count - kLast * steps; ++i) {
    const size_t p = kLast * steps + i;
    tail = Roll16(tail, data[p - 1], data[p - 1 + w], pb);
    cur[kLast] = m.Record(tail, i, cur[kLast]);
  }
  return PackLaneHits(out, steps, cur, kVecLanes);
}

#else  // !MEDES_KERNELS_X86

size_t SelectWindowsAvx2(const SampleRule& rule, const uint8_t* data, size_t n, uint16_t* out) {
  return SelectWindowsPortable(rule, data, n, out);
}

#endif  // MEDES_KERNELS_X86

size_t SelectWindows(const SampleRule& rule, const uint8_t* data, size_t n, uint16_t* out) {
  using SelectFn = size_t (*)(const SampleRule&, const uint8_t*, size_t, uint16_t*);
  static const SelectFn select =
      DetectCpuFeatures().avx2 ? &SelectWindowsAvx2 : &SelectWindowsPortable;
  return select(rule, data, n, out);
}

}  // namespace medes::kernels
