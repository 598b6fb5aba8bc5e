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

// The variants split positions into contiguous regions. Region r owns
// out[begin[r], end[r]) and holds its hits there relative to begin[r] (a
// region cannot hit more positions than it scans); this rebases them and
// packs them into one ascending run. begin[0] is 0.
size_t PackRegionHits(uint16_t* out, const size_t* begin, uint16_t* const* end, size_t regions) {
  uint16_t* packed = end[0];
  for (size_t r = 1; r < regions; ++r) {
    const auto offset = static_cast<uint16_t>(begin[r]);
    for (const uint16_t* hit = out + begin[r]; hit != end[r]; ++hit) {
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
  size_t begin[kLanes];
  uint16_t* cur[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    h[l] = InitWindow16(data + l * block, w);
    begin[l] = l * block;
    cur[l] = m.Record(h[l], 0, out + begin[l]);
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
  return PackRegionHits(out, begin, cur, kLanes);
}

#if defined(MEDES_KERNELS_X86)

namespace {

constexpr size_t kVecLanes = 16;
constexpr size_t kVecMaxWindow = 256;
constexpr size_t kVecMaxSteps = kSelectMaxPositions / kVecLanes;
// Pair rows a lane reads at most: (steps + window - 1) rows, rounded up to
// a pair; a multiple of the 16 pairs one transpose yields.
constexpr size_t kVecMaxPairs = (kVecMaxSteps + kVecMaxWindow) / 2;

// In-place 16x16 transpose of 16-bit words: on return word l of v[j] is
// word j of input v[l]. Three in-lane unpack stages (16-, 32-, 64-bit
// interleaves) leave each 128-bit half holding eight lanes of one word;
// the last stage pairs the halves across registers.
__attribute__((target("avx2"))) inline void Transpose16x16Words(__m256i v[16]) {
  __m256i s1[8][2];  // [lane pair][word quad within each half]
  for (size_t r = 0; r < 8; ++r) {
    s1[r][0] = _mm256_unpacklo_epi16(v[2 * r], v[2 * r + 1]);
    s1[r][1] = _mm256_unpackhi_epi16(v[2 * r], v[2 * r + 1]);
  }
  __m256i s2[4][4];  // [lane quad][word pair within each half]
  for (size_t q = 0; q < 4; ++q) {
    for (size_t c = 0; c < 2; ++c) {
      s2[q][2 * c] = _mm256_unpacklo_epi32(s1[2 * q][c], s1[2 * q + 1][c]);
      s2[q][2 * c + 1] = _mm256_unpackhi_epi32(s1[2 * q][c], s1[2 * q + 1][c]);
    }
  }
  __m256i s3[2][8];  // [lane octet][word within each half]
  for (size_t o = 0; o < 2; ++o) {
    for (size_t d = 0; d < 4; ++d) {
      s3[o][2 * d] = _mm256_unpacklo_epi64(s2[2 * o][d], s2[2 * o + 1][d]);
      s3[o][2 * d + 1] = _mm256_unpackhi_epi64(s2[2 * o][d], s2[2 * o + 1][d]);
    }
  }
  for (size_t e = 0; e < 8; ++e) {
    v[e] = _mm256_permute2x128_si256(s3[0][e], s3[1][e], 0x20);
    v[e + 8] = _mm256_permute2x128_si256(s3[0][e], s3[1][e], 0x31);
  }
}

// The 32 bytes at data[off], or those before data[n] followed by zeros.
__attribute__((target("avx2"))) inline __m256i LoadUpTo32(const uint8_t* data, size_t n,
                                                          size_t off) {
  if (off + 32 <= n) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + off));
  }
  uint8_t pad[32] = {};
  if (off < n) {
    std::memcpy(pad, data + off, n - off);
  }
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pad));
}

// The vector constants of one selection, built once per call.
struct VecRule {
  __m256i b;        // B
  __m256i b2;       // B^2
  __m256i pb;       // B^W
  __m256i low;      // 0x00ff: the first row of a pair
  __m256i mask;
  __m256i pattern;
};

// 0xffff in each lane whose hash matches.
__attribute__((target("avx2"))) inline __m256i Matches(__m256i h, const VecRule& k) {
  return _mm256_cmpeq_epi16(_mm256_and_si256(h, k.mask), k.pattern);
}

// Bit 2l set iff lane l of `eq` (a Matches result) is set.
__attribute__((target("avx2"))) inline uint32_t MatchBits(__m256i eq) {
  return static_cast<uint32_t>(_mm256_movemask_epi8(eq)) & 0x55555555u;
}

// Pair row q of the lane-major buffer: word l holds rows 2q (low byte) and
// 2q + 1 (high byte) of lane l.
__attribute__((target("avx2"))) inline __m256i PairRow(const uint16_t* pairs, size_t q) {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(pairs + q * kVecLanes));
}

// h extended by both rows of a pair row: h*B^2 + (low*B + high).
__attribute__((target("avx2"))) inline __m256i AppendPairRow(__m256i h, __m256i row,
                                                             const VecRule& k) {
  const __m256i pair =
      _mm256_add_epi16(_mm256_mullo_epi16(_mm256_and_si256(row, k.low), k.b),
                       _mm256_srli_epi16(row, 8));
  return _mm256_add_epi16(_mm256_mullo_epi16(h, k.b2), pair);
}

// One hash chain of 16 lanes: its hash, and the pair row its next step
// drops (the step adds the pair row w/2 later). A chain's steps come in
// pairs that drop both rows of one pair row, so a chain starts at an even
// row.
struct Chain {
  __m256i h;
  size_t q;
};

// Two steps: h1 = h*B + d0 and h2 = h*B^2 + (d0*B + d1), so one
// multiply-add per two positions sits on the chain. Returns h1.
__attribute__((target("avx2"))) inline __m256i StepTwo(Chain& c, const uint16_t* pairs,
                                                       size_t half_w, const VecRule& k) {
  const __m256i out = PairRow(pairs, c.q);
  const __m256i in = PairRow(pairs, c.q + half_w);
  const __m256i d0 = _mm256_sub_epi16(_mm256_and_si256(in, k.low),
                                      _mm256_mullo_epi16(_mm256_and_si256(out, k.low), k.pb));
  const __m256i d1 = _mm256_sub_epi16(_mm256_srli_epi16(in, 8),
                                      _mm256_mullo_epi16(_mm256_srli_epi16(out, 8), k.pb));
  const __m256i h1 = _mm256_add_epi16(_mm256_mullo_epi16(c.h, k.b), d0);
  c.h = _mm256_add_epi16(_mm256_mullo_epi16(c.h, k.b2),
                         _mm256_add_epi16(_mm256_mullo_epi16(d0, k.b), d1));
  ++c.q;
  return h1;
}

// One step, dropping and adding the first rows of the chain's pair rows;
// the chain's last step when its step count after the first is odd.
__attribute__((target("avx2"))) inline void StepOne(Chain& c, const uint16_t* pairs,
                                                    size_t half_w, const VecRule& k) {
  const __m256i out = _mm256_and_si256(PairRow(pairs, c.q), k.low);
  const __m256i in = _mm256_and_si256(PairRow(pairs, c.q + half_w), k.low);
  c.h = _mm256_add_epi16(_mm256_mullo_epi16(c.h, k.b),
                         _mm256_sub_epi16(in, _mm256_mullo_epi16(out, k.pb)));
}

// A chain's steps with any hit, in order, with their match bits. A step
// hits with probability about lanes / 2^(mask bits) (16/512 at the default
// rule), so most steps store nothing.
struct HitLog {
  uint32_t bits[kVecMaxSteps];
  uint16_t step[kVecMaxSteps];
  size_t n = 0;

  void Add(size_t s, uint32_t b) {
    if (b != 0) {
      bits[n] = b;
      step[n] = static_cast<uint16_t>(s);
      ++n;
    }
  }
};

// Steps a chain from its step s to its last, `steps` - 1, logging hits.
__attribute__((target("avx2"))) inline void FinishChain(Chain& c, HitLog& log, size_t steps,
                                                        size_t s, const uint16_t* pairs,
                                                        size_t half_w, const VecRule& k) {
  for (; s + 1 < steps; s += 2) {
    const __m256i h1 = StepTwo(c, pairs, half_w, k);
    log.Add(s, MatchBits(Matches(h1, k)));
    log.Add(s + 1, MatchBits(Matches(c.h, k)));
  }
  if (s < steps) {
    StepOne(c, pairs, half_w, k);
    log.Add(s, MatchBits(Matches(c.h, k)));
  }
}

}  // namespace

__attribute__((target("avx2"))) size_t SelectWindowsAvx2(const SampleRule& rule,
                                                         const uint8_t* data, size_t n,
                                                         uint16_t* out) {
  const size_t w = rule.window;
  const size_t count = n - w + 1;
  if (w % 2 != 0 || w > kVecMaxWindow || count < kVecLanes * kVecLanes) {
    return SelectWindowsPortable(rule, data, n, out);
  }
  // Lane l scans positions [l*steps, (l+1)*steps); lane 15 also takes the
  // count % 16 remainder, finished by a scalar tail. Its steps read the
  // bytes data[l*steps + r] for r < rows, stored lane-major in pairs: pair
  // row q holds rows 2q and 2q + 1 of all 16 lanes, so one 32-byte load
  // feeds two steps.
  const size_t steps = count / kVecLanes;
  const size_t half_w = w / 2;
  const size_t pair_rows = (steps + w) / 2;
  alignas(32) uint16_t pairs[kVecMaxPairs * kVecLanes];
  for (size_t q0 = 0; q0 < pair_rows; q0 += 16) {
    // Only the final tile can run past the input, and its pairs past
    // pair_rows are never read back.
    __m256i v[kVecLanes];
    for (size_t l = 0; l < kVecLanes; ++l) {
      v[l] = LoadUpTo32(data, n, l * steps + 2 * q0);
    }
    Transpose16x16Words(v);
    for (size_t j = 0; j < 16; ++j) {
      _mm256_store_si256(reinterpret_cast<__m256i*>(pairs + (q0 + j) * kVecLanes), v[j]);
    }
  }

  const VecRule k{_mm256_set1_epi16(static_cast<short>(kB16)),
                  _mm256_set1_epi16(static_cast<short>(kB16 * kB16)),
                  _mm256_set1_epi16(static_cast<short>(rule.pow_w1 * kB16)),
                  _mm256_set1_epi16(0x00ff),
                  _mm256_set1_epi16(static_cast<short>(rule.mask)),
                  _mm256_set1_epi16(static_cast<short>(rule.pattern))};
  // Each lane's steps split into two chains, [0, split) and [split, steps),
  // so two independent multiply-add chains overlap. Both start at an even
  // row; after its first window a chain steps in pairs, plus one single
  // step when the count after the first is odd (always, for chain A).
  const size_t split = steps / 4 * 2;
  Chain a{_mm256_setzero_si256(), 0};
  Chain b{_mm256_setzero_si256(), split / 2};
  for (size_t q = 0; q < half_w; ++q) {
    a.h = AppendPairRow(a.h, PairRow(pairs, a.q + q), k);
    b.h = AppendPairRow(b.h, PairRow(pairs, b.q + q), k);
  }
  HitLog log_a;
  HitLog log_b;
  log_a.Add(0, MatchBits(Matches(a.h, k)));
  log_b.Add(0, MatchBits(Matches(b.h, k)));
  // Step s of a chain (relative to its start) drops its row s - 1 and adds
  // row s - 1 + w; both chains' two steps are tested with one vptest, for
  // as many step pairs as chain A, the shorter one, has.
  size_t s = 1;
  for (; s + 1 < split; s += 2) {
    const __m256i a1 = StepTwo(a, pairs, half_w, k);
    const __m256i b1 = StepTwo(b, pairs, half_w, k);
    const __m256i e0 = Matches(a1, k);
    const __m256i e1 = Matches(a.h, k);
    const __m256i e2 = Matches(b1, k);
    const __m256i e3 = Matches(b.h, k);
    const __m256i any = _mm256_or_si256(_mm256_or_si256(e0, e1), _mm256_or_si256(e2, e3));
    if (!_mm256_testz_si256(any, any)) {
      log_a.Add(s, MatchBits(e0));
      log_a.Add(s + 1, MatchBits(e1));
      log_b.Add(s, MatchBits(e2));
      log_b.Add(s + 1, MatchBits(e3));
    }
  }
  FinishChain(a, log_a, split, s, pairs, half_w, k);
  FinishChain(b, log_b, steps - split, s, pairs, half_w, k);

  // Region 2l holds lane l's chain-A hits, region 2l + 1 its chain-B hits,
  // each relative to the region's first position.
  constexpr size_t kRegions = 2 * kVecLanes;
  size_t begin[kRegions];
  uint16_t* cur[kRegions];
  for (size_t l = 0; l < kVecLanes; ++l) {
    begin[2 * l] = l * steps;
    begin[2 * l + 1] = l * steps + split;
  }
  for (size_t r = 0; r < kRegions; ++r) {
    cur[r] = out + begin[r];
  }
  for (size_t c = 0; c < 2; ++c) {
    const HitLog& log = c == 0 ? log_a : log_b;
    for (size_t i = 0; i < log.n; ++i) {
      for (uint32_t bits = log.bits[i]; bits != 0; bits &= bits - 1) {
        *cur[std::countr_zero(bits) + c]++ = log.step[i];
      }
    }
  }
  constexpr size_t kLast = kVecLanes - 1;
  uint32_t tail = static_cast<uint16_t>(_mm256_extract_epi16(b.h, kLast));
  const uint32_t pb = uint32_t{rule.pow_w1} * kB16;
  const Matcher m{rule.mask, rule.pattern};
  for (size_t i = steps; i < count - kLast * steps; ++i) {
    const size_t p = kLast * steps + i;
    tail = Roll16(tail, data[p - 1], data[p - 1 + w], pb);
    cur[kRegions - 1] = m.Record(tail, i - split, cur[kRegions - 1]);
  }
  return PackRegionHits(out, begin, cur, kRegions);
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
