// Bit-identical equivalence of every kernel variant against its scalar
// reference (the contract in common/kernels/cpu_features.h): same digests,
// same selected windows, same match lengths. Each variant is called by name;
// one the host cannot run skips, naming the cpuid bit it lacks. The shipped
// entry points (the variants cpuid chose for this process) are checked too.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "chunking/rabin.h"
#include "common/kernels/cpu_features.h"
#include "common/kernels/memops.h"
#include "common/kernels/prefilter_kernels.h"
#include "common/kernels/rolling_kernels.h"
#include "common/kernels/sha1_kernels.h"
#include "common/rng.h"
#include "common/sha1.h"
#include "delta/delta.h"

namespace medes {
namespace {

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// Flat storage for n five-word SHA-1 states, viewable as the
// `uint32_t (*)[5]` the batch kernels take.
struct StateArray {
  explicit StateArray(size_t n) : words(n * 5, 0) {}
  uint32_t (*data())[5] { return reinterpret_cast<uint32_t(*)[5]>(words.data()); }
  uint32_t at(size_t i, int s) const { return words[i * 5 + static_cast<size_t>(s)]; }
  std::vector<uint32_t> words;
};

// SHA-1 state of `data` from the scalar compression alone: the message, a
// 0x80 byte, zeros up to 56 mod 64, then the big-endian bit length.
void ScalarSha1State(std::span<const uint8_t> data, uint32_t out_state[5]) {
  std::vector<uint8_t> msg(data.begin(), data.end());
  const uint64_t bits = uint64_t{data.size()} * 8;
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) {
    msg.push_back(0);
  }
  for (int i = 7; i >= 0; --i) {
    msg.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  std::copy(kernels::kSha1Init, kernels::kSha1Init + 5, out_state);
  for (size_t off = 0; off < msg.size(); off += 64) {
    kernels::Sha1CompressScalar(out_state, msg.data() + off);
  }
}

void ScalarChunk64(const uint8_t* chunk, uint32_t out_state[5]) {
  ScalarSha1State({chunk, 64}, out_state);
}

Sha1Digest ScalarDigest(std::span<const uint8_t> data) {
  uint32_t state[5];
  ScalarSha1State(data, state);
  Sha1Digest digest;
  for (size_t i = 0; i < 20; ++i) {
    digest.bytes[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return digest;
}

TEST(CpuFeaturesTest, DecodeRequiresOsYmmStateAndSse41) {
  constexpr uint32_t kSse41 = 1u << 19;    // CPUID.1:ECX
  constexpr uint32_t kOsxsave = 1u << 27;  // CPUID.1:ECX
  constexpr uint32_t kAvx2 = 1u << 5;      // CPUID.(7,0):EBX
  constexpr uint32_t kSha = 1u << 29;      // CPUID.(7,0):EBX
  struct Case {
    uint32_t leaf1_ecx;
    uint32_t leaf7_ebx;
    uint64_t xcr0;
    bool avx2;
    bool sha_ni;
    const char* what;
  };
  const Case cases[] = {
      {kOsxsave | kSse41, kAvx2 | kSha, 0x7, true, true, "everything present"},
      {kOsxsave | kSse41, kAvx2 | kSha, 0x1, false, true, "AVX2 bit set, XCR0 saves no YMM"},
      {kOsxsave, kAvx2, 0x3, false, false, "XCR0 saves XMM only"},
      {kOsxsave, kAvx2, 0x5, false, false, "XCR0 saves YMM but not XMM"},
      {0, kAvx2, 0x7, false, false, "AVX2 bit set, OSXSAVE clear"},
      {kOsxsave | kSse41, 0, 0x7, false, false, "no leaf-7 bits"},
      {kOsxsave, kSha, 0x7, false, false, "SHA bit set, no SSE4.1"},
      {kSse41, kSha, 0, false, true, "SHA needs no OS YMM state"},
  };
  for (const Case& c : cases) {
    const kernels::CpuFeatures f = kernels::DecodeCpuFeatures(c.leaf1_ecx, c.leaf7_ebx, c.xcr0);
    EXPECT_EQ(f.avx2, c.avx2) << c.what;
    EXPECT_EQ(f.sha_ni, c.sha_ni) << c.what;
  }
}

// The shipped compression (SHA-NI or scalar) against the scalar reference.
TEST(KernelEquivalenceTest, Sha1SingleBlockAllTiers) {
  auto data = RandomBytes(64 * 37, 101);
  for (size_t i = 0; i < 37; ++i) {
    const uint8_t* block = data.data() + i * 64;
    uint32_t ref[5];
    uint32_t got[5];
    for (int s = 0; s < 5; ++s) {
      ref[s] = got[s] = kernels::kSha1Init[s];
    }
    kernels::Sha1CompressScalar(ref, block);
    kernels::Sha1Compress(got, block);
    for (int s = 0; s < 5; ++s) {
      ASSERT_EQ(got[s], ref[s]) << "block " << i;
    }
  }
}

// The SHA-NI compression, called by name.
TEST(KernelEquivalenceTest, Sha1NamedVariantsDirect) {
  if (!kernels::DetectCpuFeatures().sha_ni) {
    GTEST_SKIP() << "cpuid reports no sha (SHA-NI)";
  }
  auto data = RandomBytes(64 * 13, 104);
  for (size_t i = 0; i < 13; ++i) {
    const uint8_t* block = data.data() + i * 64;
    uint32_t want[5];
    uint32_t got[5];
    for (int s = 0; s < 5; ++s) {
      want[s] = got[s] = kernels::kSha1Init[s] + static_cast<uint32_t>(i);
    }
    kernels::Sha1CompressScalar(want, block);
    kernels::Sha1CompressShaNi(got, block);
    for (int s = 0; s < 5; ++s) {
      ASSERT_EQ(got[s], want[s]) << "sha-ni block " << i;
    }
  }
}

TEST(KernelEquivalenceTest, Sha1Chunk64AllTiers) {
  auto data = RandomBytes(64 * 64, 102);
  for (size_t i = 0; i < 64; ++i) {
    uint32_t ref[5];
    uint32_t got[5];
    ScalarChunk64(data.data() + i * 64, ref);
    kernels::Sha1Chunk64(data.data() + i * 64, got);
    for (int s = 0; s < 5; ++s) {
      ASSERT_EQ(got[s], ref[s]) << "chunk " << i;
    }
  }
}

using BatchFn = void (*)(const uint8_t* const*, size_t, uint32_t (*)[5]);

// Batch sizes straddling every lane-group boundary of the 8-way AVX2
// variant, including the empty batch.
void ExpectBatchMatchesScalar(BatchFn batch, uint64_t seed) {
  constexpr size_t kMax = 21;
  auto data = RandomBytes(64 * kMax, seed);
  std::vector<const uint8_t*> ptrs(kMax);
  StateArray ref(kMax);
  for (size_t i = 0; i < kMax; ++i) {
    ptrs[i] = data.data() + i * 64;
    ScalarChunk64(ptrs[i], ref.data()[i]);
  }
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{7}, size_t{8},
                   size_t{9}, size_t{13}, size_t{16}, size_t{17}, kMax}) {
    StateArray got(n + 1);
    batch(ptrs.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      for (int s = 0; s < 5; ++s) {
        ASSERT_EQ(got.at(i, s), ref.at(i, s)) << "n=" << n << " chunk " << i;
      }
    }
  }
}

TEST(KernelEquivalenceTest, Sha1Chunk64BatchAllTiers) {
  ExpectBatchMatchesScalar(kernels::Sha1Chunk64Batch, 103);
}

TEST(KernelEquivalenceTest, Sha1Chunk64BatchAvx2Direct) {
  if (!kernels::DetectCpuFeatures().avx2) {
    GTEST_SKIP() << "cpuid reports no avx2 (or the OS does not save YMM state)";
  }
  ExpectBatchMatchesScalar(kernels::Sha1Chunk64BatchAvx2, 105);
}

// The interleaved SHA-NI batch against the scalar compression: every batch
// size through 17 (pairs, a last single chunk, and none), chunks at odd
// addresses, and one chunk repeated across a pair's lanes.
TEST(KernelEquivalenceTest, Sha1Chunk64BatchShaNiDirect) {
  if (!kernels::DetectCpuFeatures().sha_ni) {
    GTEST_SKIP() << "cpuid reports no sha (SHA-NI)";
  }
  constexpr size_t kMax = 17;
  auto data = RandomBytes(64 * kMax + 1, 107);
  std::vector<const uint8_t*> distinct(kMax);
  std::vector<const uint8_t*> repeated(kMax, data.data() + 1 + 64 * 5);
  for (size_t i = 0; i < kMax; ++i) {
    distinct[i] = data.data() + 1 + 64 * i;
  }
  for (const auto* chunks : {&distinct, &repeated}) {
    SCOPED_TRACE(chunks == &distinct ? "distinct chunks" : "one chunk repeated");
    StateArray ref(kMax);
    for (size_t i = 0; i < kMax; ++i) {
      ScalarChunk64((*chunks)[i], ref.data()[i]);
    }
    for (size_t n = 0; n <= kMax; ++n) {
      StateArray got(n + 1);
      kernels::Sha1Chunk64BatchShaNi(chunks->data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        for (int s = 0; s < 5; ++s) {
          ASSERT_EQ(got.at(i, s), ref.at(i, s)) << "n=" << n << " chunk " << i;
        }
      }
    }
  }
}

// The public hasher, streaming and fixed-length, against digests built from
// the scalar compression alone, at lengths around the padding boundaries.
TEST(KernelEquivalenceTest, Sha1PublicApiAcrossTiers) {
  const uint8_t abc[] = {'a', 'b', 'c'};
  ASSERT_EQ(ScalarDigest(abc).ToHex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
  auto data = RandomBytes(4096, 106);
  const std::span<const uint8_t> all(data);
  for (size_t len : {size_t{0}, size_t{1}, size_t{55}, size_t{56}, size_t{63}, size_t{64},
                     size_t{65}, size_t{119}, size_t{120}, size_t{128}, size_t{1000},
                     size_t{4096}}) {
    EXPECT_EQ(Sha1::Hash(all.first(len)), ScalarDigest(all.first(len))) << "len " << len;
  }
  EXPECT_EQ(Sha1::HashChunk64(data.data()), ScalarDigest(all.first(64)));
}

using SelectFn = size_t (*)(const kernels::SampleRule&, const uint8_t*, size_t, uint16_t*);

// `select` against the 64-bit reference walk (RollingHash::BulkHash plus the
// mask test): odd windows and even ones on both sides of the AVX2
// variant's window and length cut-offs; segment sizes up to
// kSelectMaxPositions, including counts whose 16 lanes take an odd number
// of steps (272, 4048, 4080), which splits each lane's two chains
// unevenly; masks from one bit to all sixteen; and contents that make wide
// masks match (one- and two-bit alphabets, mostly zero).
void ExpectSelectMatchesReference(SelectFn select) {
  const size_t windows[] = {1, 2, 3, 16, 32, 63, 64, 128, 256, 257};
  const size_t counts[] = {1,   2,    7,    255,  256,  257,
                           272, 1000, 4033, 4048, 4080, kernels::kSelectMaxPositions};
  const std::pair<uint16_t, uint16_t> rules[] = {
      {0x0, 0x0},     {0x1, 0x0},      {0x1, 0x1},      {0x7f, 0x0},
      {0x7f, 0x25},   {0x7f, 0x5a},    {0x1ff, 0x0},    {0x1ff, 0x1a5},
      {0x1ff, 0x1ff}, {0xffff, 0x0},   {0xffff, 0x1234}, {0xffff, 0xa5a5}};
  const char* const contents[] = {"random", "one-bit", "two-bit", "mostly-zero"};
  for (size_t window : windows) {
    for (size_t count : counts) {
      const size_t n = count + window - 1;
      for (size_t c = 0; c < std::size(contents); ++c) {
        auto data = RandomBytes(n, 200 + window + count);
        if (c == 1 || c == 2) {
          for (auto& b : data) {
            b &= c == 1 ? 1 : 3;
          }
        } else if (c == 3) {
          std::vector<uint8_t> sparse(n, 0);
          for (size_t i = 0; i < n; i += 97) {
            sparse[i] = data[i];
          }
          data = std::move(sparse);
        }
        std::vector<uint64_t> hashes(count);
        RollingHash(window).BulkHash(data, hashes.data());
        for (const auto& [mask, pattern] : rules) {
          SCOPED_TRACE(::testing::Message() << "window " << window << " count " << count << " "
                                            << contents[c] << " mask " << mask << " pattern "
                                            << pattern);
          const kernels::SampleRule rule = kernels::MakeSampleRule(window, mask, pattern);
          std::vector<uint16_t> ref;
          for (size_t p = 0; p < count; ++p) {
            if ((hashes[p] & mask) == pattern) {
              ref.push_back(static_cast<uint16_t>(p));
            }
          }
          std::vector<uint16_t> got(count);
          got.resize(select(rule, data.data(), n, got.data()));
          ASSERT_EQ(got, ref);
        }
      }
    }
  }
}

// The portable walk by name, and the shipped entry point.
TEST(KernelEquivalenceTest, SelectWindowsAllTiers) {
  {
    SCOPED_TRACE("portable");
    ExpectSelectMatchesReference(kernels::SelectWindowsPortable);
  }
  SCOPED_TRACE("shipped");
  ExpectSelectMatchesReference(kernels::SelectWindows);
}

TEST(KernelEquivalenceTest, SelectWindowsAvx2Direct) {
  if (!kernels::DetectCpuFeatures().avx2) {
    GTEST_SKIP() << "cpuid reports no avx2 (or the OS does not save YMM state)";
  }
  ExpectSelectMatchesReference(kernels::SelectWindowsAvx2);
}

using NextFn = size_t (*)(const kernels::SeedPrefilter&, std::span<const uint8_t>, size_t,
                          size_t);

// Does the seed at `p` pass the filter? Written from the key's definition
// alone: the seed's first two little-endian words, the second only for a
// seed of 8 bytes or more, never a byte past the seed.
bool ReferenceMayMatch(const kernels::SeedPrefilter& filter, const uint8_t* p, size_t seed_len) {
  auto word = [p](size_t at) {
    return uint32_t{p[at]} | uint32_t{p[at + 1]} << 8 | uint32_t{p[at + 2]} << 16 |
           uint32_t{p[at + 3]} << 24;
  };
  const uint32_t w0 = word(0);
  const uint32_t w1 = seed_len >= 8 ? word(4) : 0;
  auto bit = [&filter](uint32_t sum) {
    const uint32_t i = sum >> (32 - kernels::kPrefilterIndexBits);
    return (filter.words()[i / 32] >> (i % 32)) & 1;
  };
  const uint32_t* mul = kernels::kPrefilterMul;
  return (bit(w0 * mul[0] + w1 * mul[1]) & bit(w0 * mul[2] + w1 * mul[3])) != 0;
}

// Scans from every start position against a one-position-at-a-time
// reference: filters about 5%, 12% and 50% full, seeds of 4–16 bytes, and
// `last` at the target's end, within 15 bytes of it (where no 16-byte load
// fits) and well before it.
void ExpectNextCandidateMatchesReference(NextFn next) {
  // Seeds go in from every fifth offset of `base`, from its start: even the
  // emptiest filter holds the runs copied into the target, so true seeds
  // pass as well as false ones.
  const auto base = RandomBytes(size_t{1} << 16, 600);
  auto target = RandomBytes(700, 601);
  for (size_t at : {size_t{40}, size_t{300}, size_t{610}}) {
    std::copy_n(base.begin() + static_cast<ptrdiff_t>(at), 60,
                target.begin() + static_cast<ptrdiff_t>(at));
  }
  for (double fill : {0.05, 0.12, 0.5}) {
    for (size_t seed_len = 4; seed_len <= 16; ++seed_len) {
      kernels::SeedPrefilter filter;
      filter.Reset(seed_len >= 8);
      size_t set_bits = 0;
      for (size_t i = 0; static_cast<double>(set_bits) < fill * kernels::kPrefilterBits; ++i) {
        filter.Add(base.data() + 5 * i);
        set_bits = 0;
        for (size_t w = 0; w < kernels::kPrefilterBits / 32; ++w) {
          set_bits += static_cast<size_t>(__builtin_popcount(filter.words()[w]));
        }
      }
      const size_t end = target.size() - seed_len;
      for (size_t last : {end, target.size() - 16, target.size() - 17, size_t{300}, size_t{7},
                          size_t{0}}) {
        if (last > end) {
          continue;
        }
        for (size_t pos = 0; pos <= last + 1; ++pos) {
          size_t want = pos;
          while (want <= last && !ReferenceMayMatch(filter, target.data() + want, seed_len)) {
            ++want;
          }
          ASSERT_EQ(next(filter, target, pos, last), want)
              << "fill " << fill << " seed_len " << seed_len << " last " << last << " pos "
              << pos;
        }
      }
    }
  }
}

TEST(KernelEquivalenceTest, NextCandidateAllTiers) {
  {
    SCOPED_TRACE("portable");
    ExpectNextCandidateMatchesReference(kernels::NextCandidatePortable);
  }
  SCOPED_TRACE("shipped");
  ExpectNextCandidateMatchesReference(kernels::NextCandidate);
}

TEST(KernelEquivalenceTest, NextCandidateAvx2Direct) {
  if (!kernels::DetectCpuFeatures().avx2) {
    GTEST_SKIP() << "cpuid reports no avx2 (or the OS does not save YMM state)";
  }
  ExpectNextCandidateMatchesReference(kernels::NextCandidateAvx2);
}

// Plants a first-difference at every offset in [0, max] — including word
// boundary straddles — and checks the SWAR code agrees with scalar.
TEST(KernelEquivalenceTest, MatchForwardAllTiers) {
  constexpr size_t kMax = 97;
  auto a = RandomBytes(kMax, 300);
  for (size_t diff = 0; diff <= kMax; ++diff) {
    std::vector<uint8_t> b = a;
    if (diff < kMax) {
      b[diff] ^= 0x40;
    }
    size_t ref = kernels::MatchForwardScalar(a.data(), b.data(), kMax);
    ASSERT_EQ(ref, diff);
    EXPECT_EQ(kernels::MatchForward(a.data(), b.data(), kMax), ref) << "diff at " << diff;
  }
  EXPECT_EQ(kernels::MatchForward(a.data(), a.data(), 0), 0u);
}

TEST(KernelEquivalenceTest, MatchBackwardAllTiers) {
  constexpr size_t kMax = 97;
  auto a = RandomBytes(kMax, 301);
  for (size_t diff = 0; diff <= kMax; ++diff) {
    // diff = number of matching bytes at the tail.
    std::vector<uint8_t> b = a;
    if (diff < kMax) {
      b[kMax - diff - 1] ^= 0x40;
    }
    const uint8_t* a_end = a.data() + kMax;
    const uint8_t* b_end = b.data() + kMax;
    size_t ref = kernels::MatchBackwardScalar(a_end, b_end, kMax);
    ASSERT_EQ(ref, diff);
    EXPECT_EQ(kernels::MatchBackward(a_end, b_end, kMax), ref) << "tail match " << diff;
  }
  EXPECT_EQ(kernels::MatchBackward(a.data(), a.data(), 0), 0u);
}

TEST(KernelEquivalenceTest, MemEqualAllTiers) {
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{15}, size_t{16},
                     size_t{31}, size_t{32}, size_t{33}, size_t{64}, size_t{100}}) {
    auto a = RandomBytes(len + 1, 400 + len);
    std::vector<uint8_t> b(a.begin(), a.begin() + static_cast<ptrdiff_t>(len));
    // Equal case, then a flip at every position.
    for (size_t flip = 0; flip <= len; ++flip) {
      std::vector<uint8_t> c = b;
      bool expect_equal = true;
      if (flip < len) {
        c[flip] ^= 0x01;
        expect_equal = false;
      }
      EXPECT_EQ(kernels::MemEqualScalar(a.data(), c.data(), len), expect_equal);
      EXPECT_EQ(kernels::MemEqual(a.data(), c.data(), len), expect_equal)
          << "len " << len << " flip " << flip;
    }
  }
}

// A delta encoded with the shipped kernels decodes to its target. Its bytes
// are pinned against an in-test encoder by
// DeltaFuzzTest.EncoderMatchesReferenceModel.
TEST(KernelEquivalenceTest, DeltaBytesIdenticalAcrossTiers) {
  auto base = RandomBytes(4096, 500);
  std::vector<uint8_t> target = base;
  Rng rng(501);
  for (int i = 0; i < 40; ++i) {
    target[rng.Below(target.size())] = static_cast<uint8_t>(rng.Next());
  }
  const std::vector<uint8_t> delta = DeltaEncode(base, target);
  EXPECT_LT(delta.size(), target.size() / 4);
  EXPECT_EQ(DeltaDecode(base, delta), target);
}

}  // namespace
}  // namespace medes
