// Bit-identical equivalence of every dispatched kernel variant against the
// scalar reference (the contract in common/kernels/cpu_features.h): same
// digests, same selected windows, same match lengths, same delta bytes at
// every tier the machine can bind. Also exercises the MEDES_FORCE_SCALAR
// environment knob via ResetTierFromEnvironment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <utility>
#include <vector>

#include "chunking/rabin.h"
#include "common/kernels/cpu_features.h"
#include "common/kernels/memops.h"
#include "common/kernels/rolling_kernels.h"
#include "common/kernels/sha1_kernels.h"
#include "common/rng.h"
#include "common/sha1.h"
#include "delta/delta.h"

namespace medes {
namespace {

using kernels::Tier;

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

// Chunk64 from the scalar compression alone: the data block, then the
// constant padding block of a 64-byte message.
void ScalarChunk64(const uint8_t* chunk, uint32_t out_state[5]) {
  uint8_t pad[64] = {0x80};
  pad[62] = 0x02;  // 512-bit message length, big-endian
  std::copy(kernels::kSha1Init, kernels::kSha1Init + 5, out_state);
  kernels::Sha1CompressScalar(out_state, chunk);
  kernels::Sha1CompressScalar(out_state, pad);
}

std::vector<Tier> BindableTiers() {
  std::vector<Tier> tiers;
  for (Tier t : {Tier::kScalar, Tier::kPortable, Tier::kAvx2}) {
    if (t <= kernels::MaxSupportedTier()) {
      tiers.push_back(t);
    }
  }
  return tiers;
}

// Restores the environment-derived tier after each test so the forced tier
// never leaks into other test binaries' expectations.
class KernelEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("MEDES_FORCE_SCALAR");
    kernels::ResetTierFromEnvironment();
  }
};

TEST_F(KernelEquivalenceTest, ForceTierClampsToSupported) {
  Tier bound = kernels::ForceTier(Tier::kAvx2);
  EXPECT_LE(bound, kernels::MaxSupportedTier());
  EXPECT_EQ(bound, kernels::ActiveTier());
  EXPECT_EQ(kernels::ForceTier(Tier::kScalar), Tier::kScalar);
}

TEST_F(KernelEquivalenceTest, ForceScalarEnvironmentKnob) {
  setenv("MEDES_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(kernels::ResetTierFromEnvironment(), Tier::kScalar);
  EXPECT_EQ(kernels::ActiveTier(), Tier::kScalar);

  // "0" / "off" / "false" mean *not* forced.
  for (const char* off : {"0", "off", "false", ""}) {
    setenv("MEDES_FORCE_SCALAR", off, 1);
    EXPECT_EQ(kernels::ResetTierFromEnvironment(), kernels::MaxSupportedTier()) << off;
  }
  unsetenv("MEDES_FORCE_SCALAR");
  EXPECT_EQ(kernels::ResetTierFromEnvironment(), kernels::MaxSupportedTier());
}

TEST_F(KernelEquivalenceTest, Sha1SingleBlockAllTiers) {
  auto data = RandomBytes(64 * 37, 101);
  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
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
        ASSERT_EQ(got[s], ref[s]) << kernels::TierName(tier) << " block " << i;
      }
    }
  }
}

TEST_F(KernelEquivalenceTest, Sha1Chunk64AllTiers) {
  auto data = RandomBytes(64 * 64, 102);
  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    for (size_t i = 0; i < 64; ++i) {
      uint32_t ref[5];
      uint32_t got[5];
      ScalarChunk64(data.data() + i * 64, ref);
      kernels::Sha1Chunk64(data.data() + i * 64, got);
      for (int s = 0; s < 5; ++s) {
        ASSERT_EQ(got[s], ref[s]) << kernels::TierName(tier) << " chunk " << i;
      }
    }
  }
}

// Batch sizes straddling every lane-group boundary of the 8-way AVX2
// variant, including the empty batch.
TEST_F(KernelEquivalenceTest, Sha1Chunk64BatchAllTiers) {
  constexpr size_t kMax = 21;
  auto data = RandomBytes(64 * kMax, 103);
  std::vector<const uint8_t*> ptrs(kMax);
  for (size_t i = 0; i < kMax; ++i) {
    ptrs[i] = data.data() + i * 64;
  }
  StateArray ref(kMax);
  for (size_t i = 0; i < kMax; ++i) {
    ScalarChunk64(ptrs[i], ref.data()[i]);
  }
  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{7}, size_t{8},
                     size_t{9}, size_t{16}, size_t{17}, kMax}) {
      StateArray got(n + 1);
      kernels::Sha1Chunk64Batch(ptrs.data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        for (int s = 0; s < 5; ++s) {
          ASSERT_EQ(got.at(i, s), ref.at(i, s))
              << kernels::TierName(tier) << " n=" << n << " chunk " << i;
        }
      }
    }
  }
}

// The named variants, called directly where the hardware allows, must agree
// with scalar no matter what tier is bound.
TEST_F(KernelEquivalenceTest, Sha1NamedVariantsDirect) {
  constexpr size_t kN = 13;
  auto data = RandomBytes(64 * kN, 104);
  std::vector<const uint8_t*> ptrs(kN);
  StateArray ref(kN);
  for (size_t i = 0; i < kN; ++i) {
    ptrs[i] = data.data() + i * 64;
    ScalarChunk64(ptrs[i], ref.data()[i]);
  }
  if (kernels::DetectCpuFeatures().avx2) {
    StateArray got(kN);
    kernels::Sha1Chunk64BatchAvx2(ptrs.data(), kN, got.data());
    for (size_t i = 0; i < kN; ++i) {
      for (int s = 0; s < 5; ++s) {
        ASSERT_EQ(got.at(i, s), ref.at(i, s)) << "avx2 chunk " << i;
      }
    }
  }
  if (kernels::DetectCpuFeatures().sha_ni && kernels::Sha1ShaNiCompiled()) {
    for (size_t i = 0; i < kN; ++i) {
      uint32_t want[5];
      uint32_t got[5];
      for (int s = 0; s < 5; ++s) {
        want[s] = got[s] = ref.at(i, s);
      }
      kernels::Sha1CompressScalar(want, ptrs[i]);
      kernels::Sha1CompressShaNi(got, ptrs[i]);
      for (int s = 0; s < 5; ++s) {
        ASSERT_EQ(got[s], want[s]) << "sha-ni block " << i;
      }
    }
  }
}

TEST_F(KernelEquivalenceTest, Sha1PublicApiAcrossTiers) {
  auto data = RandomBytes(4096, 105);
  kernels::ForceTier(Tier::kScalar);
  Sha1Digest ref_full = Sha1::Hash(data);
  Sha1Digest ref_chunk = Sha1::HashChunk64(data.data());
  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    EXPECT_EQ(Sha1::Hash(data), ref_full) << kernels::TierName(tier);
    EXPECT_EQ(Sha1::HashChunk64(data.data()), ref_chunk) << kernels::TierName(tier);
    // The fast path equals the streaming path for 64-byte input.
    EXPECT_EQ(Sha1::HashChunk64(data.data()),
              Sha1::Hash(std::span<const uint8_t>(data).first(64)));
  }
}

// Every selection variant against the 64-bit reference walk
// (RollingHash::BulkHash plus the mask test), at window sizes on both sides
// of the AVX2 variant's window and length cut-offs and masks from one bit
// to all sixteen.
TEST_F(KernelEquivalenceTest, SelectWindowsAllTiers) {
  const size_t windows[] = {1, 3, 16, 63, 64, 256, 257};
  const size_t counts[] = {1, 2, 7, 255, 256, 257, 4033, kernels::kSelectMaxPositions};
  const std::pair<uint16_t, uint16_t> rules[] = {
      {0x0, 0x0}, {0x1, 0x1}, {0x7f, 0x5a}, {0x1ff, 0x0}, {0x1ff, 0x1ff}, {0xffff, 0x1234}};
  for (size_t window : windows) {
    for (size_t count : counts) {
      const size_t n = count + window - 1;
      // Two-symbol bytes make a 16-bit mask match now and then.
      auto data = RandomBytes(n, 200 + window + count);
      if (count % 2 == 1) {
        for (auto& b : data) {
          b &= 1;
        }
      }
      std::vector<uint64_t> hashes(count);
      RollingHash(window).BulkHash(data, hashes.data());
      for (const auto& [mask, pattern] : rules) {
        SCOPED_TRACE(::testing::Message() << "window " << window << " count " << count);
        SCOPED_TRACE(::testing::Message() << "mask " << mask << " pattern " << pattern);
        const kernels::SampleRule rule = kernels::MakeSampleRule(window, mask, pattern);
        std::vector<uint16_t> ref;
        for (size_t p = 0; p < count; ++p) {
          if ((hashes[p] & mask) == pattern) {
            ref.push_back(static_cast<uint16_t>(p));
          }
        }
        const auto select = [&](auto fn) {
          std::vector<uint16_t> out(count);
          out.resize(fn(rule, data.data(), n, out.data()));
          return out;
        };
        ASSERT_EQ(select(kernels::SelectWindowsPortable), ref) << "portable";
        if (kernels::DetectCpuFeatures().avx2) {
          ASSERT_EQ(select(kernels::SelectWindowsAvx2), ref) << "avx2";
        }
        for (Tier tier : BindableTiers()) {
          kernels::ForceTier(tier);
          ASSERT_EQ(select(kernels::SelectWindows), ref) << kernels::TierName(tier);
        }
      }
    }
  }
}

// Plants a first-difference at every offset in [0, max] — including word
// boundary straddles — and checks all variants agree with scalar.
TEST_F(KernelEquivalenceTest, MatchForwardAllTiers) {
  constexpr size_t kMax = 97;
  auto a = RandomBytes(kMax, 300);
  for (size_t diff = 0; diff <= kMax; ++diff) {
    std::vector<uint8_t> b = a;
    if (diff < kMax) {
      b[diff] ^= 0x40;
    }
    size_t ref = kernels::MatchForwardScalar(a.data(), b.data(), kMax);
    ASSERT_EQ(ref, diff);
    EXPECT_EQ(kernels::MatchForwardSwar(a.data(), b.data(), kMax), ref);
    for (Tier tier : BindableTiers()) {
      kernels::ForceTier(tier);
      EXPECT_EQ(kernels::MatchForward(a.data(), b.data(), kMax), ref)
          << kernels::TierName(tier) << " diff at " << diff;
    }
  }
  EXPECT_EQ(kernels::MatchForwardSwar(a.data(), a.data(), 0), 0u);
}

TEST_F(KernelEquivalenceTest, MatchBackwardAllTiers) {
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
    EXPECT_EQ(kernels::MatchBackwardSwar(a_end, b_end, kMax), ref);
    for (Tier tier : BindableTiers()) {
      kernels::ForceTier(tier);
      EXPECT_EQ(kernels::MatchBackward(a_end, b_end, kMax), ref)
          << kernels::TierName(tier) << " tail match " << diff;
    }
  }
  EXPECT_EQ(kernels::MatchBackwardSwar(a.data(), a.data(), 0), 0u);
}

TEST_F(KernelEquivalenceTest, MemEqualAllTiers) {
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
      EXPECT_EQ(kernels::MemEqualSwar(a.data(), c.data(), len), expect_equal);
      for (Tier tier : BindableTiers()) {
        kernels::ForceTier(tier);
        EXPECT_EQ(kernels::MemEqual(a.data(), c.data(), len), expect_equal)
            << kernels::TierName(tier) << " len " << len << " flip " << flip;
      }
    }
  }
}

// Tier selection must never change the *bytes* of an encoded delta or a
// decoded page, and fingerprints must be tier-invariant (they feed the
// cross-node registry, where mixed-hardware clusters must agree).
TEST_F(KernelEquivalenceTest, DeltaBytesIdenticalAcrossTiers) {
  auto base = RandomBytes(4096, 500);
  std::vector<uint8_t> target = base;
  Rng rng(501);
  for (int i = 0; i < 40; ++i) {
    target[rng.Below(target.size())] = static_cast<uint8_t>(rng.Next());
  }

  kernels::ForceTier(Tier::kScalar);
  std::vector<uint8_t> ref_delta = DeltaEncode(base, target);
  std::vector<uint8_t> ref_out = DeltaDecode(base, ref_delta);
  ASSERT_EQ(ref_out, target);

  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    EXPECT_EQ(DeltaEncode(base, target), ref_delta) << kernels::TierName(tier);
    EXPECT_EQ(DeltaDecode(base, ref_delta), target) << kernels::TierName(tier);
  }
}

}  // namespace
}  // namespace medes
