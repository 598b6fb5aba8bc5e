#include "chunking/fingerprint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/kernels/cpu_features.h"
#include "common/rng.h"
#include "common/sha1.h"

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

std::set<uint64_t> Keys(const PageFingerprint& fp) {
  std::set<uint64_t> keys;
  for (const auto& c : fp.chunks) {
    keys.insert(c.key);
  }
  return keys;
}

TEST(FingerprintTest, DefaultCardinalityIsFive) {
  PageFingerprinter fp({});
  auto page = RandomBytes(4096, 1);
  PageFingerprint result = fp.FingerprintPage(page);
  EXPECT_EQ(result.Cardinality(), 5u);
}

TEST(FingerprintTest, Deterministic) {
  PageFingerprinter fp({});
  auto page = RandomBytes(4096, 2);
  auto a = fp.FingerprintPage(page);
  auto b = fp.FingerprintPage(page);
  ASSERT_EQ(a.Cardinality(), b.Cardinality());
  EXPECT_EQ(Keys(a), Keys(b));
}

TEST(FingerprintTest, IdenticalPagesIdenticalFingerprints) {
  PageFingerprinter fp({});
  auto page = RandomBytes(4096, 3);
  auto copy = page;
  EXPECT_EQ(Keys(fp.FingerprintPage(page)), Keys(fp.FingerprintPage(copy)));
}

TEST(FingerprintTest, DissimilarPagesShareNoKeys) {
  PageFingerprinter fp({});
  auto a = fp.FingerprintPage(RandomBytes(4096, 4));
  auto b = fp.FingerprintPage(RandomBytes(4096, 5));
  std::set<uint64_t> ka = Keys(a), kb = Keys(b);
  std::vector<uint64_t> common;
  std::set_intersection(ka.begin(), ka.end(), kb.begin(), kb.end(), std::back_inserter(common));
  EXPECT_TRUE(common.empty());
}

TEST(FingerprintTest, SimilarPagesShareMostKeys) {
  PageFingerprinter fp({});
  auto page = RandomBytes(4096, 6);
  auto similar = page;
  // One 8-byte pointer rewrite.
  std::memset(similar.data() + 1234, 0xee, 8);
  std::set<uint64_t> ka = Keys(fp.FingerprintPage(page));
  std::set<uint64_t> kb = Keys(fp.FingerprintPage(similar));
  std::vector<uint64_t> common;
  std::set_intersection(ka.begin(), ka.end(), kb.begin(), kb.end(), std::back_inserter(common));
  EXPECT_GE(common.size(), 4u) << "a single edit should leave most sampled chunks intact";
}

TEST(FingerprintTest, ValueSamplingSurvivesShift) {
  // The crucial property vs Difference Engine: shifting content by a few
  // bytes must keep (most of) the fingerprint — selection is content-defined.
  PageFingerprinter fp({});
  auto content = RandomBytes(4080, 7);
  std::vector<uint8_t> page_a = content;
  page_a.resize(4096, 0);
  std::vector<uint8_t> page_b(16, 0x11);  // shift content by 16 bytes
  page_b.insert(page_b.end(), content.begin(), content.begin() + 4080);
  std::set<uint64_t> ka = Keys(fp.FingerprintPage(page_a));
  std::set<uint64_t> kb = Keys(fp.FingerprintPage(page_b));
  std::vector<uint64_t> common;
  std::set_intersection(ka.begin(), ka.end(), kb.begin(), kb.end(), std::back_inserter(common));
  EXPECT_GE(common.size(), 3u);
}

TEST(FingerprintTest, RandomOffsetsModeDoesNotSurviveShift) {
  FingerprintOptions options;
  options.mode = SamplingMode::kRandomOffsets;
  PageFingerprinter fp(options);
  auto content = RandomBytes(4080, 8);
  std::vector<uint8_t> page_a = content;
  page_a.resize(4096, 0);
  std::vector<uint8_t> page_b(16, 0x22);
  page_b.insert(page_b.end(), content.begin(), content.begin() + 4080);
  std::set<uint64_t> ka = Keys(fp.FingerprintPage(page_a));
  std::set<uint64_t> kb = Keys(fp.FingerprintPage(page_b));
  std::vector<uint64_t> common;
  std::set_intersection(ka.begin(), ka.end(), kb.begin(), kb.end(), std::back_inserter(common));
  EXPECT_LE(common.size(), 1u);
}

TEST(FingerprintTest, UniformPageStillGetsFingerprint) {
  PageFingerprinter fp({});
  std::vector<uint8_t> page(4096, 0x00);
  PageFingerprint result = fp.FingerprintPage(page);
  EXPECT_FALSE(result.Empty());
}

TEST(FingerprintTest, ShortPageEmpty) {
  PageFingerprinter fp({});
  auto tiny = RandomBytes(32, 9);
  EXPECT_TRUE(fp.FingerprintPage(tiny).Empty());
}

TEST(FingerprintTest, KeyBitsTruncate) {
  FingerprintOptions options;
  options.key_bits = 16;
  PageFingerprinter fp(options);
  auto result = fp.FingerprintPage(RandomBytes(4096, 10));
  for (const auto& chunk : result.chunks) {
    EXPECT_LT(chunk.key, 1u << 16);
  }
}

TEST(FingerprintTest, InvalidOptionsRejected) {
  FingerprintOptions bad;
  bad.chunk_size = 0;
  EXPECT_THROW(PageFingerprinter{bad}, std::invalid_argument);
  bad = {};
  bad.cardinality = 0;
  EXPECT_THROW(PageFingerprinter{bad}, std::invalid_argument);
  bad = {};
  bad.key_bits = 0;
  EXPECT_THROW(PageFingerprinter{bad}, std::invalid_argument);
  bad = {};
  bad.key_bits = 65;
  EXPECT_THROW(PageFingerprinter{bad}, std::invalid_argument);
  // The selection test reads only the rolling hash's low 16 bits.
  bad = {};
  bad.sample_mask = 0x1ffff;
  EXPECT_THROW(PageFingerprinter{bad}, std::invalid_argument);
  bad = {};
  bad.sample_mask = 0xffff;
  EXPECT_NO_THROW(PageFingerprinter{bad});
  // A pattern bit outside the mask could never match.
  bad = {};
  bad.sample_mask = 0x7f;
  bad.sample_pattern = 0x80;
  EXPECT_THROW(PageFingerprinter{bad}, std::invalid_argument);
  bad = {};
  bad.sample_mask = 0xffff;
  bad.sample_pattern = uint64_t{1} << 40;
  EXPECT_THROW(PageFingerprinter{bad}, std::invalid_argument);
}

// The fingerprint pass as it read before the 16-bit selection kernels: the
// mod-2^64 rolling walk over every window, the greedy non-overlap pass,
// the stride fallback, one SHA-1 per chunk and the K smallest keys.
std::vector<SampledChunk> ReferenceFingerprint(std::span<const uint8_t> page,
                                               const FingerprintOptions& o) {
  const size_t w = o.chunk_size;
  if (page.size() < w) {
    return {};
  }
  constexpr uint64_t kBase = 0x100000001b3ull;
  uint64_t pow = 1;
  for (size_t i = 1; i < w; ++i) {
    pow *= kBase;
  }
  uint64_t h = 0;
  for (size_t i = 0; i < w; ++i) {
    h = h * kBase + page[i];
  }
  std::vector<uint32_t> offsets;
  size_t last_selected_end = 0;
  for (size_t offset = 0; offset + w <= page.size(); ++offset) {
    if (offset > 0) {
      h = (h - page[offset - 1] * pow) * kBase + page[offset - 1 + w];
    }
    if (offset >= last_selected_end && (h & o.sample_mask) == o.sample_pattern) {
      offsets.push_back(static_cast<uint32_t>(offset));
      last_selected_end = offset + w;
    }
  }
  const size_t selected = offsets.size();
  const size_t stride = std::max<size_t>(w, page.size() / (o.cardinality + 1));
  for (size_t offset = 0; offset + w <= page.size() && offsets.size() < o.cardinality;
       offset += stride) {
    bool covered = false;
    for (size_t i = 0; i < selected; ++i) {
      covered = covered || (offset < offsets[i] + w && offsets[i] < offset + w);
    }
    if (!covered) {
      offsets.push_back(static_cast<uint32_t>(offset));
    }
  }
  std::vector<SampledChunk> chunks;
  for (uint32_t offset : offsets) {
    const uint64_t full = Sha1::Hash(page.subspan(offset, w)).Prefix64();
    chunks.push_back({full >> (64 - o.key_bits), offset});
  }
  std::sort(chunks.begin(), chunks.end(), [](const SampledChunk& a, const SampledChunk& b) {
    return a.key < b.key || (a.key == b.key && a.offset < b.offset);
  });
  chunks.erase(std::unique(chunks.begin(), chunks.end(),
                           [](const SampledChunk& a, const SampledChunk& b) {
                             return a.key == b.key;
                           }),
               chunks.end());
  if (chunks.size() > o.cardinality) {
    chunks.resize(o.cardinality);
  }
  return chunks;
}

// The 16-bit selection kernels, at every tier, pick exactly the windows the
// 64-bit walk picks: page sizes on both sides of one window and of one
// 4096-position kernel segment, masks from 1 to 16 bits, and contents that
// make wide masks match (two-bit alphabet, mostly zero). Cardinality 64
// keeps every selected chunk of most pages, so a wrong pick shows.
TEST(FingerprintTest, SelectionMatchesReferenceModel) {
  struct Content {
    const char* name;
    std::vector<uint8_t> bytes;
  };
  std::vector<Content> contents = {{"random", RandomBytes(8192, 20)},
                                   {"two-bit", RandomBytes(8192, 21)},
                                   {"mostly-zero", std::vector<uint8_t>(8192, 0)}};
  for (auto& b : contents[1].bytes) {
    b &= 3;
  }
  Rng rng(22);
  for (int i = 0; i < 40; ++i) {
    contents[2].bytes[rng.Below(8192)] = static_cast<uint8_t>(rng.Next());
  }
  using kernels::Tier;
  const Tier tiers[] = {Tier::kScalar, Tier::kPortable, Tier::kAvx2};
  const size_t windows[] = {1, 16, 32, 64, 128, 256};
  const uint64_t masks[] = {0x1, 0x7f, 0x1ff, 0xffff};
  const size_t cardinalities[] = {5, 64};
  for (Tier tier : tiers) {
    if (tier > kernels::MaxSupportedTier()) {
      continue;
    }
    kernels::ForceTier(tier);
    for (size_t w : windows) {
      const size_t sizes[] = {w, w + 1, 100, 1000, 4096, 4097, 8192};
      for (size_t size : sizes) {
        for (uint64_t mask : masks) {
          for (uint64_t pattern : {uint64_t{0}, mask & 0xa5a5}) {
            for (size_t cardinality : cardinalities) {
              FingerprintOptions o;
              o.chunk_size = w;
              o.cardinality = cardinality;
              o.sample_mask = mask;
              o.sample_pattern = pattern;
              PageFingerprinter fp(o);
              for (const Content& c : contents) {
                SCOPED_TRACE(::testing::Message() << kernels::TierName(tier) << " w " << w
                                                  << " size " << size << " " << c.name);
                SCOPED_TRACE(::testing::Message() << "mask " << mask << " pattern " << pattern
                                                  << " cardinality " << cardinality);
                const std::span<const uint8_t> page(c.bytes.data(), size);
                const PageFingerprint got = fp.FingerprintPage(page);
                const std::vector<SampledChunk> want = ReferenceFingerprint(page, o);
                ASSERT_EQ(got.chunks.size(), want.size());
                for (size_t i = 0; i < want.size(); ++i) {
                  ASSERT_EQ(got.chunks[i].offset, want[i].offset) << "chunk " << i;
                  ASSERT_EQ(got.chunks[i].key, want[i].key) << "chunk " << i;
                }
              }
            }
          }
        }
      }
    }
  }
  kernels::ResetTierFromEnvironment();
}

TEST(FingerprintTest, FingerprintImageCoversAllPages) {
  PageFingerprinter fp({});
  auto image = RandomBytes(4096 * 7 + 100, 11);  // trailing partial page ignored
  auto fps = fp.FingerprintImage(image, 4096);
  EXPECT_EQ(fps.size(), 7u);
}

TEST(FingerprintTest, OffsetsWithinPage) {
  PageFingerprinter fp({});
  auto result = fp.FingerprintPage(RandomBytes(4096, 12));
  for (const auto& chunk : result.chunks) {
    EXPECT_LE(chunk.offset + 64u, 4096u);
  }
}

// Parameterized sweep over cardinality (the paper's Section 7.8 knob).
class CardinalityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CardinalityTest, RespectsRequestedCardinality) {
  FingerprintOptions options;
  options.cardinality = GetParam();
  // Widen the sampling mask so enough candidates exist for high cardinality.
  options.sample_mask = 0x7f;
  PageFingerprinter fp(options);
  auto result = fp.FingerprintPage(RandomBytes(4096, 13));
  EXPECT_EQ(result.Cardinality(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, CardinalityTest, ::testing::Values(1, 3, 5, 10, 20));

// Parameterized sweep over chunk size (Section 7.8's other knob).
class ChunkSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkSizeTest, FingerprintsProduced) {
  FingerprintOptions options;
  options.chunk_size = GetParam();
  PageFingerprinter fp(options);
  auto result = fp.FingerprintPage(RandomBytes(4096, 14));
  EXPECT_FALSE(result.Empty());
  for (const auto& chunk : result.chunks) {
    EXPECT_LE(chunk.offset + GetParam(), 4096u);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ChunkSizeTest, ::testing::Values(32, 64, 128, 256));

}  // namespace
}  // namespace medes
