#include "memstate/image.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "chunking/redundancy.h"
#include "common/rng.h"
#include "memstate/library_pool.h"
#include "memstate/profiles.h"
#include "memstate/tokens.h"

namespace medes {
namespace {

constexpr size_t kTestScale = 16384;  // 16 KiB per represented MB

TEST(TokenDictionaryTest, TokensAreDistinctAndDeterministic) {
  TokenDictionary a(1, 256), b(1, 256);
  std::set<std::vector<uint8_t>> unique;
  for (size_t i = 0; i < 256; ++i) {
    auto ta = a.Token(i);
    auto tb = b.Token(i);
    EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin()));
    unique.emplace(ta.begin(), ta.end());
  }
  EXPECT_EQ(unique.size(), 256u);
}

TEST(TokenDictionaryTest, IndexWrapsAround) {
  TokenDictionary d(2, 16);
  auto a = d.Token(3);
  auto b = d.Token(19);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ProfilesTest, TableTwoValues) {
  // Spot-check against the paper's Table 2.
  const FunctionProfile& vanilla = ProfileByName("Vanilla");
  EXPECT_EQ(vanilla.exec_time, FromMillis(150));
  EXPECT_DOUBLE_EQ(vanilla.memory_mb, 17.0);
  const FunctionProfile& rnn = ProfileByName("RNNModel");
  EXPECT_DOUBLE_EQ(rnn.memory_mb, 90.0);
  EXPECT_EQ(FunctionBenchProfiles().size(), 10u);
}

TEST(ProfilesTest, IdsMatchIndices) {
  const auto& profiles = FunctionBenchProfiles();
  for (size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].id, static_cast<int>(i));
  }
}

TEST(ProfilesTest, UnknownNameThrows) {
  EXPECT_THROW(ProfileByName("NoSuchFunction"), std::out_of_range);
}

TEST(ProfilesTest, LibraryFootprintBelowTotal) {
  for (const auto& p : FunctionBenchProfiles()) {
    EXPECT_LT(LibraryFootprintMb(p), p.memory_mb)
        << p.name << " must leave room for heap and stack";
  }
}

TEST(LibraryPoolTest, BlobsAreDeterministicAndCached) {
  LibraryPool pool(1, kTestScale);
  auto a = pool.Blob("numpy");
  auto b = pool.Blob("numpy");
  EXPECT_EQ(a.data(), b.data());  // cached
  LibraryPool pool2(1, kTestScale);
  auto c = pool2.Blob("numpy");
  ASSERT_EQ(a.size(), c.size());
  EXPECT_EQ(std::memcmp(a.data(), c.data(), a.size()), 0);
}

TEST(LibraryPoolTest, DifferentLibrariesDiffer) {
  LibraryPool pool(1, kTestScale);
  auto a = pool.Blob("numpy");
  auto b = pool.Blob("torch");
  EXPECT_NE(a.size(), b.size());
}

TEST(LibraryPoolTest, ScaledBytesPageAligned) {
  LibraryPool pool(1, kTestScale);
  EXPECT_EQ(pool.ScaledBytes(1.0) % kPageSize, 0u);
  EXPECT_EQ(pool.ScaledBytes(0.1) % kPageSize, 0u);
  EXPECT_GT(pool.ScaledBytes(0.1), 0u);
}

// FillWithTokens equals the token-at-a-time fill: each run draws a start
// token and a length of 16-128 tokens, then copies tokens start, start + 1,
// ... wrapping past the last, until the run or the output ends. Dictionaries
// smaller than a run wrap more than once; output sizes cut a token short.
TEST(LibraryPoolTest, FillCopiesTokenRunsInOrder) {
  for (size_t num_tokens : {size_t{4096}, size_t{100}, size_t{3}, size_t{1}}) {
    const TokenDictionary dict(9, num_tokens);
    for (size_t size : {size_t{0}, size_t{1}, size_t{63}, size_t{4096}, size_t{70001}}) {
      SCOPED_TRACE(::testing::Message() << num_tokens << " tokens, " << size << " bytes");
      std::vector<uint8_t> want(size);
      Rng rng(17);
      for (size_t pos = 0; pos < size;) {
        const size_t start = rng.Below(dict.NumTokens());
        const size_t run_tokens = 16 + rng.Below(113);
        for (size_t t = 0; t < run_tokens && pos < size; ++t) {
          const std::span<const uint8_t> token = dict.Token(start + t);
          const size_t take = std::min(token.size(), size - pos);
          std::memcpy(want.data() + pos, token.data(), take);
          pos += take;
        }
      }
      std::vector<uint8_t> got(size);
      FillWithTokens(dict, 17, got);
      EXPECT_EQ(got, want);
    }
  }
}

class ImageTest : public ::testing::Test {
 protected:
  LibraryPool pool_{42, kTestScale};
};

TEST_F(ImageTest, ImageIsPageAlignedAndSegmented) {
  const auto& profile = ProfileByName("LinAlg");
  MemoryImage image = BuildSandboxImage(profile, pool_, {.instance_seed = 1});
  EXPECT_EQ(image.SizeBytes() % kPageSize, 0u);
  EXPECT_GT(image.NumPages(), 10u);
  EXPECT_DOUBLE_EQ(image.represented_mb(), profile.memory_mb);
  // Segments tile the image exactly.
  size_t cursor = 0;
  for (const Segment& seg : image.segments()) {
    EXPECT_EQ(seg.offset, cursor);
    cursor += seg.size;
  }
  EXPECT_EQ(cursor, image.SizeBytes());
}

TEST_F(ImageTest, SameSeedSameImage) {
  const auto& profile = ProfileByName("Vanilla");
  MemoryImage a = BuildSandboxImage(profile, pool_, {.instance_seed = 7});
  MemoryImage b = BuildSandboxImage(profile, pool_, {.instance_seed = 7});
  ASSERT_EQ(a.SizeBytes(), b.SizeBytes());
  EXPECT_EQ(std::memcmp(a.bytes().data(), b.bytes().data(), a.SizeBytes()), 0);
}

TEST_F(ImageTest, DifferentSeedsDifferButAreSimilar) {
  const auto& profile = ProfileByName("Vanilla");
  // Freshly-loaded sandboxes (the Section 2 measurement setting): heaps have
  // barely diverged.
  MemoryImage a = BuildSandboxImage(profile, pool_, FreshImageOptions(1));
  MemoryImage b = BuildSandboxImage(profile, pool_, FreshImageOptions(2));
  ASSERT_EQ(a.SizeBytes(), b.SizeBytes());
  EXPECT_NE(std::memcmp(a.bytes().data(), b.bytes().data(), a.SizeBytes()), 0);
  // Same-function sandboxes are highly redundant (paper Fig. 1a).
  double frac = MeasureRedundancy(a.bytes(), b.bytes()).Fraction();
  EXPECT_GT(frac, 0.75);
  // Post-execution images diverge much more (execution dirtiness) but stay
  // partially redundant.
  MemoryImage c = BuildSandboxImage(profile, pool_, {.instance_seed = 1});
  MemoryImage d = BuildSandboxImage(profile, pool_, {.instance_seed = 2});
  double executed = MeasureRedundancy(c.bytes(), d.bytes()).Fraction();
  EXPECT_GT(executed, 0.1);
  EXPECT_LT(executed, frac);
}

TEST_F(ImageTest, CrossFunctionRedundancyExists) {
  // Fig. 1c setting: freshly-loaded sandboxes of *different* functions that
  // share python_runtime + numpy.
  MemoryImage a = BuildSandboxImage(ProfileByName("LinAlg"), pool_, FreshImageOptions(1));
  MemoryImage b = BuildSandboxImage(ProfileByName("ImagePro"), pool_, FreshImageOptions(2));
  double frac = MeasureRedundancy(a.bytes(), b.bytes()).Fraction();
  EXPECT_GT(frac, 0.5);
}

TEST_F(ImageTest, AslrReducesRedundancyModestly) {
  const auto& profile = ProfileByName("LinAlg");
  MemoryImage a1 = BuildSandboxImage(profile, pool_, FreshImageOptions(1, false));
  MemoryImage a2 = BuildSandboxImage(profile, pool_, FreshImageOptions(2, false));
  MemoryImage b1 = BuildSandboxImage(profile, pool_, FreshImageOptions(1, true));
  MemoryImage b2 = BuildSandboxImage(profile, pool_, FreshImageOptions(2, true));
  double no_aslr = MeasureRedundancy(a1.bytes(), a2.bytes()).Fraction();
  double aslr = MeasureRedundancy(b1.bytes(), b2.bytes()).Fraction();
  EXPECT_LT(aslr, no_aslr);
  EXPECT_GT(aslr, no_aslr - 0.25) << "ASLR drop should be modest at 64B chunks";
}

TEST_F(ImageTest, ZeroSegmentIsZero) {
  const auto& profile = ProfileByName("MapReduce");
  MemoryImage image = BuildSandboxImage(profile, pool_, {.instance_seed = 3});
  for (const Segment& seg : image.segments()) {
    if (seg.kind == SegmentKind::kZero) {
      ASSERT_GT(seg.size, 0u);
      for (size_t i = seg.offset; i < seg.offset + seg.size; ++i) {
        ASSERT_EQ(image.bytes()[i], 0) << "offset " << i;
      }
    }
  }
}

TEST_F(ImageTest, UniqueHeapDiffersAcrossInstances) {
  const auto& profile = ProfileByName("MapReduce");
  MemoryImage a = BuildSandboxImage(profile, pool_, {.instance_seed = 1});
  MemoryImage b = BuildSandboxImage(profile, pool_, {.instance_seed = 2});
  const Segment* seg = nullptr;
  for (const Segment& s : a.segments()) {
    if (s.kind == SegmentKind::kUniqueHeap) {
      seg = &s;
    }
  }
  ASSERT_NE(seg, nullptr);
  ASSERT_GT(seg->size, 0u);
  EXPECT_NE(std::memcmp(a.bytes().data() + seg->offset, b.bytes().data() + seg->offset, seg->size),
            0);
}

TEST_F(ImageTest, LibrarySegmentsSharedAcrossFunctions) {
  // The numpy segment bytes of LinAlg and VideoPro come from the same blob
  // (modulo per-instance relocation noise).
  SandboxImageOptions clean;
  clean.dirty_fraction_override = 0.0;  // isolate the shared-blob property
  clean.instance_seed = 1;
  MemoryImage a = BuildSandboxImage(ProfileByName("LinAlg"), pool_, clean);
  clean.instance_seed = 9;
  MemoryImage b = BuildSandboxImage(ProfileByName("VideoPro"), pool_, clean);
  auto find_seg = [](const MemoryImage& img, const std::string& name) -> const Segment* {
    for (const Segment& s : img.segments()) {
      if (s.name == name) {
        return &s;
      }
    }
    return nullptr;
  };
  const Segment* sa = find_seg(a, "numpy");
  const Segment* sb = find_seg(b, "numpy");
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  ASSERT_EQ(sa->size, sb->size);
  size_t same = 0;
  for (size_t i = 0; i < sa->size; ++i) {
    same += (a.bytes()[sa->offset + i] == b.bytes()[sb->offset + i]) ? 1 : 0;
  }
  EXPECT_GT(static_cast<double>(same) / static_cast<double>(sa->size), 0.95);
}

// All ten functions build valid images — parameterized sweep.
class AllProfilesImageTest : public ::testing::TestWithParam<int> {};

TEST_P(AllProfilesImageTest, Builds) {
  LibraryPool pool(42, kTestScale);
  const auto& profile = FunctionBenchProfiles().at(static_cast<size_t>(GetParam()));
  MemoryImage image = BuildSandboxImage(profile, pool, {.instance_seed = 5});
  EXPECT_GT(image.NumPages(), 0u);
  EXPECT_EQ(image.SizeBytes() % kPageSize, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllFunctions, AllProfilesImageTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace medes
