#include "delta/delta.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"

namespace medes {
namespace {

using delta_internal::AppendVarint;
using delta_internal::ReadVarint;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

TEST(VarintTest, RoundTrip) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                     0xffffffffull, 0xffffffffffffffffull}) {
    std::vector<uint8_t> buf;
    AppendVarint(buf, v);
    size_t pos = 0;
    EXPECT_EQ(ReadVarint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncatedThrows) {
  std::vector<uint8_t> buf;
  AppendVarint(buf, 1u << 20);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_THROW(ReadVarint(buf, pos), DeltaError);
}

// A tenth byte lands at bit 63, so only 0 and 1 fit there; anything larger
// carries bits past 64 and must not decode to a truncated value.
TEST(VarintTest, OverflowingTenthByteThrows) {
  for (uint8_t tenth : {uint8_t{0x02}, uint8_t{0x7f}, uint8_t{0x80}, uint8_t{0xff}}) {
    for (uint8_t filler : {uint8_t{0x80}, uint8_t{0xff}}) {
      std::vector<uint8_t> buf(9, filler);
      buf.push_back(tenth);
      buf.push_back(0x00);
      size_t pos = 0;
      EXPECT_THROW(ReadVarint(buf, pos), DeltaError)
          << "filler " << int{filler} << " tenth byte " << int{tenth};
    }
  }
  std::vector<uint8_t> max(9, 0xff);
  max.push_back(0x01);
  size_t pos = 0;
  EXPECT_EQ(ReadVarint(max, pos), 0xffffffffffffffffull);
  EXPECT_EQ(pos, max.size());
}

TEST(DeltaTest, IdenticalBuffersProduceTinyDelta) {
  auto base = RandomBytes(4096, 1);
  auto delta = DeltaEncode(base, base);
  EXPECT_LT(delta.size(), 32u);  // header + one COPY
  EXPECT_EQ(DeltaDecode(base, delta), base);
}

TEST(DeltaTest, EmptyTarget) {
  auto base = RandomBytes(128, 2);
  auto delta = DeltaEncode(base, {});
  EXPECT_TRUE(DeltaDecode(base, delta).empty());
}

TEST(DeltaTest, EmptyBase) {
  auto target = RandomBytes(512, 3);
  auto delta = DeltaEncode({}, target);
  EXPECT_EQ(DeltaDecode({}, delta), target);
}

TEST(DeltaTest, UnrelatedBuffersStillRoundTrip) {
  auto base = RandomBytes(4096, 4);
  auto target = RandomBytes(4096, 5);
  auto delta = DeltaEncode(base, target);
  EXPECT_EQ(DeltaDecode(base, delta), target);
}

TEST(DeltaTest, SmallEditYieldsSmallPatch) {
  auto base = RandomBytes(4096, 6);
  auto target = base;
  // Mutate 16 bytes in the middle — models a few pointer rewrites.
  for (size_t i = 2000; i < 2016; ++i) {
    target[i] ^= 0xff;
  }
  auto delta = DeltaEncode(base, target);
  EXPECT_EQ(DeltaDecode(base, delta), target);
  EXPECT_LT(delta.size(), 128u) << "patch should be near the edit size";
}

TEST(DeltaTest, ShiftedContentIsFound) {
  // Insert 8 bytes at the front; the rest should COPY from the base.
  auto base = RandomBytes(4096, 7);
  std::vector<uint8_t> target(8, 0xaa);
  target.insert(target.end(), base.begin(), base.end());
  auto delta = DeltaEncode(base, target);
  EXPECT_EQ(DeltaDecode(base, delta), target);
  DeltaStats stats = InspectDelta(delta);
  EXPECT_GT(stats.copy_bytes, 4000u);
}

TEST(DeltaTest, Level0IsPureLiteral) {
  auto base = RandomBytes(1024, 8);
  auto delta = DeltaEncode(base, base, {.level = 0});
  DeltaStats stats = InspectDelta(delta);
  EXPECT_EQ(stats.copy_ops, 0u);
  EXPECT_EQ(stats.add_bytes, 1024u);
  EXPECT_EQ(DeltaDecode(base, delta), base);
}

TEST(DeltaTest, HigherLevelsNeverDecodeDifferently) {
  auto base = RandomBytes(8192, 9);
  auto target = base;
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    target[rng.Below(target.size())] ^= 0x01;
  }
  for (int level : {0, 1, 3, 5, 9}) {
    auto delta = DeltaEncode(base, target, {.level = level});
    EXPECT_EQ(DeltaDecode(base, delta), target) << "level " << level;
  }
}

TEST(DeltaTest, HigherLevelAtLeastAsSmallOnRepetitiveInput) {
  // Token-structured data with scattered edits: deeper matching helps.
  std::vector<uint8_t> base;
  for (int t = 0; t < 128; ++t) {
    auto token = RandomBytes(64, static_cast<uint64_t>(t % 16));
    base.insert(base.end(), token.begin(), token.end());
  }
  std::vector<uint8_t> target = base;
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    target[rng.Below(target.size())] ^= 0x80;
  }
  auto fast = DeltaEncode(base, target, {.level = 1});
  auto best = DeltaEncode(base, target, {.level = 9});
  EXPECT_LE(best.size(), fast.size() + 64);
}

TEST(DeltaTest, InspectMatchesEncode) {
  auto base = RandomBytes(4096, 12);
  auto target = base;
  target[100] ^= 1;
  auto delta = DeltaEncode(base, target);
  DeltaStats stats = InspectDelta(delta);
  EXPECT_EQ(stats.base_length, base.size());
  EXPECT_EQ(stats.target_length, target.size());
  EXPECT_EQ(stats.add_bytes + stats.copy_bytes, target.size());
  EXPECT_EQ(stats.delta_length, delta.size());
  EXPECT_EQ(DeltaTargetLength(delta), target.size());
}

TEST(DeltaTest, DecodeRejectsCorruptMagic) {
  auto base = RandomBytes(64, 13);
  auto delta = DeltaEncode(base, base);
  delta[0] = 'X';
  EXPECT_THROW(DeltaDecode(base, delta), DeltaError);
}

TEST(DeltaTest, DecodeRejectsWrongBase) {
  auto base = RandomBytes(64, 14);
  auto other = RandomBytes(128, 15);
  auto delta = DeltaEncode(base, base);
  EXPECT_THROW(DeltaDecode(other, delta), DeltaError);
}

TEST(DeltaTest, DecodeRejectsTruncatedDelta) {
  auto base = RandomBytes(1024, 16);
  auto target = RandomBytes(1024, 17);
  auto delta = DeltaEncode(base, target);
  delta.resize(delta.size() / 2);
  EXPECT_THROW(DeltaDecode(base, delta), DeltaError);
}

TEST(DeltaTest, RejectsTinySeed) {
  auto base = RandomBytes(64, 18);
  EXPECT_THROW(DeltaEncode(base, base, {.seed_length = 2}), DeltaError);
}

// Property-style sweep: random (base, target) pairs with varying similarity
// always round-trip, and patch size shrinks as similarity grows.
class DeltaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DeltaPropertyTest, RoundTripAtManySimilarities) {
  const int mutations = GetParam();
  auto base = RandomBytes(4096, 100 + static_cast<uint64_t>(mutations));
  auto target = base;
  Rng rng(200 + static_cast<uint64_t>(mutations));
  for (int i = 0; i < mutations; ++i) {
    size_t off = rng.Below(target.size() - 8);
    uint64_t v = rng.Next();
    std::memcpy(target.data() + off, &v, 8);
  }
  auto delta = DeltaEncode(base, target);
  EXPECT_EQ(DeltaDecode(base, delta), target);
  if (mutations <= 4) {
    EXPECT_LT(delta.size(), 512u);
  }
}

INSTANTIATE_TEST_SUITE_P(MutationSweep, DeltaPropertyTest,
                         ::testing::Values(0, 1, 2, 4, 8, 16, 32, 64, 128, 256));

}  // namespace
}  // namespace medes
