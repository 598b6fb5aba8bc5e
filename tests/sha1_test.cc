#include "common/sha1.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace medes {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// FIPS 180-1 / RFC 3174 known-answer tests.
TEST(Sha1Test, EmptyInput) {
  EXPECT_EQ(Sha1::Hash({}).ToHex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  auto data = Bytes("abc");
  EXPECT_EQ(Sha1::Hash(data).ToHex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  auto data = Bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(Sha1::Hash(data).ToHex(), "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  std::vector<uint8_t> data(1000000, 'a');
  EXPECT_EQ(Sha1::Hash(data).ToHex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, QuickBrownFox) {
  auto data = Bytes("The quick brown fox jumps over the lazy dog");
  EXPECT_EQ(Sha1::Hash(data).ToHex(), "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  Rng rng(42);
  std::vector<uint8_t> data(100000);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  // Feed in awkward split sizes that straddle block boundaries.
  Sha1 hasher;
  size_t pos = 0;
  const size_t splits[] = {1, 63, 64, 65, 127, 4096, 9999};
  size_t i = 0;
  while (pos < data.size()) {
    size_t take = std::min(splits[i++ % 7], data.size() - pos);
    hasher.Update({data.data() + pos, take});
    pos += take;
  }
  EXPECT_EQ(hasher.Finish(), Sha1::Hash(data));
}

TEST(Sha1Test, FinishResetsState) {
  Sha1 hasher;
  auto data = Bytes("abc");
  hasher.Update(data);
  Sha1Digest first = hasher.Finish();
  hasher.Update(data);
  Sha1Digest second = hasher.Finish();
  EXPECT_EQ(first, second);
}

TEST(Sha1Test, DistinctInputsDistinctDigests) {
  auto a = Sha1::Hash(Bytes("hello"));
  auto b = Sha1::Hash(Bytes("hellp"));
  EXPECT_NE(a, b);
}

TEST(Sha1Test, Prefix64KnownAnswers) {
  // Big-endian: the returned integer reads like the first 16 hex digits of
  // the digest. SHA-1("abc") = a9993e364706816a ba3e25717850c26c 9cd0d89d.
  EXPECT_EQ(Sha1::Hash(Bytes("abc")).Prefix64(), 0xa9993e364706816aull);
  // SHA-1("") = da39a3ee5e6b4b0d 3255bfef95601890 afd80709.
  EXPECT_EQ(Sha1::Hash(Bytes("")).Prefix64(), 0xda39a3ee5e6b4b0dull);
}

TEST(Sha1Test, Prefix64TruncationKeepsDigestPrefix) {
  // Dropping to key_bits keeps the digest's *leading* bits: for "abc" the
  // top 16 bits of Prefix64 are the first two digest bytes, 0xa999.
  Sha1Digest d = Sha1::Hash(Bytes("abc"));
  EXPECT_EQ(d.Prefix64() >> 48, 0xa999u);
  EXPECT_EQ(d.bytes[0], 0xa9u);
  EXPECT_EQ(d.bytes[1], 0x99u);
}

TEST(Sha1Test, DigestOrderingIsConsistent) {
  Sha1Digest a = Sha1::Hash(Bytes("a"));
  Sha1Digest b = Sha1::Hash(Bytes("b"));
  EXPECT_TRUE((a < b) || (b < a));
  EXPECT_FALSE(a < a);
}

// Property: one-bit changes flip the digest (sampled).
TEST(Sha1Test, BitFlipChangesDigest) {
  std::vector<uint8_t> data(256, 0x5a);
  Sha1Digest base = Sha1::Hash(data);
  for (size_t byte : {size_t{0}, size_t{63}, size_t{64}, size_t{255}}) {
    auto mutated = data;
    mutated[byte] ^= 1;
    EXPECT_NE(Sha1::Hash(mutated), base) << "byte " << byte;
  }
}

// The key batch equals one Hash(chunk).Prefix64() per chunk at every batch
// size from 0 to 130: both sides of the kernel's chunk pairs and of the
// 64-chunk strips the batch reads its keys out in. Chunks overlap and some
// repeat, as sampled chunks of one page can.
TEST(Sha1Test, Chunk64Prefix64BatchMatchesHash) {
  Rng rng(7);
  std::vector<uint8_t> data(8192);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<const uint8_t*> chunks;
  for (size_t i = 0; i < 130; ++i) {
    chunks.push_back(data.data() + (i % 7 == 3 ? 0 : rng.Below(data.size() - 64 + 1)));
  }
  for (size_t n = 0; n <= chunks.size(); ++n) {
    std::vector<uint64_t> keys(n + 1, 0x5a5a5a5a5a5a5a5aull);
    Sha1::Chunk64Prefix64Batch(chunks.data(), n, keys.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(keys[i], Sha1::Hash({chunks[i], 64}).Prefix64()) << "n " << n << " chunk " << i;
    }
    EXPECT_EQ(keys[n], 0x5a5a5a5a5a5a5a5aull) << "n " << n << " wrote past the batch";
  }
}

}  // namespace
}  // namespace medes
