// Delta codec robustness corpus: round-trips at every level over adversarial
// content shapes, exhaustive truncation, byte-level corruption, and crafted
// op streams that overflow naive `pos + len` bounds arithmetic. Decoding a
// malformed delta must throw DeltaError — never crash, hang, or read out of
// bounds (the CI sanitizer job runs this binary under ASan/UBSan). The
// encoder is also pinned byte for byte against an in-test reference model.
#include "delta/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"

namespace medes {
namespace {

using delta_internal::AppendVarint;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// A target derived from `base` with sparse point edits, an insertion and a
// deletion — the shape real page deltas take.
std::vector<uint8_t> MutatedCopy(const std::vector<uint8_t>& base, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> target = base;
  for (int i = 0; i < 25 && !target.empty(); ++i) {
    target[rng.Below(target.size())] = static_cast<uint8_t>(rng.Next());
  }
  auto insert = RandomBytes(33, seed + 1);
  target.insert(target.begin() + static_cast<ptrdiff_t>(rng.Below(target.size() + 1)),
                insert.begin(), insert.end());
  if (target.size() > 100) {
    size_t cut = rng.Below(target.size() - 50);
    target.erase(target.begin() + static_cast<ptrdiff_t>(cut),
                 target.begin() + static_cast<ptrdiff_t>(cut + 40));
  }
  return target;
}

// Reference model: the plain greedy encoder with no seed prefilter — a
// probe of a size_t-offset seed table at every target position, byte loops
// for seed comparison and match extension. Same table geometry, hash and
// tie-breaks as DeltaEncodeInto, which must emit exactly these bytes.
std::vector<uint8_t> ReferenceEncode(std::span<const uint8_t> base,
                                     std::span<const uint8_t> target,
                                     const DeltaOptions& options) {
  std::vector<uint8_t> out = {'M', 'D', 'T', '1'};
  AppendVarint(out, base.size());
  AppendVarint(out, target.size());
  auto emit_add = [&](size_t from, size_t to) {
    if (from == to) {
      return;
    }
    out.push_back(0x00);
    AppendVarint(out, to - from);
    out.insert(out.end(), target.begin() + static_cast<ptrdiff_t>(from),
               target.begin() + static_cast<ptrdiff_t>(to));
  };
  const size_t seed = options.seed_length;
  const size_t level = static_cast<size_t>(std::clamp(options.level, 0, 9));
  if (level == 0 || base.size() < seed) {
    emit_add(0, target.size());
    return out;
  }
  const size_t stride = std::max<size_t>(1, seed / (1 + level));
  const size_t depth = 1 + level / 2 + 1;
  size_t cap = 64;
  while (cap < ((base.size() - seed) / stride + 1) * depth * 2) {
    cap <<= 1;
  }
  auto bucket = [&](const uint8_t* p) { return (MixBits(Fnv1a64({p, seed})) & (cap - 1)) * depth; };
  constexpr size_t kEmpty = std::numeric_limits<size_t>::max();
  std::vector<size_t> slots(cap * depth, kEmpty);
  for (size_t i = 0; i + seed <= base.size(); i += stride) {
    const auto b = slots.begin() + static_cast<ptrdiff_t>(bucket(base.data() + i));
    std::copy_backward(b, b + static_cast<ptrdiff_t>(depth - 1), b + static_cast<ptrdiff_t>(depth));
    *b = i;
  }
  size_t pending = 0;
  size_t pos = 0;
  while (pos + seed <= target.size()) {
    const size_t b = bucket(target.data() + pos);
    size_t cand = kEmpty;
    size_t fwd = 0;
    for (size_t d = 0; d < depth && slots[b + d] != kEmpty; ++d) {
      const size_t c = slots[b + d];
      if (std::memcmp(base.data() + c, target.data() + pos, seed) != 0) {
        continue;
      }
      size_t len = 0;
      while (c + len < base.size() && pos + len < target.size() &&
             base[c + len] == target[pos + len]) {
        ++len;
      }
      if (len > fwd) {
        cand = c;
        fwd = len;
      }
    }
    if (cand == kEmpty) {
      ++pos;
      continue;
    }
    size_t back = 0;
    while (back < std::min(pos - pending, cand) &&
           base[cand - back - 1] == target[pos - back - 1]) {
      ++back;
    }
    if (fwd + back < options.min_match) {
      ++pos;
      continue;
    }
    emit_add(pending, pos - back);
    out.push_back(0x01);
    AppendVarint(out, cand - back);
    AppendVarint(out, fwd + back);
    pos += fwd;
    pending = pos;
  }
  emit_add(pending, target.size());
  return out;
}

// A copy of `base` with a point edit every 3–14 bytes: matches are short,
// so seeds of 4–9 bytes sit right at the edge of the prefilter's key.
std::vector<uint8_t> DenselyEdited(const std::vector<uint8_t>& base, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> target = base;
  for (size_t i = rng.Below(8); i < target.size(); i += 3 + rng.Below(12)) {
    target[i] = static_cast<uint8_t>(rng.Next());
  }
  return target;
}

// Bytes from a four-symbol alphabet: many equal seeds, so buckets overflow
// and evicted offsets keep their prefilter bits.
std::vector<uint8_t> LowEntropy(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Below(4));
  }
  return out;
}

TEST(DeltaFuzzTest, EncoderMatchesReferenceModel) {
  const auto page = RandomBytes(4096, 60);
  std::vector<uint8_t> pages;  // four unrelated pages, target drawn from the third
  for (uint64_t p = 0; p < 4; ++p) {
    const auto bytes = RandomBytes(4096, 61 + p);
    pages.insert(pages.end(), bytes.begin(), bytes.end());
  }
  const std::vector<uint8_t> third(pages.begin() + 8192, pages.begin() + 12288);
  std::vector<uint8_t> stitched = MutatedCopy(third, 65);  // plus runs from pages 0 and 3
  std::copy_n(pages.begin() + 100, 300, stitched.begin() + 500);
  std::copy_n(pages.begin() + 12288 + 2000, 700, stitched.begin() + 3000);
  const auto low = LowEntropy(4096, 66);
  const std::vector<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>> cases = {
      {page, RandomBytes(4096, 67)},                 // unrelated random pages
      {page, MutatedCopy(page, 68)},                 // sparse edits, an insert, a cut
      {page, DenselyEdited(page, 69)},               // an edit every few bytes
      {pages, stitched},                             // multi-page base
      {pages, DenselyEdited(third, 70)},             // multi-page base, dense edits
      {low, DenselyEdited(low, 71)},                 // overflowing buckets
      {RandomBytes(37, 72), RandomBytes(4096, 72)},  // base barely above a seed
  };
  // Every input runs twice: through one shared scratch, whose seed-table
  // cache is warm because the same bases recur across levels and seed
  // lengths (so the table geometry must be part of the key), and with a
  // fresh scratch per call (nullptr), which always builds the table.
  DeltaScratch shared;
  std::vector<uint8_t> got;
  for (DeltaScratch* scratch : {&shared, static_cast<DeltaScratch*>(nullptr)}) {
    SCOPED_TRACE(scratch != nullptr ? "shared scratch" : "fresh scratch");
    for (size_t seed_length : {4, 5, 7, 8, 9, 16, 32}) {
      for (int level = 0; level <= 9; ++level) {
        DeltaOptions options;
        options.level = level;
        options.seed_length = seed_length;
        for (size_t c = 0; c < cases.size(); ++c) {
          const auto& [base, target] = cases[c];
          DeltaEncodeInto(base, target, options, got, scratch);
          ASSERT_EQ(got, ReferenceEncode(base, target, options))
              << "seed_length " << seed_length << " level " << level << " case " << c;
          ASSERT_EQ(DeltaDecode(base, got), target);
        }
      }
    }
  }
  // Base lengths from one seed to nine strides past it: the seed index
  // hashes base seeds in batches of 8, so these fill a batch, leave a tail,
  // or have no full batch at all. Low-entropy and period-3 bytes give many
  // equal seeds, so the order offsets enter a bucket decides which
  // candidate survives and wins.
  std::vector<uint8_t> periodic(1024);
  for (size_t i = 0; i < periodic.size(); ++i) {
    periodic[i] = static_cast<uint8_t>(i % 3);
  }
  for (const auto& source : {LowEntropy(1024, 73), periodic}) {
    const std::vector<uint8_t> edited = DenselyEdited(source, 74);
    const std::span<const uint8_t> whole(source);
    const std::span<const uint8_t> edits(edited);
    const std::span<const uint8_t> targets[] = {whole.first(512), edits.subspan(100, 300)};
    for (size_t seed_length : {4, 5, 7, 8, 9, 16, 32}) {
      for (size_t level = 1; level <= 9; ++level) {
        const DeltaOptions options{.level = static_cast<int>(level), .seed_length = seed_length};
        const size_t stride = std::max<size_t>(1, seed_length / (1 + level));
        for (size_t len = seed_length; len <= seed_length + 9 * stride; ++len) {
          const std::span<const uint8_t> base(source.data(), len);
          for (const auto& target : targets) {
            DeltaEncodeInto(base, target, options, got, &shared);
            ASSERT_EQ(got, ReferenceEncode(base, target, options))
                << "seed_length " << seed_length << " level " << level << " base " << len;
          }
        }
      }
    }
  }
}

// Targets whose 8-byte runs start like base seeds but go on differently:
// the prefilter key of a seed of 8 bytes or more reads only its first 8
// bytes, so these positions pass the filter and then miss in FindBest.
// Half the cases keep the base's alignment, half scatter its prefixes.
TEST(DeltaFuzzTest, SharedSeedPrefixesMatchReferenceModel) {
  const auto base = RandomBytes(4096, 75);
  std::vector<uint8_t> aligned = RandomBytes(4096, 76);
  for (size_t i = 0; i < aligned.size(); i += 16) {
    std::copy_n(base.begin() + static_cast<ptrdiff_t>(i), 8,
                aligned.begin() + static_cast<ptrdiff_t>(i));
  }
  std::vector<uint8_t> scattered = RandomBytes(4096, 77);
  Rng rng(78);
  for (size_t i = 0; i + 16 <= scattered.size(); i += 9 + rng.Below(12)) {
    const size_t from = 8 * rng.Below(base.size() / 8 - 1);
    std::copy_n(base.begin() + static_cast<ptrdiff_t>(from), 8 + rng.Below(8),
                scattered.begin() + static_cast<ptrdiff_t>(i));
  }
  // A few whole runs too, so misses sit between real matches.
  std::copy_n(base.begin() + 1000, 200, scattered.begin() + 2000);
  DeltaScratch scratch;
  std::vector<uint8_t> got;
  for (const auto& target : {aligned, scattered}) {
    for (size_t seed_length : {8, 9, 12, 16, 32}) {
      for (int level = 1; level <= 9; ++level) {
        const DeltaOptions options{.level = level, .seed_length = seed_length};
        DeltaEncodeInto(base, target, options, got, &scratch);
        ASSERT_EQ(got, ReferenceEncode(base, target, options))
            << "seed_length " << seed_length << " level " << level;
        ASSERT_EQ(DeltaDecode(base, got), target);
      }
    }
  }
}

// Seed-table offsets are 16-bit, so the longest base is 65535 bytes. The
// target comes from the base's tail, so matches sit at the highest offsets.
TEST(DeltaFuzzTest, EncodeRejectsBaseOf64KiB) {
  const auto bytes = RandomBytes(kDeltaBaseLimit, 90);
  const std::span<const uint8_t> longest = std::span<const uint8_t>(bytes).first(kDeltaBaseLimit - 1);
  const auto target =
      MutatedCopy(std::vector<uint8_t>(longest.end() - 4096, longest.end()), 91);
  for (const DeltaOptions options : {DeltaOptions{}, DeltaOptions{.seed_length = 4}}) {
    const std::vector<uint8_t> delta = DeltaEncode(longest, target, options);
    EXPECT_EQ(delta, ReferenceEncode(longest, target, options));
    EXPECT_GT(InspectDelta(delta).copy_bytes, target.size() / 2);
  }
  EXPECT_THROW((void)DeltaEncode(bytes, target), DeltaError);
  EXPECT_THROW((void)DeltaEncode(bytes, target, {.level = 0}), DeltaError);
}

// A cached seed table belongs to the base's bytes, not to where they live:
// rewriting a base in place (same buffer, same length) must not reuse the
// table built over its old contents.
TEST(DeltaFuzzTest, SeedTableCacheSeesBaseRewrite) {
  DeltaScratch scratch;
  std::vector<uint8_t> base = RandomBytes(4096, 92);
  const uint8_t* const where = base.data();
  const auto old_target = MutatedCopy(base, 93);
  std::vector<uint8_t> got;
  DeltaEncodeInto(base, old_target, {}, got, &scratch);
  ASSERT_EQ(got, ReferenceEncode(base, old_target, {}));

  const auto rewrite = RandomBytes(4096, 94);
  std::copy(rewrite.begin(), rewrite.end(), base.begin());
  ASSERT_EQ(base.data(), where);
  const auto new_target = MutatedCopy(base, 95);
  for (const auto& target : {new_target, old_target}) {
    DeltaEncodeInto(base, target, {}, got, &scratch);
    EXPECT_EQ(got, ReferenceEncode(base, target, {}));
    EXPECT_EQ(DeltaDecode(base, got), target);
  }
  // One changed byte is a different base too.
  base[2048] ^= 0x5A;
  DeltaEncodeInto(base, new_target, {}, got, &scratch);
  EXPECT_EQ(got, ReferenceEncode(base, new_target, {}));
}

// More distinct bases than the cache holds, of varying lengths, so victims
// are rebuilt over bases of another size; then the first base again, long
// since evicted. Every encode must still equal the reference.
TEST(DeltaFuzzTest, SeedTableCacheEvictionStaysExact) {
  const DeltaOptions options{.seed_length = 4};
  DeltaScratch scratch;
  std::vector<std::vector<uint8_t>> bases;
  // These tables are smaller than a 4 KiB level-1 table, so the byte budget
  // holds more than kCapacity of them.
  for (size_t i = 0; i < 2 * DeltaScratch::kCapacity + 16; ++i) {
    bases.push_back(LowEntropy(512 + 96 * (i % 5), 100 + i));
  }
  std::vector<uint8_t> got;
  for (size_t i = 0; i < bases.size(); ++i) {
    const auto target = DenselyEdited(bases[i], 400 + i);
    DeltaEncodeInto(bases[i], target, options, got, &scratch);
    ASSERT_EQ(got, ReferenceEncode(bases[i], target, options)) << "base " << i;
  }
  ASSERT_LT(scratch.CachedTables(), bases.size()) << "the first base was never evicted";
  const auto target = DenselyEdited(bases.front(), 99);
  DeltaEncodeInto(bases.front(), target, options, got, &scratch);
  EXPECT_EQ(got, ReferenceEncode(bases.front(), target, options));
  EXPECT_EQ(DeltaDecode(bases.front(), got), target);
}

// Bases that differ from one original in a single byte: the cache key
// samples a few words of a base, so most of them share the original's key
// and only the full compare tells their tables apart. Each variant is
// encoded beside the original through one scratch, and every encode must
// equal the one made without a scratch. Then the first variants again, from
// new buffers, long after the cache evicted their tables.
TEST(DeltaFuzzTest, SeedTableCacheTellsApartBasesWithOneKey) {
  DeltaScratch scratch;
  std::vector<uint8_t> got;
  const std::vector<std::vector<uint8_t>> originals = {
      RandomBytes(4096, 96), LowEntropy(4096, 97), RandomBytes(1000, 98), RandomBytes(100, 99)};
  for (size_t o = 0; o < originals.size(); ++o) {
    const std::vector<uint8_t>& original = originals[o];
    const auto target = MutatedCopy(original, 200 + o);
    auto variant = [&](size_t at) {
      std::vector<uint8_t> base = original;
      base[at] ^= 0x01;
      return base;
    };
    for (size_t at = 0; at < original.size(); at += 7) {
      const std::vector<uint8_t> base = variant(at);
      for (const std::vector<uint8_t>* b : {&base, &original}) {
        DeltaEncodeInto(*b, target, {}, got, &scratch);
        ASSERT_EQ(got, DeltaEncode(*b, target)) << "original " << o << " byte " << at;
      }
    }
    for (size_t at = 0; at < 70 && at < original.size(); at += 7) {
      const std::vector<uint8_t> base = variant(at);
      DeltaEncodeInto(base, target, {}, got, &scratch);
      ASSERT_EQ(got, DeltaEncode(base, target)) << "original " << o << " byte " << at;
    }
  }
  ASSERT_LT(scratch.CachedTables(), 4096 / 7) << "no table was evicted";
  // The first original, long evicted, from a new buffer.
  const std::vector<uint8_t> again = originals.front();
  const auto target = MutatedCopy(again, 300);
  DeltaEncodeInto(again, target, {}, got, &scratch);
  EXPECT_EQ(got, DeltaEncode(again, target));
}

// The cache is bounded by bytes, not by table count: at level 9 a 4 KiB
// base's table is about 60 times a level-1 table, so far fewer fit. At level
// 1 over 4 KiB bases the budget holds exactly kCapacity tables. A table
// larger than the whole budget is still kept, alone.
TEST(DeltaFuzzTest, SeedTableCacheStaysWithinByteBudget) {
  for (int level : {1, 9}) {
    DeltaScratch scratch;
    std::vector<uint8_t> got;
    for (size_t i = 0; i < DeltaScratch::kCapacity + 8; ++i) {
      const auto base = RandomBytes(4096, 700 + i);
      const auto target = MutatedCopy(base, 1700 + i);
      DeltaEncodeInto(base, target, DeltaOptions{.level = level}, got, &scratch);
      ASSERT_LE(scratch.CachedBytes(), DeltaScratch::BudgetBytes()) << "level " << level;
      ASSERT_EQ(DeltaDecode(base, got), target);
    }
    if (level == 1) {
      EXPECT_EQ(scratch.CachedTables(), DeltaScratch::kCapacity);
      EXPECT_EQ(scratch.CachedBytes(), DeltaScratch::BudgetBytes());
    } else {
      EXPECT_LT(scratch.CachedTables(), DeltaScratch::kCapacity / 16);
    }
  }
  DeltaScratch scratch;
  const auto base = RandomBytes(60000, 800);
  const auto target = MutatedCopy(base, 801);
  std::vector<uint8_t> got;
  DeltaEncodeInto(base, target, DeltaOptions{.level = 9}, got, &scratch);
  EXPECT_EQ(scratch.CachedTables(), 1u);
  EXPECT_GT(scratch.CachedBytes(), DeltaScratch::BudgetBytes());
  EXPECT_EQ(got, ReferenceEncode(base, target, DeltaOptions{.level = 9}));
}

TEST(DeltaFuzzTest, RoundTripEveryLevel) {
  const std::vector<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>> cases = {
      {RandomBytes(4096, 1), MutatedCopy(RandomBytes(4096, 1), 2)},
      {RandomBytes(4096, 3), RandomBytes(4096, 4)},            // unrelated buffers
      {std::vector<uint8_t>(4096, 0), RandomBytes(4096, 5)},   // zero base
      {RandomBytes(4096, 6), std::vector<uint8_t>(4096, 0)},   // zero target
      {std::vector<uint8_t>{}, RandomBytes(512, 7)},           // empty base
      {RandomBytes(512, 8), std::vector<uint8_t>{}},           // empty target
      {RandomBytes(64, 9), RandomBytes(64, 9)},                // identical
      {std::vector<uint8_t>(4096, 0xAB), std::vector<uint8_t>(5000, 0xAB)},  // repetitive
  };
  for (int level = 0; level <= 9; ++level) {
    DeltaOptions options;
    options.level = level;
    for (size_t c = 0; c < cases.size(); ++c) {
      const auto& [base, target] = cases[c];
      std::vector<uint8_t> delta = DeltaEncode(base, target, options);
      EXPECT_EQ(DeltaDecode(base, delta), target) << "level " << level << " case " << c;
      DeltaStats stats = InspectDelta(delta);
      EXPECT_EQ(stats.add_bytes + stats.copy_bytes, target.size())
          << "level " << level << " case " << c;
      EXPECT_EQ(DeltaTargetLength(delta), target.size());
    }
  }
}

TEST(DeltaFuzzTest, EveryTruncationThrows) {
  auto base = RandomBytes(2048, 20);
  auto target = MutatedCopy(base, 21);
  std::vector<uint8_t> delta = DeltaEncode(base, target);
  ASSERT_EQ(DeltaDecode(base, delta), target);
  for (size_t len = 0; len < delta.size(); ++len) {
    std::span<const uint8_t> cut(delta.data(), len);
    EXPECT_THROW(DeltaDecode(base, cut), DeltaError) << "prefix length " << len;
  }
}

// Flipping any single byte must never escape DeltaError into a crash or an
// out-of-bounds access. A flip in an ADD payload still decodes (to different
// bytes); structural flips must be caught by validation.
TEST(DeltaFuzzTest, ByteCorruptionNeverCrashes) {
  auto base = RandomBytes(2048, 22);
  auto target = MutatedCopy(base, 23);
  std::vector<uint8_t> delta = DeltaEncode(base, target);
  for (size_t pos = 0; pos < delta.size(); ++pos) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> corrupt = delta;
      corrupt[pos] ^= flip;
      try {
        std::vector<uint8_t> out = DeltaDecode(base, corrupt);
        // If it decoded at all, the header's target length was honoured.
        EXPECT_EQ(out.size(), DeltaTargetLength(corrupt));
      } catch (const DeltaError&) {
        // Expected for structural corruption.
      }
      try {
        static_cast<void>(InspectDelta(corrupt));
      } catch (const DeltaError&) {
      }
    }
  }
}

TEST(DeltaFuzzTest, BitFlipRoundTripSweep) {
  auto base = RandomBytes(1024, 24);
  auto target = MutatedCopy(base, 25);
  std::vector<uint8_t> delta = DeltaEncode(base, target);
  for (size_t bit = 0; bit < delta.size() * 8; bit += 7) {
    std::vector<uint8_t> corrupt = delta;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    try {
      static_cast<void>(DeltaDecode(base, corrupt));
    } catch (const DeltaError&) {
    }
  }
}

// Builds a syntactically valid header for `base_len`/`target_len` ready for
// hand-crafted op streams.
std::vector<uint8_t> Header(uint64_t base_len, uint64_t target_len) {
  std::vector<uint8_t> d = {'M', 'D', 'T', '1'};
  AppendVarint(d, base_len);
  AppendVarint(d, target_len);
  return d;
}

// Regression: ADD with a length near 2^64 used to pass the naive
// `pos + len > delta.size()` check by wrapping, then read far out of bounds.
TEST(DeltaFuzzTest, AddLengthOverflowRejected) {
  auto base = RandomBytes(64, 30);
  std::vector<uint8_t> d = Header(base.size(), 16);
  d.push_back(0x00);  // ADD
  AppendVarint(d, std::numeric_limits<uint64_t>::max());
  d.push_back(0xAA);  // one byte of "payload"
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
  EXPECT_THROW(static_cast<void>(InspectDelta(d)), DeltaError);
}

TEST(DeltaFuzzTest, AddLengthWrapToZeroRejected) {
  auto base = RandomBytes(64, 31);
  std::vector<uint8_t> d = Header(base.size(), 4);
  d.push_back(0x00);  // ADD
  // len chosen so that pos + len == 2^64 exactly (sum wraps to 0, which is
  // <= delta.size() under the naive check).
  size_t pos_after_len = d.size() + 10;  // 10-byte varint follows
  AppendVarint(d, 0 - static_cast<uint64_t>(pos_after_len));
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
  EXPECT_THROW(static_cast<void>(InspectDelta(d)), DeltaError);
}

// Regression: COPY with off + len wrapping past 2^64 used to slip through
// `off + len > base.size()` and copy from wild addresses.
TEST(DeltaFuzzTest, CopyRangeOverflowRejected) {
  auto base = RandomBytes(64, 32);
  std::vector<uint8_t> d = Header(base.size(), 8);
  d.push_back(0x01);  // COPY
  AppendVarint(d, 32);                                     // valid offset
  AppendVarint(d, std::numeric_limits<uint64_t>::max());   // len wraps off+len
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
}

TEST(DeltaFuzzTest, CopyOffsetPastBaseRejected) {
  auto base = RandomBytes(64, 33);
  std::vector<uint8_t> d = Header(base.size(), 8);
  d.push_back(0x01);  // COPY
  AppendVarint(d, std::numeric_limits<uint64_t>::max() - 3);  // off >> base
  AppendVarint(d, 8);
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
}

// Ops that individually fit but overshoot the declared target length must be
// rejected during validation — before any output is materialised — even if
// their total wraps 2^64.
TEST(DeltaFuzzTest, TargetLengthOverflowRejected) {
  auto base = RandomBytes(64, 34);
  std::vector<uint8_t> d = Header(base.size(), 8);
  for (int i = 0; i < 4; ++i) {
    d.push_back(0x01);  // COPY of 64 bytes each: 256 total vs target_len 8
    AppendVarint(d, 0);
    AppendVarint(d, 64);
  }
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
}

TEST(DeltaFuzzTest, DecodeIntoReusesBuffer) {
  auto base = RandomBytes(1024, 35);
  auto target = MutatedCopy(base, 36);
  std::vector<uint8_t> delta = DeltaEncode(base, target);
  std::vector<uint8_t> out(9999, 0xCD);  // stale oversized contents
  DeltaDecodeInto(base, delta, out);
  EXPECT_EQ(out, target);
  // A failed decode must not have resized the buffer (validation precedes
  // any write to `out`).
  std::vector<uint8_t> bad = Header(base.size(), 4);
  bad.push_back(0x7F);  // unknown opcode
  out.assign(3, 0xEE);
  EXPECT_THROW(DeltaDecodeInto(base, bad, out), DeltaError);
  EXPECT_EQ(out, (std::vector<uint8_t>(3, 0xEE)));
}

TEST(DeltaFuzzTest, EncodeIntoWithSharedScratchMatchesEncode) {
  DeltaScratch scratch;
  std::vector<uint8_t> buf;
  for (uint64_t seed = 40; seed < 48; ++seed) {
    auto base = RandomBytes(2048, seed);
    auto target = MutatedCopy(base, seed + 100);
    DeltaEncodeInto(base, target, {}, buf, &scratch);
    EXPECT_EQ(buf, DeltaEncode(base, target)) << "seed " << seed;
    EXPECT_EQ(DeltaDecode(base, buf), target) << "seed " << seed;
  }
}

}  // namespace
}  // namespace medes
