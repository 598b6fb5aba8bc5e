// Delta codec robustness corpus: round-trips at every level over adversarial
// content shapes, exhaustive truncation, byte-level corruption, and crafted
// op streams that overflow naive `pos + len` bounds arithmetic. Decoding a
// malformed delta must throw DeltaError — never crash, hang, or read out of
// bounds (the CI sanitizer job runs this binary under ASan/UBSan). The
// encoder is also pinned byte for byte against an in-test reference model.
#include "delta/delta.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
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
  DeltaScratch scratch;  // shared across calls, so stale table contents are exercised
  std::vector<uint8_t> got;
  for (size_t seed_length : {4, 5, 7, 8, 9, 16, 32}) {
    for (int level = 0; level <= 9; ++level) {
      DeltaOptions options;
      options.level = level;
      options.seed_length = seed_length;
      for (size_t c = 0; c < cases.size(); ++c) {
        const auto& [base, target] = cases[c];
        DeltaEncodeInto(base, target, options, got, &scratch);
        ASSERT_EQ(got, ReferenceEncode(base, target, options))
            << "seed_length " << seed_length << " level " << level << " case " << c;
        ASSERT_EQ(DeltaDecode(base, got), target);
      }
    }
  }
}

// Seed-table offsets are 32-bit. The mapping is reserved, never touched.
TEST(DeltaFuzzTest, EncodeRejectsBaseOf4GiB) {
  const size_t size = size_t{1} << 32;
  void* mem = mmap(nullptr, size, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) {
    GTEST_SKIP() << "cannot reserve 4 GiB of address space";
  }
  const std::span<const uint8_t> base(static_cast<const uint8_t*>(mem), size);
  const std::vector<uint8_t> target(64, 1);
  EXPECT_THROW((void)DeltaEncode(base, target), DeltaError);
  EXPECT_NO_THROW(
      (void)DeltaEncode(base.first(size - 1), std::span<const uint8_t>{}, {.level = 0}));
  munmap(mem, size);
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
        InspectDelta(corrupt);
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
      DeltaDecode(base, corrupt);
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
  EXPECT_THROW(InspectDelta(d), DeltaError);
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
  EXPECT_THROW(InspectDelta(d), DeltaError);
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
