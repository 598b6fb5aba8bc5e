#include "delta/delta.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "common/kernels/memops.h"
#include "common/kernels/prefilter_kernels.h"

namespace medes {
namespace delta_internal {

void AppendVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

namespace {

// Out of line, so ReadVarint stays small enough to inline into the decoder.
[[noreturn]] [[gnu::noinline]] [[gnu::cold]] void ThrowVarintError(const char* what) {
  throw DeltaError(what);
}

}  // namespace

uint64_t ReadVarint(std::span<const uint8_t> data, size_t& pos) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (pos >= data.size() || shift > 63) {
      ThrowVarintError("varint out of range");
    }
    uint8_t byte = data[pos++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // The tenth byte holds bit 63 alone; a larger one would lose bits.
      if (shift == 63 && byte > 1) {
        ThrowVarintError("varint overflows 64 bits");
      }
      return value;
    }
    shift += 7;
  }
}

}  // namespace delta_internal

namespace {

using delta_internal::AppendVarint;
using delta_internal::ReadVarint;

constexpr uint8_t kMagic[4] = {'M', 'D', 'T', '1'};
constexpr uint8_t kOpAdd = 0x00;
constexpr uint8_t kOpCopy = 0x01;

// 64-bit hash of a base, the seed-table cache key: its length and
// kSampleWords 8-byte words at fixed, evenly spread offsets (the whole base
// when it is shorter than the sample). A hit is confirmed by a full compare,
// so the key only routes the lookup: bases that differ off the sampled words
// share a key and are told apart by that compare.
uint64_t SampleBase(std::span<const uint8_t> base) {
  constexpr size_t kSampleWords = 16;
  constexpr uint64_t kMul = 0x9E3779B97F4A7C15ull;
  if (base.size() < kSampleWords * 8) {
    return Fnv1a64(base, base.size());
  }
  const size_t step = (base.size() - 8) / (kSampleWords - 1);
  uint64_t h = base.size();
  for (size_t i = 0; i < kSampleWords; ++i) {
    uint64_t word;
    std::memcpy(&word, base.data() + i * step, 8);
    h = (h ^ word) * kMul;
  }
  return MixBits(h);
}

}  // namespace

// Seed index over one base: maps hashed seeds to base offsets in a
// power-of-two bucketed table with a small fixed depth (newest offsets win).
// Offsets are 16-bit, which is why DeltaEncode rejects bases of
// kDeltaBaseLimit bytes or more. The table keeps its own copy of the base:
// DeltaScratch::Find compares it to confirm a hit, and FindBest matches
// against it.
//
// Beside the table the index keeps an exact prefilter
// (common/kernels/prefilter_kernels.h): two bits per inserted offset in a
// 16 Ki-bit bitmap, both functions of the seed's first bytes. Offsets later
// pushed out of a full bucket keep their bits. A target position with
// either bit clear therefore has no indexed base seed with equal bytes,
// FindBest would return npos there, and the encoder may skip it without
// probing the table: patch bytes are unchanged.
struct DeltaScratch::SeedTable {
  struct Match {
    size_t base_off;
    size_t forward_len;  // ExtendForward(target, t_off, base_off)
  };
  static constexpr size_t npos = static_cast<size_t>(-1);

  // True when the table was built over bytes equal to `base` with this
  // geometry.
  bool Holds(std::span<const uint8_t> base, size_t seed_len, size_t stride, size_t depth) const {
    return stride_ == stride && seed_len_ == seed_len && depth_ == depth &&
           base_.size() == base.size() &&
           std::memcmp(base_.data(), base.data(), base.size()) == 0;
  }

  // Bucket count for a base of `base_size` bytes with this geometry.
  static size_t Buckets(size_t base_size, size_t seed_len, size_t stride, size_t depth) {
    const size_t positions = (base_size - seed_len) / stride + 1;
    const size_t want = positions * depth * 2;
    size_t cap = 64;
    while (cap < want) {
      cap <<= 1;
    }
    return cap;
  }

  // Bytes a table built fresh over such a base holds.
  static size_t BytesFor(size_t base_size, size_t seed_len, size_t stride, size_t depth) {
    return sizeof(SeedTable) + base_size +
           Buckets(base_size, seed_len, stride, depth) * depth * sizeof(uint16_t);
  }

  // Bytes this table holds (a rebuilt table keeps its storage's capacity).
  size_t Bytes() const {
    return sizeof(SeedTable) + base_.capacity() + slots_.capacity() * sizeof(uint16_t);
  }

  // Indexes `base`, which holds at least one seed.
  void Build(std::span<const uint8_t> base, size_t seed_len, size_t stride, size_t depth) {
    stride_ = 0;  // holds nothing until the build completes
    seed_len_ = seed_len;
    depth_ = depth;
    base_.assign(base.begin(), base.end());
    const size_t cap = Buckets(base.size(), seed_len, stride, depth);
    mask_ = cap - 1;
    slots_.assign(cap * depth_, kEmpty);
    filter_.Reset(seed_len >= 8);
    // One FNV-1a chain is a serial xor-multiply per seed byte. Hashing
    // kBatch seeds as interleaved chains lets their multiplies overlap;
    // each value is still MixBits(Fnv1a64(seed)), and the offsets go in in
    // ascending order, so slots and filter bits match one-at-a-time inserts.
    size_t i = 0;
    for (; i + (kBatch - 1) * stride + seed_len <= base.size(); i += kBatch * stride) {
      uint64_t h[kBatch];
      HashSeedBatch(base_.data() + i, stride, h);
      for (size_t j = 0; j < kBatch; ++j) {
        Add(h[j], i + j * stride);
      }
    }
    for (; i + seed_len <= base.size(); i += stride) {
      Add(HashSeed(base_.data() + i), i);
    }
    stride_ = stride;
  }

  const kernels::SeedPrefilter& Filter() const { return filter_; }

  // Finds the base offset whose seed matches the one at `t_off` (a whole
  // seed inside `target`), preferring the longest forward extension (first
  // candidate on ties). base_off is npos when no candidate matches.
  Match FindBest(std::span<const uint8_t> target, size_t t_off) const {
    Match best{npos, 0};
    uint64_t h = HashSeed(target.data() + t_off);
    size_t bucket = (h & mask_) * depth_;
    for (size_t d = 0; d < depth_; ++d) {
      uint16_t cand = slots_[bucket + d];
      if (cand == kEmpty) {
        break;
      }
      if (!kernels::MemEqual(base_.data() + cand, target.data() + t_off, seed_len_)) {
        continue;
      }
      size_t len = ExtendForward(target, t_off, cand);
      if (len > best.forward_len) {
        best = {cand, len};
      }
    }
    return best;
  }

 private:
  static constexpr uint16_t kEmpty = UINT16_MAX;
  static constexpr size_t kBatch = 8;

  size_t ExtendForward(std::span<const uint8_t> target, size_t t_off, size_t b_off) const {
    size_t max = std::min(base_.size() - b_off, target.size() - t_off);
    return kernels::MatchForward(base_.data() + b_off, target.data() + t_off, max);
  }

  uint64_t HashSeed(const uint8_t* p) const {
    return MixBits(Fnv1a64({p, seed_len_}));
  }

  // HashSeed of the kBatch seeds at p, p + stride, p + 2*stride, ...
  void HashSeedBatch(const uint8_t* p, size_t stride, uint64_t* out) const {
    uint64_t h[kBatch];
    for (size_t j = 0; j < kBatch; ++j) {
      h[j] = kFnvOffsetBasis;
    }
    for (size_t k = 0; k < seed_len_; ++k) {
      for (size_t j = 0; j < kBatch; ++j) {
        h[j] = (h[j] ^ p[j * stride + k]) * kFnvPrime;
      }
    }
    for (size_t j = 0; j < kBatch; ++j) {
      out[j] = MixBits(h[j]);
    }
  }

  // Indexes the base seed at `offset` under hash `h`.
  void Add(uint64_t h, size_t offset) {
    Insert(h, static_cast<uint16_t>(offset));
    filter_.Add(base_.data() + offset);
  }

  void Insert(uint64_t h, uint16_t offset) {
    size_t bucket = (h & mask_) * depth_;
    // Shift older entries down; newest first.
    for (size_t d = depth_ - 1; d > 0; --d) {
      slots_[bucket + d] = slots_[bucket + d - 1];
    }
    slots_[bucket] = offset;
  }

  std::vector<uint8_t> base_;
  size_t seed_len_ = 0;
  size_t stride_ = 0;
  size_t depth_ = 0;
  size_t mask_ = 0;
  std::vector<uint16_t> slots_;
  kernels::SeedPrefilter filter_;
};

DeltaScratch::DeltaScratch() = default;
DeltaScratch::~DeltaScratch() = default;

size_t DeltaScratch::BudgetBytes() {
  // 4 KiB bases at level 1 and the default 16-byte seed: stride 8, depth 2.
  return kCapacity * SeedTable::BytesFor(4096, 16, 8, 2);
}

const DeltaScratch::SeedTable& DeltaScratch::Find(std::span<const uint8_t> base, size_t seed_len,
                                                  size_t stride, size_t depth) {
  const uint64_t key = HashCombine(SampleBase(base), (seed_len << 32) ^ (stride << 16) ^ depth);
  ++clock_;
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (keys_[i] == key && tables_[i].Holds(base, seed_len, stride, depth)) {
      last_use_[i] = clock_;
      return tables_[i];
    }
  }
  const size_t budget = BudgetBytes();
  auto least_recent = [this] {
    return static_cast<size_t>(std::min_element(last_use_.begin(), last_use_.end()) -
                               last_use_.begin());
  };
  size_t slot;
  if (tables_.empty() ||
      bytes_ + SeedTable::BytesFor(base.size(), seed_len, stride, depth) <= budget) {
    slot = tables_.size();
    tables_.emplace_back();
    keys_.push_back(0);
    last_use_.push_back(0);
  } else {
    slot = least_recent();
    bytes_ -= tables_[slot].Bytes();
  }
  tables_[slot].Build(base, seed_len, stride, depth);
  bytes_ += tables_[slot].Bytes();
  keys_[slot] = key;
  last_use_[slot] = clock_;
  // The new table holds the latest clock, so it is never the one dropped.
  while (bytes_ > budget && tables_.size() > 1) {
    const size_t victim = least_recent();
    bytes_ -= tables_[victim].Bytes();
    const size_t last = tables_.size() - 1;
    if (victim != last) {
      std::swap(tables_[victim], tables_[last]);
      keys_[victim] = keys_[last];
      last_use_[victim] = last_use_[last];
      if (slot == last) {
        slot = victim;
      }
    }
    tables_.pop_back();
    keys_.pop_back();
    last_use_.pop_back();
  }
  return tables_[slot];
}

namespace {

void EmitAdd(std::vector<uint8_t>& out, std::span<const uint8_t> literal) {
  if (literal.empty()) {
    return;
  }
  out.push_back(kOpAdd);
  AppendVarint(out, literal.size());
  out.insert(out.end(), literal.begin(), literal.end());
}

void EmitCopy(std::vector<uint8_t>& out, size_t base_off, size_t len) {
  out.push_back(kOpCopy);
  AppendVarint(out, base_off);
  AppendVarint(out, len);
}

// Parses and bounds-checks the delta header. Returns the op-stream start.
size_t CheckHeader(std::span<const uint8_t> delta, uint64_t* base_len, uint64_t* target_len) {
  if (delta.size() < 4 || std::memcmp(delta.data(), kMagic, 4) != 0) {
    throw DeltaError("bad delta magic");
  }
  size_t pos = 4;
  *base_len = ReadVarint(delta, pos);
  *target_len = ReadVarint(delta, pos);
  return pos;
}

}  // namespace

std::vector<uint8_t> DeltaEncode(std::span<const uint8_t> base, std::span<const uint8_t> target,
                                 const DeltaOptions& options) {
  std::vector<uint8_t> out;
  DeltaEncodeInto(base, target, options, out);
  return out;
}

void DeltaEncodeInto(std::span<const uint8_t> base, std::span<const uint8_t> target,
                     const DeltaOptions& options, std::vector<uint8_t>& out,
                     DeltaScratch* scratch) {
  if (options.seed_length < 4) {
    throw DeltaError("seed_length must be >= 4");
  }
  if (base.size() >= kDeltaBaseLimit) {
    throw DeltaError("base must be shorter than 64 KiB");
  }
  out.assign(std::begin(kMagic), std::end(kMagic));
  out.reserve(target.size() / 4 + 32);
  AppendVarint(out, base.size());
  AppendVarint(out, target.size());

  int level = std::clamp(options.level, 0, 9);
  // Level 0, or no seed fits in one of the buffers: one ADD of the target.
  if (level == 0 || base.size() < options.seed_length ||
      target.size() < options.seed_length) {
    EmitAdd(out, target);
    return;
  }

  // Level controls index density (stride over base) and bucket depth.
  // Level 1: stride = seed/2, depth 2 (fast). Level 9: stride 1, depth 8.
  size_t stride = std::max<size_t>(1, options.seed_length / (1 + static_cast<size_t>(level)));
  size_t depth = 1 + static_cast<size_t>(level) / 2 + 1;
  std::optional<DeltaScratch> local;  // without a scratch every table is built
  DeltaScratch& sc = scratch != nullptr ? *scratch : local.emplace();
  const DeltaScratch::SeedTable& index = sc.Find(base, options.seed_length, stride, depth);

  size_t pending = 0;  // start of unmatched literal run
  const size_t last = target.size() - options.seed_length;  // last seed start
  size_t pos = 0;
  // The prefilter scan skips every position FindBest would miss at.
  while ((pos = kernels::NextCandidate(index.Filter(), target, pos, last)) <= last) {
    const auto [cand, fwd] = index.FindBest(target, pos);
    if (cand == DeltaScratch::SeedTable::npos) {
      ++pos;
      continue;
    }
    // Extend backwards into the pending literal run.
    size_t back = kernels::MatchBackward(base.data() + cand, target.data() + pos,
                                         std::min(pos - pending, cand));
    size_t match_off = cand - back;
    size_t match_pos = pos - back;
    size_t match_len = fwd + back;
    if (match_len < options.min_match) {
      ++pos;
      continue;
    }
    EmitAdd(out, target.subspan(pending, match_pos - pending));
    EmitCopy(out, match_off, match_len);
    pos = match_pos + match_len;
    pending = pos;
  }
  EmitAdd(out, target.subspan(pending));
}

std::vector<uint8_t> DeltaDecode(std::span<const uint8_t> base, std::span<const uint8_t> delta) {
  std::vector<uint8_t> out;
  DeltaDecodeInto(base, delta, out);
  return out;
}

void DeltaDecodeInto(std::span<const uint8_t> base, std::span<const uint8_t> delta,
                     std::vector<uint8_t>& out) {
  uint64_t base_len = 0;
  uint64_t target_len = 0;
  const size_t ops_start = CheckHeader(delta, &base_len, &target_len);
  if (base_len != base.size()) {
    throw DeltaError("delta was computed against a different base length");
  }

  // Pass 1: validate the whole op stream — opcodes, varints and bounds —
  // before the output buffer is touched or sized. All checks are written in
  // subtraction form: `pos + len` style sums can wrap for huge varint
  // lengths and let a corrupt delta through.
  uint64_t total = 0;
  size_t pos = ops_start;
  while (pos < delta.size()) {
    uint8_t op = delta[pos++];
    if (op == kOpAdd) {
      uint64_t len = ReadVarint(delta, pos);
      if (len > delta.size() - pos) {
        throw DeltaError("ADD overruns delta");
      }
      pos += len;
      if (len > target_len - total) {
        throw DeltaError("reconstructed length mismatch");
      }
      total += len;
    } else if (op == kOpCopy) {
      uint64_t off = ReadVarint(delta, pos);
      uint64_t len = ReadVarint(delta, pos);
      if (off > base.size() || len > base.size() - off) {
        throw DeltaError("COPY overruns base");
      }
      if (len > target_len - total) {
        throw DeltaError("reconstructed length mismatch");
      }
      total += len;
    } else {
      throw DeltaError("unknown delta opcode");
    }
  }
  if (total != target_len) {
    throw DeltaError("reconstructed length mismatch");
  }

  // Pass 2: single sized allocation, then straight memcpys. The stream was
  // validated above, so this pass re-reads varints without re-checking.
  out.resize(target_len);
  uint8_t* dst = out.data();
  pos = ops_start;
  while (pos < delta.size()) {
    uint8_t op = delta[pos++];
    if (op == kOpAdd) {
      uint64_t len = ReadVarint(delta, pos);
      kernels::CopyBytes(dst, delta.data() + pos, len);
      pos += len;
      dst += len;
    } else {
      uint64_t off = ReadVarint(delta, pos);
      uint64_t len = ReadVarint(delta, pos);
      kernels::CopyBytes(dst, base.data() + off, len);
      dst += len;
    }
  }
}

DeltaStats InspectDelta(std::span<const uint8_t> delta) {
  DeltaStats stats;
  stats.delta_length = delta.size();
  uint64_t base_len = 0;
  uint64_t target_len = 0;
  size_t pos = CheckHeader(delta, &base_len, &target_len);
  stats.base_length = base_len;
  stats.target_length = target_len;
  while (pos < delta.size()) {
    uint8_t op = delta[pos++];
    if (op == kOpAdd) {
      uint64_t len = ReadVarint(delta, pos);
      if (len > delta.size() - pos) {
        throw DeltaError("ADD overruns delta");
      }
      stats.add_bytes += len;
      ++stats.add_ops;
      pos += len;
    } else if (op == kOpCopy) {
      ReadVarint(delta, pos);
      uint64_t len = ReadVarint(delta, pos);
      stats.copy_bytes += len;
      ++stats.copy_ops;
    } else {
      throw DeltaError("unknown delta opcode");
    }
  }
  return stats;
}

size_t DeltaTargetLength(std::span<const uint8_t> delta) {
  uint64_t base_len = 0;
  uint64_t target_len = 0;
  CheckHeader(delta, &base_len, &target_len);
  return target_len;
}

}  // namespace medes
