#include "delta/delta.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "common/hash.h"
#include "common/kernels/memops.h"

namespace medes {
namespace delta_internal {

void AppendVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

uint64_t ReadVarint(std::span<const uint8_t> data, size_t& pos) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (pos >= data.size() || shift > 63) {
      throw DeltaError("varint out of range");
    }
    uint8_t byte = data[pos++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
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

// Seed-index over the base buffer: maps hashed seeds to base offsets in a
// power-of-two bucketed table with a small fixed depth (newest offsets win).
// The backing store is borrowed from the caller (DeltaScratch) so repeated
// encodes reuse its capacity; offsets are 32-bit, which is why DeltaEncode
// rejects bases of 4 GiB or more.
//
// Beside the table the index keeps an exact prefilter: one bit per inserted
// offset in a small bitmap, keyed by a multiplicative hash of the seed's
// first bytes (FilterBit). Offsets later pushed out of a full bucket keep
// their bit. A target position whose prefix bit is clear therefore has no indexed
// base seed with equal bytes, FindBest would return npos there, and the
// encoder may skip it without probing the table: patch bytes are unchanged.
class SeedIndex {
 public:
  struct Match {
    size_t base_off;
    size_t forward_len;  // ExtendForward(target, t_off, base_off)
  };
  static constexpr size_t npos = static_cast<size_t>(-1);

  SeedIndex(std::span<const uint8_t> base, size_t seed_len, size_t stride, size_t depth,
            std::vector<uint32_t>& slots)
      : base_(base), seed_len_(seed_len), depth_(depth), slots_(slots) {
    if (base.size() < seed_len) {
      slots_.clear();
      return;
    }
    size_t positions = (base.size() - seed_len) / stride + 1;
    size_t want = positions * depth * 2;
    size_t cap = 64;
    while (cap < want) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    slots_.assign(cap * depth_, kEmpty);
    for (size_t i = 0; i + seed_len <= base.size(); i += stride) {
      Insert(HashSeed(base.data() + i), static_cast<uint32_t>(i));
      const size_t bit = FilterBit(base.data() + i);
      filter_[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }

  // False only when no indexed base seed can equal the seed at `p`.
  bool MayMatch(const uint8_t* p) const {
    const size_t bit = FilterBit(p);
    return ((filter_[bit / 64] >> (bit % 64)) & 1) != 0;
  }

  // Finds the base offset whose seed matches the one at `t_off`, preferring
  // the longest forward extension (first candidate on ties). base_off is
  // npos when no candidate matches.
  Match FindBest(std::span<const uint8_t> target, size_t t_off) const {
    Match best{npos, 0};
    if (slots_.empty() || t_off + seed_len_ > target.size()) {
      return best;
    }
    uint64_t h = HashSeed(target.data() + t_off);
    size_t bucket = (h & mask_) * depth_;
    for (size_t d = 0; d < depth_; ++d) {
      uint32_t cand = slots_[bucket + d];
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
  static constexpr uint32_t kEmpty = UINT32_MAX;
  static constexpr size_t kFilterBits = 8192;
  static constexpr int kFilterShift = 64 - 13;  // log2(kFilterBits)

  size_t ExtendForward(std::span<const uint8_t> target, size_t t_off, size_t b_off) const {
    size_t max = std::min(base_.size() - b_off, target.size() - t_off);
    return kernels::MatchForward(base_.data() + b_off, target.data() + t_off, max);
  }

  uint64_t HashSeed(const uint8_t* p) const {
    return MixBits(Fnv1a64({p, seed_len_}));
  }

  // Filter key: the seed's first 8 bytes, or its first 4 when the seed is
  // shorter than 8 (seed_length >= 4 is enforced) — one load that never
  // reads past the seed, so equal seeds always share a bit.
  size_t FilterBit(const uint8_t* p) const {
    uint64_t key;
    if (seed_len_ >= 8) {
      std::memcpy(&key, p, 8);
    } else {
      uint32_t k32;
      std::memcpy(&k32, p, 4);
      key = k32;
    }
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> kFilterShift);
  }

  void Insert(uint64_t h, uint32_t offset) {
    size_t bucket = (h & mask_) * depth_;
    // Shift older entries down; newest first.
    for (size_t d = depth_ - 1; d > 0; --d) {
      slots_[bucket + d] = slots_[bucket + d - 1];
    }
    slots_[bucket] = offset;
  }

  std::span<const uint8_t> base_;
  size_t seed_len_;
  size_t depth_;
  size_t mask_ = 0;
  std::vector<uint32_t>& slots_;
  std::array<uint64_t, kFilterBits / 64> filter_{};
};

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
  if (base.size() > UINT32_MAX) {
    throw DeltaError("base must be smaller than 4 GiB");
  }
  out.assign(std::begin(kMagic), std::end(kMagic));
  out.reserve(target.size() / 4 + 32);
  AppendVarint(out, base.size());
  AppendVarint(out, target.size());

  int level = std::clamp(options.level, 0, 9);
  if (level == 0 || base.size() < options.seed_length) {
    EmitAdd(out, target);
    return;
  }

  // Level controls index density (stride over base) and bucket depth.
  // Level 1: stride = seed/2, depth 2 (fast). Level 9: stride 1, depth 8.
  size_t stride = std::max<size_t>(1, options.seed_length / (1 + static_cast<size_t>(level)));
  size_t depth = 1 + static_cast<size_t>(level) / 2 + 1;
  DeltaScratch local_scratch;
  DeltaScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  SeedIndex index(base, options.seed_length, stride, depth, sc.seed_slots);

  size_t pending = 0;  // start of unmatched literal run
  size_t pos = 0;
  while (pos + options.seed_length <= target.size()) {
    if (!index.MayMatch(target.data() + pos)) {
      ++pos;
      continue;
    }
    const auto [cand, fwd] = index.FindBest(target, pos);
    if (cand == SeedIndex::npos) {
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
