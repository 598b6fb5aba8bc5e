// The delta encoder's seed prefilter and its target scan.
//
// Beside each base's seed table the encoder (delta/delta.cc) keeps a
// 16 Ki-bit filter: every indexed base seed sets two bits, both functions
// of the seed's bytes alone. A target position whose seed has either bit
// clear has no indexed base seed with equal bytes, so the encoder skips it
// without probing the table. Finding the next position with both bits set
// is the encoder's inner loop, and NextCandidate runs that whole loop.
//
// Key: w0 and w1 are the seed's first two little-endian 32-bit words, with
// w1 = 0 for a seed shorter than 8 bytes, so the key never reads past the
// seed. The bit indices are the top 14 bits of the two 32-bit sums
// w0*C1 + w1*C2 and w0*C3 + w1*C4 (mod 2^32).
//
// Two variants, identical in output; NextCandidate runs AVX2 when the CPU
// has it (cpu_features.h):
//   - portable: one position at a time;
//   - AVX2: 8 consecutive positions per step from one 16-byte load — two
//     vpshufb spread it into each position's w0 and w1, vpmulld forms the
//     sums, and two vpgatherdd fetch the filter words holding both bits.
#ifndef MEDES_COMMON_KERNELS_PREFILTER_KERNELS_H_
#define MEDES_COMMON_KERNELS_PREFILTER_KERNELS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace medes::kernels {

inline constexpr int kPrefilterIndexBits = 14;
inline constexpr size_t kPrefilterBits = size_t{1} << kPrefilterIndexBits;
// C1..C4: odd multipliers, so each sum's top bits depend on every key bit.
inline constexpr uint32_t kPrefilterMul[4] = {0x9E3779B1u, 0x85EBCA77u, 0xC2B2AE3Du,
                                              0x27D4EB2Fu};

class SeedPrefilter {
 public:
  // Empties the filter. `wide` keys read the seed's second word: set it
  // exactly when seeds are 8 bytes or longer.
  void Reset(bool wide) {
    words_.fill(0);
    wide_ = wide;
  }

  void Add(const uint8_t* seed) {
    const Bits b = BitsOf(seed);
    words_[b.a / 32] |= uint32_t{1} << (b.a % 32);
    words_[b.b / 32] |= uint32_t{1} << (b.b % 32);
  }

  // False only when no added seed can equal the seed at `seed`.
  bool MayMatch(const uint8_t* seed) const {
    const Bits b = BitsOf(seed);
    return ((words_[b.a / 32] >> (b.a % 32)) & (words_[b.b / 32] >> (b.b % 32)) & 1) != 0;
  }

  bool wide() const { return wide_; }
  const uint32_t* words() const { return words_.data(); }

 private:
  struct Bits {
    uint32_t a;
    uint32_t b;
  };

  Bits BitsOf(const uint8_t* seed) const {
    uint32_t w0;
    uint32_t w1 = 0;
    std::memcpy(&w0, seed, 4);
    if (wide_) {
      std::memcpy(&w1, seed + 4, 4);
    }
    constexpr int kShift = 32 - kPrefilterIndexBits;
    return {(w0 * kPrefilterMul[0] + w1 * kPrefilterMul[1]) >> kShift,
            (w0 * kPrefilterMul[2] + w1 * kPrefilterMul[3]) >> kShift};
  }

  std::array<uint32_t, kPrefilterBits / 32> words_{};
  bool wide_ = false;
};

// The first position p in [pos, last] with filter.MayMatch(&data[p]), else
// max(pos, last + 1). Requires last + (filter.wide() ? 8 : 4) <= data.size():
// every scanned key lies inside `data`.
size_t NextCandidate(const SeedPrefilter& filter, std::span<const uint8_t> data, size_t pos,
                     size_t last);
size_t NextCandidatePortable(const SeedPrefilter& filter, std::span<const uint8_t> data,
                             size_t pos, size_t last);

// The AVX2 variant exists only when the compiler can target x86 (else it
// forwards to the portable one); call it only when DetectCpuFeatures().avx2
// is true. It loads 16 bytes per step, so positions within 15 bytes of the
// end of `data` go through the portable loop.
size_t NextCandidateAvx2(const SeedPrefilter& filter, std::span<const uint8_t> data, size_t pos,
                         size_t last);

}  // namespace medes::kernels

#endif  // MEDES_COMMON_KERNELS_PREFILTER_KERNELS_H_
