// Sample-selection kernels feeding the fingerprint scan.
//
// The fingerprint pass selects every W-byte window of a page whose rolling
// hash h (the mod-2^64 recurrence h' = (h - out*B^(W-1))*B + in, see
// chunking/rabin.h) satisfies (h & mask) == pattern. Only that test is ever
// asked of h, and for mask <= 0xffff it reads nothing above bit 15.
// Reduction mod 2^16 is a ring homomorphism, so the low 16 bits of the
// 64-bit recurrence equal the same recurrence run in uint16_t arithmetic —
// the kernels step 16-bit hashes and decide the test exactly.
//
// Two variants, bit-identical in output; SelectWindows runs AVX2 when the
// CPU has it (cpu_features.h):
//   - portable: four contiguous position blocks stepped as independent
//     scalar dependency chains;
//   - AVX2: sixteen contiguous blocks, one per 16-bit lane, each split
//     into two independent vpmullw chains stepped over a lane-major copy
//     of the data in pair rows (bytes 2q and 2q + 1 of every lane in one
//     32-byte row). A step pair drops both bytes of a pair row, so it
//     takes even windows up to 256 bytes and leaves odd ones to the
//     portable walk.
#ifndef MEDES_COMMON_KERNELS_ROLLING_KERNELS_H_
#define MEDES_COMMON_KERNELS_ROLLING_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace medes::kernels {

// Polynomial base shared with RollingHash (chunking/rabin.h keeps the same
// constant; rabin_test locks the two together).
inline constexpr uint64_t kRollingBase = 0x100000001b3ull;

// Most window positions one SelectWindows call may scan, so positions fit
// in uint16_t and every scratch buffer fits on the stack. Longer inputs are
// scanned in segments by the caller.
inline constexpr size_t kSelectMaxPositions = 4096;

// What a selected window looks like: `window` bytes whose 16-bit rolling
// hash h has (h & mask) == pattern. Build with MakeSampleRule.
struct SampleRule {
  size_t window = 0;
  uint16_t pow_w1 = 0;  // kRollingBase^(window-1) mod 2^16
  uint16_t mask = 0;
  uint16_t pattern = 0;
};

SampleRule MakeSampleRule(size_t window, uint16_t mask, uint16_t pattern);

// Writes, in ascending order, every position p in [0, n - window] whose
// window data[p, p + window) matches `rule`, and returns how many it wrote.
// Requires n >= rule.window and n - rule.window + 1 <= kSelectMaxPositions;
// `out` must hold n - rule.window + 1 entries (its tail is scratch).
size_t SelectWindows(const SampleRule& rule, const uint8_t* data, size_t n, uint16_t* out);
size_t SelectWindowsPortable(const SampleRule& rule, const uint8_t* data, size_t n,
                             uint16_t* out);

// The AVX2 variant exists only when the compiler can target x86 (else it
// forwards to the portable one); call it only when DetectCpuFeatures().avx2
// is true. It forwards to the portable walk itself for an odd window, a
// window over 256 bytes or fewer than 256 positions.
size_t SelectWindowsAvx2(const SampleRule& rule, const uint8_t* data, size_t n, uint16_t* out);

}  // namespace medes::kernels

#endif  // MEDES_COMMON_KERNELS_ROLLING_KERNELS_H_
