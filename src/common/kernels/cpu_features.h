// Runtime CPU-feature detection.
//
// The per-page hot path (chunk SHA-1, sample selection, the delta
// encoder's prefilter scan and match extension) is implemented at more than
// one ISA level. Each kernel entry point is a fixed function of
// DetectCpuFeatures(), chosen once per process and never rebound:
//
//   Sha1Compress      SHA-NI under cpuid `sha`, else the scalar compress.
//   Sha1Chunk64Batch  pairs of chunks interleaved in one SHA-NI stream
//                     under cpuid `sha`, else 8 chunks in AVX2 lanes under
//                     `avx2`, else one Sha1Chunk64 per chunk.
//   SelectWindows     16 AVX2 lanes of two chains each over pair rows
//                     under cpuid `avx2` (even windows up to 256 bytes),
//                     else, and for odd windows, the portable four-chain
//                     walk.
//   NextCandidate     8 positions per AVX2 step under cpuid `avx2`, else
//                     one position at a time.
//   MatchForward, MatchBackward, MemEqual
//                     8-byte XOR + count-zeros (SWAR) on every target.
//
// Every named variant stays callable, and the scalar references
// (Sha1CompressScalar, MatchForwardScalar, ...) are the oracles every
// variant is checked against. All variants produce bit-identical output
// (same digests, same selected windows, same match lengths, same delta
// bytes), so the variant a host runs never changes observable behaviour
// (tests/kernel_equivalence_test.cc).
#ifndef MEDES_COMMON_KERNELS_CPU_FEATURES_H_
#define MEDES_COMMON_KERNELS_CPU_FEATURES_H_

#include <cstdint>

namespace medes::kernels {

// What the kernels may use. All false on non-x86 targets, where no x86
// variant is compiled in.
struct CpuFeatures {
  bool avx2 = false;
  bool sha_ni = false;
};

// Decodes raw cpuid/xgetbv words: CPUID.1:ECX, CPUID.(7,0):EBX and XCR0.
// avx2 needs the leaf-7 AVX2 bit, OSXSAVE, and the OS saving both XMM and
// YMM state (XCR0 bits 1-2); sha_ni needs the leaf-7 SHA bit and SSE4.1.
CpuFeatures DecodeCpuFeatures(uint32_t leaf1_ecx, uint32_t leaf7_ebx, uint64_t xcr0);

// This CPU's features, probed once per process.
CpuFeatures DetectCpuFeatures();

enum class Tier : uint8_t {
  kPortable,
  kAvx2,
};

const char* TierName(Tier tier);

// The tier the kernels run at: kAvx2 when DetectCpuFeatures().avx2.
Tier MaxSupportedTier();

}  // namespace medes::kernels

#endif  // MEDES_COMMON_KERNELS_CPU_FEATURES_H_
