#include "common/kernels/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define MEDES_KERNELS_X86 1
#endif

namespace medes::kernels {
namespace {

constexpr uint32_t kLeaf1Sse41 = 1u << 19;
constexpr uint32_t kLeaf1Osxsave = 1u << 27;
constexpr uint32_t kLeaf7Avx2 = 1u << 5;
constexpr uint32_t kLeaf7Sha = 1u << 29;
constexpr uint64_t kXcr0XmmYmm = 0x6;

}  // namespace

CpuFeatures DecodeCpuFeatures(uint32_t leaf1_ecx, uint32_t leaf7_ebx, uint64_t xcr0) {
  CpuFeatures f;
  f.avx2 = (leaf7_ebx & kLeaf7Avx2) != 0 && (leaf1_ecx & kLeaf1Osxsave) != 0 &&
           (xcr0 & kXcr0XmmYmm) == kXcr0XmmYmm;
  f.sha_ni = (leaf7_ebx & kLeaf7Sha) != 0 && (leaf1_ecx & kLeaf1Sse41) != 0;
  return f;
}

CpuFeatures DetectCpuFeatures() {
  static const CpuFeatures features = [] {
    uint32_t leaf1_ecx = 0;
    uint32_t leaf7_ebx = 0;
    uint64_t xcr0 = 0;
#if defined(MEDES_KERNELS_X86)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
      leaf1_ecx = ecx;
    }
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
      leaf7_ebx = ebx;
    }
    // xgetbv itself faults unless the OS has set OSXSAVE.
    if ((leaf1_ecx & kLeaf1Osxsave) != 0) {
      uint32_t lo = 0, hi = 0;
      __asm__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
      xcr0 = (uint64_t{hi} << 32) | lo;
    }
#endif
    return DecodeCpuFeatures(leaf1_ecx, leaf7_ebx, xcr0);
  }();
  return features;
}

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kPortable:
      return "portable";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Tier MaxSupportedTier() { return DetectCpuFeatures().avx2 ? Tier::kAvx2 : Tier::kPortable; }

}  // namespace medes::kernels
