// Runtime CPU-feature detection and kernel-tier dispatch.
//
// The per-page hot path (chunk SHA-1, sample selection, delta match
// extension, patch decode) is implemented several times at increasing
// ISA levels. Every dispatch slot starts at a resolver: the first call to
// any dispatched kernel binds all of them to the best variant the CPU
// supports (as ResetTierFromEnvironment would) and then forwards the call,
// so a fresh process runs at MaxSupportedTier() without anyone asking.
// Tests and benchmarks may rebind at any time with ForceTier.
//
//   kScalar  pure byte-at-a-time reference code. The other tiers are
//            verified bit-identical against it (tests/kernel_equivalence).
//   kSwar    portable word-at-a-time C (8-byte XOR + count-zeros tricks,
//            interleaved multi-buffer hashing). Works on any 64-bit target.
//   kSse42   x86-64 with SSE4.2: 16-byte vector compares; SHA-NI chunk
//            hashing when the `sha` cpuid bit is also set.
//   kAvx2    x86-64 with AVX2: 32-byte compares, 8-way vertical
//            multi-buffer SHA-1.
//
// Forcing scalar for equivalence testing / debugging:
//   - environment: MEDES_FORCE_SCALAR=1 (read once at first use; tests can
//     re-read via ResetTierFromEnvironment);
//   - build knob: cmake -DMEDES_FORCE_SCALAR=ON bakes the scalar tier in.
//
// Every variant of every kernel is required to produce bit-identical
// output (same digests, same selected windows, same match lengths, same
// delta bytes) — tier selection may never change observable behaviour.
#ifndef MEDES_COMMON_KERNELS_CPU_FEATURES_H_
#define MEDES_COMMON_KERNELS_CPU_FEATURES_H_

#include <cstdint>
#include <optional>

namespace medes::kernels {

// Raw cpuid probe results (all false on non-x86 targets).
struct CpuFeatures {
  bool sse42 = false;
  bool avx2 = false;
  bool sha_ni = false;
  bool bmi2 = false;
};

CpuFeatures DetectCpuFeatures();

enum class Tier : uint8_t {
  kScalar = 0,
  kSwar = 1,
  kSse42 = 2,
  kAvx2 = 3,
};

const char* TierName(Tier tier);

// Highest tier this binary + CPU can run (ignores MEDES_FORCE_SCALAR).
Tier MaxSupportedTier();

// Currently bound tier. Binds from cpuid and the MEDES_FORCE_SCALAR
// environment/build knob if no kernel has been bound yet.
Tier ActiveTier();

// The bound tier, or nullopt while every dispatch slot still points at its
// resolver. Never binds (lets a test observe first-use binding).
std::optional<Tier> BoundTier();

// True when the SHA-NI chunk-hash variant is compiled in, supported by the
// CPU and not disabled by the active tier (SHA-NI engages at >= kSse42).
bool ShaNiActive();

// Rebinds every dispatched kernel to `tier`, clamped to MaxSupportedTier().
// Returns the tier actually bound. Intended for tests and benchmarks.
Tier ForceTier(Tier tier);

// Re-evaluates cpuid + MEDES_FORCE_SCALAR and rebinds all kernels, as if
// the process were starting fresh. Returns the bound tier.
Tier ResetTierFromEnvironment();

}  // namespace medes::kernels

#endif  // MEDES_COMMON_KERNELS_CPU_FEATURES_H_
