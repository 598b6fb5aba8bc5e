// Runtime CPU-feature detection and kernel-tier dispatch.
//
// The per-page hot path (chunk SHA-1, sample selection, delta match
// extension) is implemented at more than one ISA level. Every dispatch slot
// starts at a resolver: the first call to any dispatched kernel binds all of
// them to the best variant the CPU supports (as ResetTierFromEnvironment
// would) and then forwards the call, so a fresh process runs at
// MaxSupportedTier() without anyone asking. Tests and benchmarks may rebind
// at any time with ForceTier.
//
//   kScalar    pure byte-at-a-time reference code. The other tiers are
//              verified bit-identical against it (tests/kernel_equivalence).
//   kPortable  word-at-a-time C (8-byte XOR + count-zeros match extension,
//              the four-chain selection walk). Works on any 64-bit target.
//   kAvx2      x86-64 with AVX2: 16-lane sample selection and, when SHA-NI
//              is absent, the 8-lane vertical chunk SHA-1 batch.
//
// SHA-NI is a capability, not a tier: the SHA-1 compression uses it at every
// tier above kScalar when cpuid reports `sha`.
//
// Forcing scalar for equivalence testing / debugging: MEDES_FORCE_SCALAR=1
// in the environment (read once at first use; tests can re-read it via
// ResetTierFromEnvironment).
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
  bool avx2 = false;
  bool sha_ni = false;
};

CpuFeatures DetectCpuFeatures();

enum class Tier : uint8_t {
  kScalar = 0,
  kPortable = 1,
  kAvx2 = 2,
};

const char* TierName(Tier tier);

// Highest tier this binary + CPU can run (ignores MEDES_FORCE_SCALAR).
Tier MaxSupportedTier();

// Currently bound tier. Binds from cpuid and the MEDES_FORCE_SCALAR
// environment variable if no kernel has been bound yet.
Tier ActiveTier();

// The bound tier, or nullopt while every dispatch slot still points at its
// resolver. Never binds (lets a test observe first-use binding).
std::optional<Tier> BoundTier();

// True when the SHA-NI compression is compiled in, supported by the CPU and
// not disabled by the active tier (SHA-NI engages above kScalar).
bool ShaNiActive();

// Rebinds every dispatched kernel to `tier`, clamped to MaxSupportedTier().
// Returns the tier actually bound. Intended for tests and benchmarks.
Tier ForceTier(Tier tier);

// Re-evaluates cpuid + MEDES_FORCE_SCALAR and rebinds all kernels, as if
// the process were starting fresh. Returns the bound tier.
Tier ResetTierFromEnvironment();

}  // namespace medes::kernels

#endif  // MEDES_COMMON_KERNELS_CPU_FEATURES_H_
