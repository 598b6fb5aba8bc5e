#include "common/kernels/cpu_features.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/kernels/memops.h"
#include "common/kernels/rolling_kernels.h"
#include "common/kernels/sha1_kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define MEDES_KERNELS_X86 1
#endif

namespace medes::kernels {
namespace {

// Tier is a process-wide mode switch flipped only by tests/benchmarks (and
// once by the first dispatched call); relaxed slot loads are enough because
// every variant is bit-identical — a racing reader at worst runs one call at
// the old tier. g_tier_bound is published with release after every slot is
// stored, so a resolver that observes it reloads a bound slot, never itself.
std::atomic<Tier> g_tier{Tier::kScalar};
std::atomic<bool> g_tier_bound{false};

bool EnvForcesScalar() {
  const char* v = std::getenv("MEDES_FORCE_SCALAR");
  if (v == nullptr || v[0] == '\0') {
    return false;
  }
  return std::strcmp(v, "0") != 0 && std::strcmp(v, "off") != 0 && std::strcmp(v, "false") != 0;
}

Tier Bind(Tier tier) {
  if (tier > MaxSupportedTier()) {
    tier = MaxSupportedTier();
  }
  BindSha1Kernels(tier);
  BindRollingKernels(tier);
  BindMemopsKernels(tier);
  g_tier.store(tier, std::memory_order_relaxed);
  g_tier_bound.store(true, std::memory_order_release);
  return tier;
}

}  // namespace

CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
#if defined(MEDES_KERNELS_X86)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.avx2 = (ebx & bit_AVX2) != 0;
    f.sha_ni = (ebx & bit_SHA) != 0;
  }
#endif
  return f;
}

const char* TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kPortable:
      return "portable";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

Tier MaxSupportedTier() {
#if defined(MEDES_KERNELS_X86)
  static const Tier max = DetectCpuFeatures().avx2 ? Tier::kAvx2 : Tier::kPortable;
  return max;
#else
  return Tier::kPortable;
#endif
}

Tier ActiveTier() {
  if (!g_tier_bound.load(std::memory_order_acquire)) {
    return ResetTierFromEnvironment();
  }
  return g_tier.load(std::memory_order_relaxed);
}

std::optional<Tier> BoundTier() {
  if (!g_tier_bound.load(std::memory_order_acquire)) {
    return std::nullopt;
  }
  return g_tier.load(std::memory_order_relaxed);
}

bool ShaNiActive() {
  return Sha1ShaNiCompiled() && DetectCpuFeatures().sha_ni && ActiveTier() != Tier::kScalar;
}

Tier ForceTier(Tier tier) { return Bind(tier); }

Tier ResetTierFromEnvironment() {
  return Bind(EnvForcesScalar() ? Tier::kScalar : MaxSupportedTier());
}

}  // namespace medes::kernels
