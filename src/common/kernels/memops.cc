#include "common/kernels/memops.h"

#include <atomic>
#include <bit>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define MEDES_KERNELS_X86 1
#endif

namespace medes::kernels {
namespace {

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// Index of the first differing byte inside a XOR of two 8-byte loads.
inline size_t FirstDiffByte(uint64_t diff) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<size_t>(std::countr_zero(diff)) / 8;
  } else {
    return static_cast<size_t>(std::countl_zero(diff)) / 8;
  }
}

// Index (from the *end* of the load) of the last differing byte.
inline size_t LastDiffByte(uint64_t diff) {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<size_t>(std::countl_zero(diff)) / 8;
  } else {
    return static_cast<size_t>(std::countr_zero(diff)) / 8;
  }
}

}  // namespace

size_t MatchForwardScalar(const uint8_t* a, const uint8_t* b, size_t max) {
  size_t len = 0;
  while (len < max && a[len] == b[len]) {
    ++len;
  }
  return len;
}

size_t MatchForwardSwar(const uint8_t* a, const uint8_t* b, size_t max) {
  size_t len = 0;
  while (len + 8 <= max) {
    uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      return len + FirstDiffByte(diff);
    }
    len += 8;
  }
  while (len < max && a[len] == b[len]) {
    ++len;
  }
  return len;
}

size_t MatchBackwardScalar(const uint8_t* a_end, const uint8_t* b_end, size_t max) {
  size_t len = 0;
  while (len < max && a_end[-static_cast<ptrdiff_t>(len) - 1] ==
                          b_end[-static_cast<ptrdiff_t>(len) - 1]) {
    ++len;
  }
  return len;
}

size_t MatchBackwardSwar(const uint8_t* a_end, const uint8_t* b_end, size_t max) {
  size_t len = 0;
  while (len + 8 <= max) {
    uint64_t diff = Load64(a_end - len - 8) ^ Load64(b_end - len - 8);
    if (diff != 0) {
      return len + LastDiffByte(diff);
    }
    len += 8;
  }
  while (len < max && a_end[-static_cast<ptrdiff_t>(len) - 1] ==
                          b_end[-static_cast<ptrdiff_t>(len) - 1]) {
    ++len;
  }
  return len;
}

bool MemEqualScalar(const uint8_t* a, const uint8_t* b, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    if (a[i] != b[i]) {
      return false;
    }
  }
  return true;
}

bool MemEqualSwar(const uint8_t* a, const uint8_t* b, size_t len) {
  size_t i = 0;
  uint64_t acc = 0;
  while (i + 8 <= len) {
    acc |= Load64(a + i) ^ Load64(b + i);
    i += 8;
  }
  if (i < len && len >= 8) {
    // One overlapping tail load instead of a byte loop.
    acc |= Load64(a + len - 8) ^ Load64(b + len - 8);
    return acc == 0;
  }
  for (; i < len; ++i) {
    acc |= static_cast<uint64_t>(a[i] ^ b[i]);
  }
  return acc == 0;
}

#if defined(MEDES_KERNELS_X86)

bool Avx2Compiled() { return true; }

__attribute__((target("avx2"))) size_t MatchForwardAvx2(const uint8_t* a, const uint8_t* b,
                                                        size_t max) {
  size_t len = 0;
  while (len + 32 <= max) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + len));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + len));
    uint32_t eq = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0xffffffffu) {
      return len + static_cast<size_t>(std::countr_zero(~eq));
    }
    len += 32;
  }
  return len + MatchForwardSwar(a + len, b + len, max - len);
}

__attribute__((target("avx2"))) size_t MatchBackwardAvx2(const uint8_t* a_end,
                                                         const uint8_t* b_end, size_t max) {
  size_t len = 0;
  while (len + 32 <= max) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a_end - len - 32));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_end - len - 32));
    uint32_t eq = static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (eq != 0xffffffffu) {
      return len + static_cast<size_t>(std::countl_zero(~eq));
    }
    len += 32;
  }
  return len + MatchBackwardSwar(a_end - len, b_end - len, max - len);
}

__attribute__((target("avx2"))) bool MemEqualAvx2(const uint8_t* a, const uint8_t* b,
                                                  size_t len) {
  if (len < 32) {
    return MemEqualSwar(a, b, len);
  }
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_or_si256(acc, _mm256_xor_si256(va, vb));
  }
  if (i < len) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + len - 32));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + len - 32));
    acc = _mm256_or_si256(acc, _mm256_xor_si256(va, vb));
  }
  return _mm256_testz_si256(acc, acc) != 0;
}

#else  // !MEDES_KERNELS_X86

bool Avx2Compiled() { return false; }

size_t MatchForwardAvx2(const uint8_t* a, const uint8_t* b, size_t max) {
  return MatchForwardSwar(a, b, max);
}

size_t MatchBackwardAvx2(const uint8_t* a_end, const uint8_t* b_end, size_t max) {
  return MatchBackwardSwar(a_end, b_end, max);
}

bool MemEqualAvx2(const uint8_t* a, const uint8_t* b, size_t len) {
  return MemEqualSwar(a, b, len);
}

#endif  // MEDES_KERNELS_X86

namespace {

using MatchFn = size_t (*)(const uint8_t*, const uint8_t*, size_t);
using EqualFn = bool (*)(const uint8_t*, const uint8_t*, size_t);

// Each slot starts at its resolver; the first call binds every kernel and
// forwards (cpu_features.h).
size_t MatchForwardResolve(const uint8_t* a, const uint8_t* b, size_t max);
size_t MatchBackwardResolve(const uint8_t* a_end, const uint8_t* b_end, size_t max);
bool MemEqualResolve(const uint8_t* a, const uint8_t* b, size_t len);

std::atomic<MatchFn> g_match_forward{&MatchForwardResolve};
std::atomic<MatchFn> g_match_backward{&MatchBackwardResolve};
std::atomic<EqualFn> g_mem_equal{&MemEqualResolve};

size_t MatchForwardResolve(const uint8_t* a, const uint8_t* b, size_t max) {
  (void)ActiveTier();
  return MatchForward(a, b, max);
}

size_t MatchBackwardResolve(const uint8_t* a_end, const uint8_t* b_end, size_t max) {
  (void)ActiveTier();
  return MatchBackward(a_end, b_end, max);
}

bool MemEqualResolve(const uint8_t* a, const uint8_t* b, size_t len) {
  (void)ActiveTier();
  return MemEqual(a, b, len);
}

}  // namespace

size_t MatchForward(const uint8_t* a, const uint8_t* b, size_t max) {
  return g_match_forward.load(std::memory_order_relaxed)(a, b, max);
}

size_t MatchBackward(const uint8_t* a_end, const uint8_t* b_end, size_t max) {
  return g_match_backward.load(std::memory_order_relaxed)(a_end, b_end, max);
}

bool MemEqual(const uint8_t* a, const uint8_t* b, size_t len) {
  return g_mem_equal.load(std::memory_order_relaxed)(a, b, len);
}

void BindMemopsKernels(Tier tier) {
  // SSE4.2 brings nothing beyond SWAR for these primitives (the win is the
  // 32-byte AVX2 stride), so kSse42 maps to the SWAR variants.
  if (tier >= Tier::kAvx2 && Avx2Compiled()) {
    g_match_forward.store(&MatchForwardAvx2, std::memory_order_relaxed);
    g_match_backward.store(&MatchBackwardAvx2, std::memory_order_relaxed);
    g_mem_equal.store(&MemEqualAvx2, std::memory_order_relaxed);
  } else if (tier >= Tier::kSwar) {
    g_match_forward.store(&MatchForwardSwar, std::memory_order_relaxed);
    g_match_backward.store(&MatchBackwardSwar, std::memory_order_relaxed);
    g_mem_equal.store(&MemEqualSwar, std::memory_order_relaxed);
  } else {
    g_match_forward.store(&MatchForwardScalar, std::memory_order_relaxed);
    g_match_backward.store(&MatchBackwardScalar, std::memory_order_relaxed);
    g_mem_equal.store(&MemEqualScalar, std::memory_order_relaxed);
  }
}

}  // namespace medes::kernels
