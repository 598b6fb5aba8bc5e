#include "common/kernels/memops.h"

#include <atomic>
#include <bit>

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
  if (tier != Tier::kScalar) {
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
