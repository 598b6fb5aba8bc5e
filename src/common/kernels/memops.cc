#include "common/kernels/memops.h"

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

size_t MatchForward(const uint8_t* a, const uint8_t* b, size_t max) {
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

size_t MatchBackward(const uint8_t* a_end, const uint8_t* b_end, size_t max) {
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

bool MemEqual(const uint8_t* a, const uint8_t* b, size_t len) {
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

}  // namespace medes::kernels
