#include "chunking/rabin.h"

#include <stdexcept>

#include "common/kernels/rolling_kernels.h"

namespace medes {

static_assert(kernels::kRollingBase == 0x100000001b3ull,
              "RollingHash and the selection kernels must agree on the polynomial base");

RollingHash::RollingHash(size_t window) : window_(window), pow_(1) {
  if (window == 0) {
    throw std::invalid_argument("RollingHash: window must be positive");
  }
  pow_table_.resize(window);
  for (size_t i = 1; i < window; ++i) {
    pow_ *= kBase;
  }
  // pow_table_[i] = kBase^(window-1-i): the weight of byte i inside a window.
  uint64_t p = 1;
  for (size_t i = window; i-- > 0;) {
    pow_table_[i] = p;
    p *= kBase;
  }
  for (size_t b = 0; b < 256; ++b) {
    out_table_[b] = static_cast<uint64_t>(b) * pow_;
  }
}

uint64_t RollingHash::Init(std::span<const uint8_t> data) const {
  if (data.size() < window_) {
    throw std::invalid_argument("RollingHash::Init: data shorter than the window");
  }
  // Four independent multiply-accumulate chains over the precomputed byte
  // weights; addition is commutative mod 2^64, so this matches the serial
  // Horner walk bit-for-bit.
  uint64_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  size_t i = 0;
  for (; i + 4 <= window_; i += 4) {
    acc0 += data[i] * pow_table_[i];
    acc1 += data[i + 1] * pow_table_[i + 1];
    acc2 += data[i + 2] * pow_table_[i + 2];
    acc3 += data[i + 3] * pow_table_[i + 3];
  }
  for (; i < window_; ++i) {
    acc0 += data[i] * pow_table_[i];
  }
  return acc0 + acc1 + acc2 + acc3;
}

void RollingHash::BulkHash(std::span<const uint8_t> data, uint64_t* out) const {
  if (data.size() < window_) {
    throw std::invalid_argument("RollingHash::BulkHash: data shorter than the window");
  }
  uint64_t h = Init(data);
  out[0] = h;
  for (size_t i = 1; i + window_ <= data.size(); ++i) {
    h = Roll(h, data[i - 1], data[i - 1 + window_]);
    out[i] = h;
  }
}

std::vector<uint64_t> AllWindowHashes(std::span<const uint8_t> data, size_t window) {
  std::vector<uint64_t> out;
  if (data.size() < window) {
    return out;
  }
  out.resize(data.size() - window + 1);
  RollingHash rh(window);
  rh.BulkHash(data, out.data());
  return out;
}

}  // namespace medes
