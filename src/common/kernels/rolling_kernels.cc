#include "common/kernels/rolling_kernels.h"

#include <atomic>

namespace medes::kernels {
namespace {

constexpr uint64_t kB = kRollingBase;

inline uint64_t InitWindow(const uint8_t* data, size_t window) {
  uint64_t h = 0;
  for (size_t i = 0; i < window; ++i) {
    h = h * kB + data[i];
  }
  return h;
}

inline uint64_t RollOne(uint64_t h, uint8_t outgoing, uint8_t incoming, uint64_t pow_w1) {
  return (h - outgoing * pow_w1) * kB + incoming;
}

}  // namespace

void RollingBulkScalar(const uint8_t* data, size_t n, size_t window, uint64_t pow_w1,
                       uint64_t* out) {
  const size_t count = n - window + 1;
  uint64_t h = InitWindow(data, window);
  out[0] = h;
  for (size_t i = 1; i < count; ++i) {
    h = RollOne(h, data[i - 1], data[i - 1 + window], pow_w1);
    out[i] = h;
  }
}

void RollingBulkUnrolled(const uint8_t* data, size_t n, size_t window, uint64_t pow_w1,
                         uint64_t* out) {
  const size_t count = n - window + 1;
  // The serial walk's bottleneck is its dependency chain: two chained 64-bit
  // multiplies per position. Splitting the positions into four *contiguous*
  // blocks gives four independent chains the CPU can overlap, at the cost of
  // three extra window initialisations — negligible against a page-sized
  // scan. Every hash is still computed by the exact same mod-2^64
  // recurrence, so the output is bit-identical to the scalar walk.
  constexpr size_t kLanes = 4;
  if (count < kLanes * 2 || count < window * kLanes / 2) {
    RollingBulkScalar(data, n, window, pow_w1, out);
    return;
  }
  const size_t block = count / kLanes;
  size_t start[kLanes];
  size_t end[kLanes];
  uint64_t h[kLanes];
  for (size_t l = 0; l < kLanes; ++l) {
    start[l] = l * block;
    end[l] = l + 1 == kLanes ? count : (l + 1) * block;
    h[l] = InitWindow(data + start[l], window);
    out[start[l]] = h[l];
  }
  // Interleaved steady state: advance all four chains one position per
  // iteration until the shortest block is done (blocks differ by at most
  // kLanes - 1 positions, handled by the tail loops below).
  size_t steps = block - 1;
  size_t i = 1;
  for (; i <= steps; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      const size_t p = start[l] + i;
      h[l] = RollOne(h[l], data[p - 1], data[p - 1 + window], pow_w1);
      out[p] = h[l];
    }
  }
  // Last block may be longer when count % kLanes != 0.
  for (size_t p = start[kLanes - 1] + i; p < end[kLanes - 1]; ++p) {
    h[kLanes - 1] = RollOne(h[kLanes - 1], data[p - 1], data[p - 1 + window], pow_w1);
    out[p] = h[kLanes - 1];
  }
}

namespace {

using BulkFn = void (*)(const uint8_t*, size_t, size_t, uint64_t, uint64_t*);

// The slot starts at its resolver; the first call binds every kernel and
// forwards (cpu_features.h).
void RollingBulkResolve(const uint8_t* data, size_t n, size_t window, uint64_t pow_w1,
                        uint64_t* out);

std::atomic<BulkFn> g_bulk{&RollingBulkResolve};

void RollingBulkResolve(const uint8_t* data, size_t n, size_t window, uint64_t pow_w1,
                        uint64_t* out) {
  (void)ActiveTier();
  RollingBulk(data, n, window, pow_w1, out);
}

}  // namespace

void RollingBulk(const uint8_t* data, size_t n, size_t window, uint64_t pow_w1, uint64_t* out) {
  g_bulk.load(std::memory_order_relaxed)(data, n, window, pow_w1, out);
}

void BindRollingKernels(Tier tier) {
  // The unrolled walk is portable C; every non-scalar tier uses it. A true
  // AVX2 lane version loses to scalar here — 64-bit multiplies must be
  // emulated with 32x32 partial products on AVX2.
  if (tier >= Tier::kSwar) {
    g_bulk.store(&RollingBulkUnrolled, std::memory_order_relaxed);
  } else {
    g_bulk.store(&RollingBulkScalar, std::memory_order_relaxed);
  }
}

}  // namespace medes::kernels
