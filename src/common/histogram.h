// Value recorders used for experiment metrics: exact percentiles over
// recorded samples, and the power-of-two bucketing of the tree's one
// order-independent histogram (obs/metrics.h). Registry series
// (obs::Histogram) and per-instance stats (obs::StatHistogram) both bucket
// this way and read back as an obs::HistogramValue, the type transport
// latency stats carry.
#ifndef MEDES_COMMON_HISTOGRAM_H_
#define MEDES_COMMON_HISTOGRAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace medes {

// ---- Power-of-two bucketing ----------------------------------------------
//
// Bucket i counts values whose bit width is i, i.e. [2^(i-1), 2^i - 1];
// bucket 0 counts values <= 0. Bucket *counts* are order-independent sums, so
// concurrent recording in any interleaving yields identical contents — the
// property the stats and obs metrics determinism contracts are built on.

inline constexpr size_t kPow2HistogramBuckets = 22;

inline size_t Pow2BucketIndex(int64_t value) {
  if (value <= 0) {
    return 0;
  }
  const auto width = static_cast<size_t>(std::bit_width(static_cast<uint64_t>(value)));
  return width < kPow2HistogramBuckets ? width : kPow2HistogramBuckets - 1;
}

// Inclusive upper bound of a bucket; bucket 0 holds <= 0.
inline constexpr int64_t Pow2BucketUpperBound(size_t bucket) {
  if (bucket == 0) {
    return 0;
  }
  return static_cast<int64_t>((1ull << bucket) - 1);
}

// Records every sample; answers exact order statistics. Serves per-restore
// series; per-request latencies live only in RunMetrics::requests.
class SampleRecorder {
 public:
  void Record(double v) { samples_.push_back(v); }

  size_t Count() const { return samples_.size(); }
  bool Empty() const { return samples_.empty(); }

  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;

  // Exact p-quantile (p in [0, 1]) using the nearest-rank method.
  // Returns 0 for an empty recorder.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  // Percentile sorts lazily into this cache.
  mutable std::vector<double> sorted_;
  std::vector<double> samples_;
};

}  // namespace medes

#endif  // MEDES_COMMON_HISTOGRAM_H_
