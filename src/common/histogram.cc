#include "common/histogram.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace medes {

double SampleRecorder::Sum() const {
  return std::accumulate(samples_.begin(), samples_.end(), 0.0);
}

double SampleRecorder::Mean() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return Sum() / static_cast<double>(samples_.size());
}

double SampleRecorder::Min() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleRecorder::Max() const {
  if (samples_.empty()) {
    return 0.0;
  }
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleRecorder::Percentile(double p) const {
  if (samples_.empty()) {
    return 0.0;
  }
  if (sorted_.size() != samples_.size()) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  p = std::clamp(p, 0.0, 1.0);
  // Nearest-rank: smallest value with cumulative frequency >= p.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted_.size())));
  if (rank > 0) {
    --rank;
  }
  return sorted_[std::min(rank, sorted_.size() - 1)];
}

}  // namespace medes
