#include "policy/keep_alive.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

namespace medes {

AdaptiveKeepAlive::AdaptiveKeepAlive(AdaptiveKeepAliveOptions options) : options_(options) {}

void AdaptiveKeepAlive::RecordArrival(SimTime now) {
  if (last_arrival_.value() >= 0 && now > last_arrival_) {
    iats_.push_back(now - last_arrival_);
    if (iats_.size() > options_.max_samples) {
      iats_.pop_front();
    }
  }
  last_arrival_ = now;
}

SimDuration AdaptiveKeepAlive::KeepAlive() const {
  if (iats_.size() < options_.min_samples) {
    return options_.default_window;
  }
  // The rank-th smallest IAT: nth_element selects the element a full sort
  // would put there, in linear time.
  std::vector<SimDuration> iats(iats_.begin(), iats_.end());
  size_t rank = static_cast<size_t>(
      std::ceil(options_.coverage_percentile * static_cast<double>(iats.size())));
  if (rank > 0) {
    --rank;
  }
  const auto nth = iats.begin() + static_cast<std::ptrdiff_t>(std::min(rank, iats.size() - 1));
  std::nth_element(iats.begin(), nth, iats.end());
  const SimDuration window{static_cast<int64_t>(static_cast<double>(nth->value()) * options_.margin)};
  return std::clamp(window, options_.min_window, options_.max_window);
}

RateTracker::RateTracker(SimDuration bucket_width, size_t num_buckets)
    : bucket_width_(bucket_width), num_buckets_(num_buckets) {}

void RateTracker::RecordArrival(SimTime now) {
  Advance(now);
  const int64_t bucket = now.value() / bucket_width_.value();
  if (!buckets_.empty() && buckets_.back().first == bucket) {
    ++buckets_.back().second;
  } else {
    buckets_.emplace_back(bucket, 1);
  }
}

void RateTracker::Advance(SimTime now) const {
  const int64_t horizon = now.value() / bucket_width_.value() - static_cast<int64_t>(num_buckets_);
  while (!buckets_.empty() && buckets_.front().first < horizon) {
    buckets_.pop_front();
  }
}

double RateTracker::MaxRate(SimTime now) const {
  Advance(now);
  uint64_t max_count = 0;
  for (const auto& [bucket, count] : buckets_) {
    max_count = std::max(max_count, count);
  }
  return static_cast<double>(max_count) / ToSeconds(bucket_width_);
}

double RateTracker::MeanRate(SimTime now) const {
  Advance(now);
  uint64_t total = 0;
  for (const auto& [bucket, count] : buckets_) {
    total += count;
  }
  return static_cast<double>(total) /
         (ToSeconds(bucket_width_) * static_cast<double>(num_buckets_));
}

}  // namespace medes
