// Metrics registry: named Counter / Gauge / Histogram instruments.
//
// Instruments are cheap atomics with an allocation-free hot path. A component
// resolves every instrument it records when it is constructed, so a process's
// first run registers exactly the series later runs see:
//
//   - a fact the component also reports through its stats() is a StatCounter
//     (or StatHistogram) member, recorded with one call that advances both
//     the instance value and the series;
//   - a fact with no stats() field is a plain reference into the registry:
//
//       obs::Counter& unique_pages_ =
//           obs::MetricsRegistry::Default().GetCounter("medes_dedup_pages_unique_total");
//       unique_pages_.Add(n);
//
// Recording into a series is gated on MetricsEnabled() (obs/obs.h) inside the
// instrument, so call sites never need their own guard. Registered
// instruments live for the process lifetime at stable addresses.
//
// Determinism contract: counters and gauges are plain sums, and histograms
// use the shared power-of-two bucket convention (common/histogram.h), so all
// recorded state is order-independent — concurrent recording in any
// interleaving yields bit-identical snapshots. Snapshot() additionally sorts
// by (name, label), erasing the thread-dependent registration order.
#ifndef MEDES_OBS_METRICS_H_
#define MEDES_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "obs/obs.h"

namespace medes::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (MetricsEnabled()) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed level (e.g. live sandboxes, pool bytes).
class Gauge {
 public:
  void Set(int64_t value) {
    if (MetricsEnabled()) {
      value_.store(value, std::memory_order_relaxed);
    }
  }
  void Add(int64_t delta) {
    if (MetricsEnabled()) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A histogram's state as a plain, copyable value: counts over the shared
// power-of-two buckets (common/histogram.h), plus the sum and number of
// recorded values. Snapshots export it and stats structs carry it
// (MessageStats::latency).
struct HistogramValue {
  static constexpr size_t kNumBuckets = kPow2HistogramBuckets;

  std::array<uint64_t, kNumBuckets> buckets = {};
  int64_t sum = 0;
  uint64_t count = 0;

  static size_t BucketIndex(int64_t value) { return Pow2BucketIndex(value); }
  // Inclusive upper bound of a bucket; bucket 0 holds <= 0.
  static int64_t BucketUpperBound(size_t bucket) { return Pow2BucketUpperBound(bucket); }

  void Record(int64_t value) {
    ++buckets[BucketIndex(value)];
    sum += value;
    ++count;
  }
  bool operator==(const HistogramValue&) const = default;
};

namespace internal {

// Ungated atomic histogram state shared by Histogram and StatHistogram.
class HistogramCells {
 public:
  void Record(int64_t value) {
    buckets_[Pow2BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }
  HistogramValue Load() const;
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kPow2HistogramBuckets> buckets_ = {};
  std::atomic<int64_t> sum_{0};
};

}  // namespace internal

// Order-independent distribution over the shared power-of-two buckets.
// Records integer values (simulation microseconds, bytes, counts).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = HistogramValue::kNumBuckets;

  void Record(int64_t value) {
    if (MetricsEnabled()) {
      cells_.Record(value);
    }
  }
  HistogramValue Value() const { return cells_.Load(); }
  void Reset() { cells_.Reset(); }

 private:
  internal::HistogramCells cells_;
};

// ---- Registry ------------------------------------------------------------

enum class InstrumentKind : int { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* ToString(InstrumentKind kind);

// One instrument's exported state, decoupled from the live atomics.
struct MetricSnapshot {
  InstrumentKind kind = InstrumentKind::kCounter;
  std::string name;
  std::string label_key;    // empty = unlabelled
  std::string label_value;
  int64_t value = 0;         // counter (non-negative) or gauge reading
  HistogramValue histogram;  // histogram only
};

// Process-wide instrument registry. GetCounter/GetGauge/GetHistogram return a
// stable reference, registering the instrument on first use; subsequent calls
// with the same (name, label) pair return the same instrument. Registering
// one name under two different kinds is a programming error and aborts.
// Every label value in the tree is an enum value, so the code fixes the
// number of series.
class MetricsRegistry {
 public:
  static MetricsRegistry& Default();

  Counter& GetCounter(std::string_view name, std::string_view label_key = {},
                      std::string_view label_value = {}) EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view name, std::string_view label_key = {},
                  std::string_view label_value = {}) EXCLUDES(mu_);
  Histogram& GetHistogram(std::string_view name, std::string_view label_key = {},
                          std::string_view label_value = {}) EXCLUDES(mu_);

  // All instruments' current state, sorted by (name, label_value) so the
  // result is independent of registration order. Values are read with relaxed
  // loads; callers wanting exact totals snapshot at a quiescent point.
  std::vector<MetricSnapshot> Snapshot() const EXCLUDES(mu_);

  // Zeroes every instrument's value, keeping registrations (and the stable
  // references call sites cached). Tests and benches call this between runs.
  void ResetValues() EXCLUDES(mu_);

  size_t NumSeries() const EXCLUDES(mu_);

 private:
  struct Instrument {
    InstrumentKind kind;
    std::string name;
    std::string label_key;
    std::string label_value;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& GetOrCreate(InstrumentKind kind, std::string_view name, std::string_view label_key,
                          std::string_view label_value) REQUIRES(mu_);

  mutable Mutex mu_;
  // unique_ptr elements keep instrument addresses stable across growth.
  std::vector<std::unique_ptr<Instrument>> instruments_ GUARDED_BY(mu_);
};

// ---- Per-instance stats ----------------------------------------------------

// The counter behind one field of a component's stats(). Constructing it
// registers (or finds) the process-wide series it feeds, so an owner that
// holds these as members has registered every series it records by the end
// of its constructor. Add() always advances the instance value, which is
// what stats() reads; the series advances only while metrics are enabled.
// Instance values are per owner (a copied FingerprintRegistry counts from
// zero), series are process-wide and outlive them.
class StatCounter {
 public:
  explicit StatCounter(std::string_view name, std::string_view label_key = {},
                       std::string_view label_value = {});

  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    series_.Add(delta);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  // Zeroes the instance value only; the series keeps its total.
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
  Counter& series_;
};

// StatCounter's histogram counterpart: an always-recorded per-instance
// distribution bound to one process-wide Histogram series.
class StatHistogram {
 public:
  explicit StatHistogram(std::string_view name, std::string_view label_key = {},
                         std::string_view label_value = {});

  void Record(int64_t value) {
    cells_.Record(value);
    series_.Record(value);
  }
  HistogramValue Value() const { return cells_.Load(); }
  void Reset() { cells_.Reset(); }

 private:
  internal::HistogramCells cells_;
  Histogram& series_;
};

}  // namespace medes::obs

#endif  // MEDES_OBS_METRICS_H_
