#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <tuple>
#include <utility>

namespace medes::obs {

const char* ToString(InstrumentKind kind) {
  switch (kind) {
    case InstrumentKind::kCounter:
      return "counter";
    case InstrumentKind::kGauge:
      return "gauge";
    case InstrumentKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

namespace internal {

HistogramValue HistogramCells::Load() const {
  HistogramValue out;
  for (size_t b = 0; b < out.buckets.size(); ++b) {
    out.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
    out.count += out.buckets[b];
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

void HistogramCells::Reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
}

}  // namespace internal

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();  // intentionally leaked
  return *registry;
}

MetricsRegistry::Instrument& MetricsRegistry::GetOrCreate(InstrumentKind kind,
                                                          std::string_view name,
                                                          std::string_view label_key,
                                                          std::string_view label_value) {
  for (const auto& instrument : instruments_) {
    if (instrument->name == name && instrument->label_key == label_key &&
        instrument->label_value == label_value) {
      if (instrument->kind != kind) {
        std::fprintf(stderr, "obs: instrument \"%.*s\" registered as %s, requested as %s\n",
                     static_cast<int>(name.size()), name.data(), ToString(instrument->kind),
                     ToString(kind));
        std::abort();
      }
      return *instrument;
    }
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->kind = kind;
  instrument->name = std::string(name);
  instrument->label_key = std::string(label_key);
  instrument->label_value = std::string(label_value);
  switch (kind) {
    case InstrumentKind::kCounter:
      instrument->counter = std::make_unique<Counter>();
      break;
    case InstrumentKind::kGauge:
      instrument->gauge = std::make_unique<Gauge>();
      break;
    case InstrumentKind::kHistogram:
      instrument->histogram = std::make_unique<Histogram>();
      break;
  }
  instruments_.push_back(std::move(instrument));
  return *instruments_.back();
}

Counter& MetricsRegistry::GetCounter(std::string_view name, std::string_view label_key,
                                     std::string_view label_value) {
  MutexLock lock(mu_);
  return *GetOrCreate(InstrumentKind::kCounter, name, label_key, label_value).counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, std::string_view label_key,
                                 std::string_view label_value) {
  MutexLock lock(mu_);
  return *GetOrCreate(InstrumentKind::kGauge, name, label_key, label_value).gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name, std::string_view label_key,
                                         std::string_view label_value) {
  MutexLock lock(mu_);
  return *GetOrCreate(InstrumentKind::kHistogram, name, label_key, label_value).histogram;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  {
    MutexLock lock(mu_);
    out.reserve(instruments_.size());
    for (const auto& instrument : instruments_) {
      MetricSnapshot snap;
      snap.kind = instrument->kind;
      snap.name = instrument->name;
      snap.label_key = instrument->label_key;
      snap.label_value = instrument->label_value;
      switch (instrument->kind) {
        case InstrumentKind::kCounter:
          snap.value = static_cast<int64_t>(instrument->counter->Value());
          break;
        case InstrumentKind::kGauge:
          snap.value = instrument->gauge->Value();
          break;
        case InstrumentKind::kHistogram:
          snap.histogram = instrument->histogram->Value();
          break;
      }
      out.push_back(std::move(snap));
    }
  }
  // Registration order depends on which thread first hit each call site;
  // sorting restores a canonical order for export and determinism checks.
  std::sort(out.begin(), out.end(), [](const MetricSnapshot& a, const MetricSnapshot& b) {
    return std::tie(a.name, a.label_key, a.label_value) <
           std::tie(b.name, b.label_key, b.label_value);
  });
  return out;
}

void MetricsRegistry::ResetValues() {
  MutexLock lock(mu_);
  for (const auto& instrument : instruments_) {
    switch (instrument->kind) {
      case InstrumentKind::kCounter:
        instrument->counter->Reset();
        break;
      case InstrumentKind::kGauge:
        instrument->gauge->Reset();
        break;
      case InstrumentKind::kHistogram:
        instrument->histogram->Reset();
        break;
    }
  }
}

size_t MetricsRegistry::NumSeries() const {
  MutexLock lock(mu_);
  return instruments_.size();
}

StatCounter::StatCounter(std::string_view name, std::string_view label_key,
                         std::string_view label_value)
    : series_(MetricsRegistry::Default().GetCounter(name, label_key, label_value)) {}

StatHistogram::StatHistogram(std::string_view name, std::string_view label_key,
                             std::string_view label_value)
    : series_(MetricsRegistry::Default().GetHistogram(name, label_key, label_value)) {}

}  // namespace medes::obs
