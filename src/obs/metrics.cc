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
                                                          std::string_view help,
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
  if (instruments_.size() >= max_series_) {
    // Cardinality guard: absorb the registration into the per-kind overflow
    // sink so the caller still gets a live instrument, and count the drop.
    ++dropped_series_;
    if (!overflow_warned_) {
      overflow_warned_ = true;
      std::fprintf(stderr,
                   "obs: metrics registry hit its %zu-series cap registering \"%.*s\"; "
                   "further new series are dropped (see medes_obs_series_dropped_total)\n",
                   max_series_, static_cast<int>(name.size()), name.data());
    }
    auto& sink = overflow_.at(static_cast<size_t>(kind));
    if (sink == nullptr) {
      sink = std::make_unique<Instrument>();
      sink->kind = kind;
      sink->name = "medes_obs_series_overflow";
      sink->help = "Overflow sink for series past the cardinality cap";
      switch (kind) {
        case InstrumentKind::kCounter:
          sink->counter = std::make_unique<Counter>();
          break;
        case InstrumentKind::kGauge:
          sink->gauge = std::make_unique<Gauge>();
          break;
        case InstrumentKind::kHistogram:
          sink->histogram = std::make_unique<Histogram>();
          break;
      }
    }
    return *sink;
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->kind = kind;
  instrument->name = std::string(name);
  instrument->help = std::string(help);
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

Counter& MetricsRegistry::GetCounter(std::string_view name, std::string_view help,
                                     std::string_view label_key, std::string_view label_value) {
  MutexLock lock(mu_);
  return *GetOrCreate(InstrumentKind::kCounter, name, help, label_key, label_value).counter;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 std::string_view label_key, std::string_view label_value) {
  MutexLock lock(mu_);
  return *GetOrCreate(InstrumentKind::kGauge, name, help, label_key, label_value).gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name, std::string_view help,
                                         std::string_view label_key,
                                         std::string_view label_value) {
  MutexLock lock(mu_);
  return *GetOrCreate(InstrumentKind::kHistogram, name, help, label_key, label_value).histogram;
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
      snap.help = instrument->help;
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
    if (dropped_series_ > 0) {
      MetricSnapshot snap;
      snap.kind = InstrumentKind::kCounter;
      snap.name = "medes_obs_series_dropped_total";
      snap.help = "Registrations absorbed by the label-cardinality guard";
      snap.value = static_cast<int64_t>(dropped_series_);
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
  const auto reset = [](const Instrument& instrument) {
    switch (instrument.kind) {
      case InstrumentKind::kCounter:
        instrument.counter->Reset();
        break;
      case InstrumentKind::kGauge:
        instrument.gauge->Reset();
        break;
      case InstrumentKind::kHistogram:
        instrument.histogram->Reset();
        break;
    }
  };
  for (const auto& instrument : instruments_) {
    reset(*instrument);
  }
  for (const auto& sink : overflow_) {
    if (sink != nullptr) {
      reset(*sink);
    }
  }
  dropped_series_ = 0;
}

size_t MetricsRegistry::NumSeries() const {
  MutexLock lock(mu_);
  return instruments_.size();
}

void MetricsRegistry::SetMaxSeries(size_t max_series) {
  MutexLock lock(mu_);
  max_series_ = max_series;
  overflow_warned_ = false;
}

size_t MetricsRegistry::MaxSeries() const {
  MutexLock lock(mu_);
  return max_series_;
}

uint64_t MetricsRegistry::DroppedSeries() const {
  MutexLock lock(mu_);
  return dropped_series_;
}

StatCounter::StatCounter(std::string_view name, std::string_view help,
                         std::string_view label_key, std::string_view label_value)
    : series_(MetricsRegistry::Default().GetCounter(name, help, label_key, label_value)) {}

StatHistogram::StatHistogram(std::string_view name, std::string_view help,
                             std::string_view label_key, std::string_view label_value)
    : series_(MetricsRegistry::Default().GetHistogram(name, help, label_key, label_value)) {}

}  // namespace medes::obs
