#include "platform/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace medes {

const char* ToString(StartType type) {
  switch (type) {
    case StartType::kWarm:
      return "warm";
    case StartType::kDedup:
      return "dedup";
    case StartType::kCold:
      return "cold";
  }
  return "?";
}

std::optional<StartType> StartTypeFromString(std::string_view name) {
  if (name == "warm") {
    return StartType::kWarm;
  }
  if (name == "dedup") {
    return StartType::kDedup;
  }
  if (name == "cold") {
    return StartType::kCold;
  }
  return std::nullopt;
}

uint64_t RunMetrics::TotalColdStarts() const {
  uint64_t total = 0;
  for (const auto& f : per_function) {
    total += f.cold_starts;
  }
  return total;
}

uint64_t RunMetrics::TotalRequests() const { return requests.size(); }

double RunMetrics::MeanMemoryMb() const {
  if (memory_timeline.empty()) {
    return 0;
  }
  double total = 0;
  for (const auto& s : memory_timeline) {
    total += s.used_mb;
  }
  return total / static_cast<double>(memory_timeline.size());
}

double RunMetrics::MedianMemoryMb() const {
  if (memory_timeline.empty()) {
    return 0;
  }
  std::vector<double> values;
  values.reserve(memory_timeline.size());
  for (const auto& s : memory_timeline) {
    values.push_back(s.used_mb);
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double RunMetrics::MeanSandboxesInMemory() const {
  if (memory_timeline.empty()) {
    return 0;
  }
  double total = 0;
  for (const auto& s : memory_timeline) {
    total += static_cast<double>(s.sandboxes);
  }
  return total / static_cast<double>(memory_timeline.size());
}

double RunMetrics::FunctionE2ePercentileMs(FunctionId function, double p) const {
  (void)per_function.at(static_cast<size_t>(function));  // throws std::out_of_range
  SampleRecorder e2e_ms;
  for (const RequestRecord& r : requests) {
    if (r.function == function) {
      e2e_ms.Record(ToMillis(r.e2e));
    }
  }
  return e2e_ms.Percentile(p);
}

std::vector<double> ImprovementFactors(const RunMetrics& medes, const RunMetrics& baseline) {
  if (medes.requests.size() != baseline.requests.size()) {
    throw std::invalid_argument("ImprovementFactors: runs are from different traces");
  }
  std::vector<double> factors;
  factors.reserve(medes.requests.size());
  for (size_t i = 0; i < medes.requests.size(); ++i) {
    const auto& m = medes.requests[i];
    const auto& b = baseline.requests[i];
    if (m.arrival != b.arrival || m.function != b.function) {
      throw std::invalid_argument("ImprovementFactors: request streams do not line up");
    }
    if (m.e2e > SimDuration{}) {
      factors.push_back(static_cast<double>(b.e2e.value()) / static_cast<double>(m.e2e.value()));
    }
  }
  return factors;
}

}  // namespace medes
