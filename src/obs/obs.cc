#include "obs/obs.h"

#include <cstdlib>
#include <cstring>

namespace medes::obs {
namespace internal {

std::atomic<int> g_trace_enabled{-1};
std::atomic<int> g_metrics_enabled{-1};
std::atomic<int64_t> g_trace_sample_every{-1};

bool SlowInit(std::atomic<int>& flag, const char* env_var) {
  const char* env = std::getenv(env_var);
  const bool on = env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  // A concurrent SetXxxEnabled wins over the environment default.
  int expected = -1;
  flag.compare_exchange_strong(expected, on ? 1 : 0, std::memory_order_relaxed);
  return flag.load(std::memory_order_relaxed) != 0;
}

unsigned SlowInitSampleEvery() {
  const char* env = std::getenv("MEDES_TRACE_SAMPLE");
  int64_t every = 1;
  if (env != nullptr && *env != '\0') {
    // Accept "1/N" (keep one trace in N) or a bare "N".
    const char* digits = env;
    if (digits[0] == '1' && digits[1] == '/') {
      digits += 2;
    }
    char* end = nullptr;
    const long parsed = std::strtol(digits, &end, 10);
    if (end != digits && *end == '\0' && parsed >= 1) {
      every = parsed;
    }
  }
  // A concurrent SetTraceSampleEvery wins over the environment default.
  int64_t expected = -1;
  g_trace_sample_every.compare_exchange_strong(expected, every, std::memory_order_relaxed);
  return static_cast<unsigned>(g_trace_sample_every.load(std::memory_order_relaxed));
}

}  // namespace internal

void SetTraceEnabled(bool enabled) {
  internal::g_trace_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_enabled.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void SetTraceSampleEvery(unsigned every) {
  internal::g_trace_sample_every.store(every >= 1 ? static_cast<int64_t>(every) : 1,
                                       std::memory_order_relaxed);
}

}  // namespace medes::obs
