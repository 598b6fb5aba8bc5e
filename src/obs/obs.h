// Observability runtime switches.
//
// The tracing layer (obs/trace.h) and the metrics registry (obs/metrics.h)
// are both gated on process-wide flags so instrumented hot paths cost one
// relaxed atomic load and a predictable branch when observability is off:
//
//   - MEDES_TRACE=1    enables span recording (Chrome-trace export).
//   - MEDES_METRICS=1  enables counter/gauge/histogram recording.
//   - MEDES_TRACE_SAMPLE=1/N (or plain N) keeps one request trace in N,
//     decided deterministically from the trace id at mint time
//     (obs/trace_context.h), so sampling IS part of the bit-identical
//     contract: the sampled span set never depends on thread count.
//
// Tests and tools can flip the flags programmatically (SetTraceEnabled etc.);
// the environment variables only seed the initial state.
#ifndef MEDES_OBS_OBS_H_
#define MEDES_OBS_OBS_H_

#include <atomic>
#include <cstdint>

namespace medes::obs {

namespace internal {
// Tri-state: -1 = not yet initialised from the environment, else 0/1. The
// lazy read avoids static-initialisation-order dependencies between TUs.
extern std::atomic<int> g_trace_enabled;
extern std::atomic<int> g_metrics_enabled;
// Sampling period: -1 = not yet initialised from MEDES_TRACE_SAMPLE, else
// the clamped keep-1-in-N period (>= 1).
extern std::atomic<int64_t> g_trace_sample_every;
bool SlowInit(std::atomic<int>& flag, const char* env_var);
unsigned SlowInitSampleEvery();

inline bool Enabled(std::atomic<int>& flag, const char* env_var) {
  const int v = flag.load(std::memory_order_relaxed);
  if (v >= 0) {
    return v != 0;
  }
  return SlowInit(flag, env_var);
}
}  // namespace internal

inline bool TraceEnabled() {
  return internal::Enabled(internal::g_trace_enabled, "MEDES_TRACE");
}
inline bool MetricsEnabled() {
  return internal::Enabled(internal::g_metrics_enabled, "MEDES_METRICS");
}

// Keep-1-in-N trace sampling period (>= 1; 1 = keep every trace). Seeded
// from MEDES_TRACE_SAMPLE ("1/N" or plain "N") on first read.
inline unsigned TraceSampleEvery() {
  const int64_t v = internal::g_trace_sample_every.load(std::memory_order_relaxed);
  if (v >= 1) {
    return static_cast<unsigned>(v);
  }
  return internal::SlowInitSampleEvery();
}

void SetTraceEnabled(bool enabled);
void SetMetricsEnabled(bool enabled);
void SetTraceSampleEvery(unsigned every);  // 0 is clamped to 1

}  // namespace medes::obs

#endif  // MEDES_OBS_OBS_H_
