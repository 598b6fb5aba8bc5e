// Synthetic Azure-Functions-like request traces.
//
// The paper drives its evaluation with arrival patterns from the Azure
// Functions production traces (Shahrad et al., ATC'20), magnified 5x and
// assigned to the ten FunctionBench functions. Those traces are not
// redistributable, so we synthesise the load regimes the trace
// characterisation reports:
//   - Poisson: steady independent arrivals (API-style traffic);
//   - periodic: timer-triggered functions with near-fixed periods + jitter;
//   - bursty: ON/OFF Markov-modulated Poisson (most Azure functions are
//     invoked rarely but in bursts).
// Each FunctionBench function gets a pattern and a base rate; `rate_scale`
// reproduces the paper's 5x magnification.
#ifndef MEDES_WORKLOAD_TRACE_H_
#define MEDES_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "memstate/profiles.h"

namespace medes {

struct TraceEvent {
  SimTime time;
  FunctionId function = -1;
};

enum class ArrivalKind {
  kPoisson,
  kPeriodic,
  kBursty,
};

struct ArrivalPattern {
  FunctionId function = -1;
  ArrivalKind kind = ArrivalKind::kPoisson;
  // kPoisson: mean rate (req/s) before scaling.
  // kPeriodic: 1/period (req/s); jitter_fraction applies to the period.
  // kBursty: rate while ON; duty cycle from on/off means below.
  double rate_per_s = 0.1;
  double jitter_fraction = 0.1;          // periodic only
  SimDuration mean_on = 60 * kSecond;    // bursty only
  SimDuration mean_off = 240 * kSecond;  // bursty only
};

struct TraceOptions {
  SimDuration duration = kHour;
  double rate_scale = 5.0;  // the paper's 5x magnification
  uint64_t seed = 0xa22e;
  // Hard ceiling on generated events. A runaway duration x rate_scale
  // combination is truncated to the earliest `max_events` arrivals, with a
  // kWarn log stating exactly how many were dropped — never silently.
  size_t max_events = 50'000'000;
};

// The default pattern assignment for the ten FunctionBench functions.
std::vector<ArrivalPattern> DefaultAzurePatterns();

// Patterns restricted to a subset of functions by name (e.g. the paper's
// representative set {LinAlg, FeatureGen, ModelTrain} in Section 7.5).
std::vector<ArrivalPattern> PatternsForFunctions(const std::vector<std::string>& names);

// Generates a trace sorted by (time, function) for the given patterns. Each
// pattern (and, for periodic patterns, each staggered stream) is drawn as an
// already sorted run straight into the one output buffer; adjacent runs are
// then merged in place, pairwise per pass, so generation is O(n log k) for k
// runs with no per-run copies. Throws std::invalid_argument for a negative
// duration, a negative or non-finite rate_scale or rate_per_s, a periodic
// jitter_fraction outside [0, 1), or a bursty mean_on/mean_off that is not
// positive.
std::vector<TraceEvent> GenerateTrace(const std::vector<ArrivalPattern>& patterns,
                                      const TraceOptions& options);

// Per-function request counts in a trace (indexed by FunctionId; sized to the
// max id + 1).
std::vector<size_t> CountPerFunction(const std::vector<TraceEvent>& trace);

}  // namespace medes

#endif  // MEDES_WORKLOAD_TRACE_H_
