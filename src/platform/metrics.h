// Metrics collected from a platform run — everything the paper's evaluation
// section reports is derivable from these.
#ifndef MEDES_PLATFORM_METRICS_H_
#define MEDES_PLATFORM_METRICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"
#include "memstate/profiles.h"
#include "net/transport.h"
#include "rdma/rdma.h"
#include "registry/fingerprint_registry.h"

namespace medes {

enum class StartType : uint8_t {
  kWarm,
  kDedup,
  kCold,
};

const char* ToString(StartType type);

// Inverse of ToString (exact match); nullopt for anything unrecognised.
std::optional<StartType> StartTypeFromString(std::string_view name);

// The run's one per-request store; fields ordered widest first (32 bytes).
struct RequestRecord {
  SimTime arrival;
  SimDuration startup;  // latency before execution begins
  SimDuration e2e;      // startup + execution
  FunctionId function = -1;
  StartType start = StartType::kCold;
};
static_assert(sizeof(RequestRecord) == 32);

struct FunctionMetrics {
  uint64_t warm_starts = 0;
  uint64_t dedup_starts = 0;
  uint64_t cold_starts = 0;
  // Restore (dedup start) breakdown, Fig. 8's three components.
  SampleRecorder restore_read_ms;
  SampleRecorder restore_compute_ms;
  SampleRecorder restore_criu_ms;
  // Dedup op results.
  uint64_t dedup_ops = 0;
  double total_saved_mb = 0;
  uint64_t total_patch_bytes = 0;   // at image scale
  uint64_t total_pages_deduped = 0;

  uint64_t TotalRequests() const { return warm_starts + dedup_starts + cold_starts; }
};

// Working-set-aware lazy restore accounting (aggregated over the run).
// `critical_path_ms` is the pre-resume latency of each dedup start — the
// quantity Fig. 8 compares across restore modes; fault time and background
// pages are what lazy mode moved off that path.
struct LazyRestoreStats {
  uint64_t lazy_restores = 0;
  uint64_t eager_restores = 0;
  uint64_t ws_predicted_pages = 0;
  uint64_t ws_touched_pages = 0;
  uint64_t ws_hit_pages = 0;
  uint64_t ws_fault_pages = 0;
  uint64_t background_completions = 0;
  uint64_t background_pages = 0;
  double fault_ms = 0;  // post-resume demand-fault penalty
  SampleRecorder critical_path_ms;

  // Fraction of touched pages the prediction prefetched (1.0 when nothing
  // was touched — there was nothing to miss).
  double HitRate() const {
    return ws_touched_pages == 0
               ? 1.0
               : static_cast<double>(ws_hit_pages) / static_cast<double>(ws_touched_pages);
  }
};

struct MemorySample {
  SimTime time;
  double used_mb = 0;
  uint64_t sandboxes = 0;
  uint64_t warm = 0;
  uint64_t dedup = 0;
  uint64_t bases = 0;
  // Memory held by *idle warm* sandboxes, per function — the portion a
  // redundancy-elimination pass could shrink (used by the Fig. 2 estimate).
  std::vector<double> idle_warm_mb_per_function;
};

struct RunMetrics {
  std::vector<RequestRecord> requests;
  std::vector<FunctionMetrics> per_function;  // indexed by FunctionId
  std::vector<MemorySample> memory_timeline;

  uint64_t dedup_ops = 0;
  uint64_t restores = 0;
  uint64_t sandboxes_spawned = 0;
  uint64_t sandboxes_deduped = 0;  // distinct dedup transitions
  uint64_t evictions = 0;
  uint64_t base_designations = 0;
  uint64_t overcommit_events = 0;

  uint64_t same_function_pages = 0;
  uint64_t cross_function_pages = 0;

  LazyRestoreStats lazy_restore;

  RegistryStats registry;
  RdmaStats rdma;
  // Per-message-type counters and latency histograms from the shared
  // cluster transport (lookups, inserts, base reads, control decisions).
  TransportStats transport;

  uint64_t TotalColdStarts() const;
  uint64_t TotalRequests() const;
  double MeanMemoryMb() const;
  double MedianMemoryMb() const;
  double MeanSandboxesInMemory() const;

  // Per-function p-quantile of end-to-end latency in ms, derived from
  // `requests` (SampleRecorder::Percentile's rule; 0 with no requests).
  double FunctionE2ePercentileMs(FunctionId function, double p) const;
};

// Distribution of per-request improvement factors (baseline e2e / medes e2e),
// matched request-by-request; both runs must come from the same trace.
std::vector<double> ImprovementFactors(const RunMetrics& medes, const RunMetrics& baseline);

}  // namespace medes

#endif  // MEDES_PLATFORM_METRICS_H_
