// registry_persistence: the bounded-memory + durability campaign for the
// state-store tier (src/store).
//
// Two parts:
//
//  1. Node sweep (10/50/100 workers, memory backend): each point runs the
//     full Azure-like workload twice — once with an unbounded RAM budget
//     (the store is behaviourally invisible) and once with the hot tier
//     capped at 50% of the unbounded run's peak state footprint, so cold
//     registry entries and base pages demand-page from the modelled SSD
//     tier. Reports dedup savings and restore P99 for both, and the drift
//     between them (acceptance: savings within 5% of unbounded).
//
//  2. Persistence drill (persistent backend): a small platform run logging
//     every registry insert/removal and base page to an append-only log with
//     compacted checkpoints, then a fresh LogStore re-opened on the same
//     directory, recovery replayed into a fresh registry, and every
//     recovered sandbox re-validated against the live cluster.
//
// Output: BENCH_registry_persistence.json (or argv[1]); validate it with
//   python3 -m scripts check-bench-json <file> --bench registry_persistence
// Env:   MEDES_REGISTRY_PERSISTENCE_MODE=smoke   CI-sized config
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/recovery_validator.h"
#include "medes.h"

namespace medes {
namespace {

constexpr double kRamBudgetFraction = 0.5;
constexpr double kMaxSavedDrift = 0.05;

struct SweepPoint {
  int nodes = 0;
  double rate_scale = 0;
  SimDuration duration;
};

struct RunResult {
  uint64_t requests = 0;
  uint64_t dedup_starts = 0;
  double saved_mb = 0;
  double restore_p99_ms = 0;
  double wall_seconds = 0;
  store::StoreStats store;
};

// P99 of startup latency over dedup starts — the restores the cold tier
// slows down when the budget binds.
double RestoreP99Ms(const RunMetrics& m) {
  std::vector<double> ms;
  for (const RequestRecord& r : m.requests) {
    if (r.start == StartType::kDedup) {
      ms.push_back(ToSeconds(r.startup) * 1000.0);
    }
  }
  if (ms.empty()) {
    return 0;
  }
  const size_t k = static_cast<size_t>(0.99 * static_cast<double>(ms.size() - 1));
  std::nth_element(ms.begin(), ms.begin() + static_cast<ptrdiff_t>(k), ms.end());
  return ms[k];
}

RunResult RunPoint(const SweepPoint& p, const std::vector<TraceEvent>& trace,
                   uint64_t ram_budget_bytes) {
  PlatformOptions options = bench::EvalOptions(PolicyKind::kMedes);
  options.cluster.num_nodes = p.nodes;
  options.store.ram_budget_bytes = ram_budget_bytes;
  ServerlessPlatform platform(options);
  const double t0 = bench::WallSeconds();
  const RunMetrics metrics = platform.Run(trace);
  RunResult r;
  r.requests = metrics.TotalRequests();
  r.dedup_starts = bench::TotalDedupStarts(metrics);
  r.saved_mb = bench::TotalSavedMb(metrics);
  r.restore_p99_ms = RestoreP99Ms(metrics);
  r.wall_seconds = bench::WallSeconds() - t0;
  r.store = metrics.store;
  return r;
}

std::vector<TraceEvent> TraceFor(const SweepPoint& p) {
  TraceOptions topts;
  topts.duration = p.duration;
  topts.rate_scale = p.rate_scale;
  return GenerateTrace(DefaultAzurePatterns(), topts);
}

double MbOf(uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

struct DrillResult {
  int nodes = 0;
  uint64_t live_base_sandboxes = 0;
  RecoveryReport report;
  store::DurabilityStats durability;
  bool matches_live = false;
};

// Platform run on the persistent backend, then recovery from the same
// directory into a fresh registry, re-validated against the live cluster.
DrillResult RunPersistenceDrill(int nodes, SimDuration duration, double rate_scale) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "medes_registry_persistence.store").string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  PlatformOptions options = bench::EvalOptions(PolicyKind::kMedes);
  options.cluster.num_nodes = nodes;
  options.store.backend = store::StoreBackend::kPersistent;
  options.store.directory = dir;
  // Small enough that the run folds the log into checkpoints several times;
  // the tail past the last fold exercises checkpoint + log replay.
  options.store.checkpoint_every_records = 256;

  TraceOptions topts;
  topts.duration = duration;
  topts.rate_scale = rate_scale;
  ServerlessPlatform platform(options);
  (void)platform.Run(GenerateTrace(DefaultAzurePatterns(), topts));

  DrillResult d;
  d.nodes = nodes;
  d.live_base_sandboxes = platform.cluster().base_snapshots().size();
  d.durability = platform.state_store().durability_stats();

  // "Restart": a fresh store opened on the surviving files replays
  // checkpoint + log tail; every recovered sandbox must still byte-match the
  // live cluster before the registry serves it.
  store::StoreOptions reopen = options.store;
  const auto recovered = store::MakeStateStore(reopen);
  FingerprintRegistry registry(options.registry);
  d.report = RecoverInto(*recovered, registry, MakeRecoveryValidator(platform.cluster()));
  d.matches_live = d.report.recovered_sandboxes == d.live_base_sandboxes &&
                   d.report.rejected_sandboxes == 0 && d.report.store_state.clean;

  std::filesystem::remove_all(dir, ec);
  return d;
}

}  // namespace
}  // namespace medes

int main(int argc, char** argv) {
  using namespace medes;
  bench::StartWallClock();
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_registry_persistence.json";
  const char* mode_env = std::getenv("MEDES_REGISTRY_PERSISTENCE_MODE");
  const bool smoke = mode_env != nullptr && std::string(mode_env) == "smoke";

  bench::Header("registry_persistence: tiered state store campaign",
                "bounded-RAM node sweep + persistent-backend crash recovery drill");

  std::vector<SweepPoint> sweep;
  const auto add = [&sweep](int nodes, SimDuration duration) {
    SweepPoint p;
    p.nodes = nodes;
    p.rate_scale = 5.0 * static_cast<double>(nodes) / 19.0;
    p.duration = duration;
    sweep.push_back(p);
  };
  if (smoke) {
    add(4, 6 * kMinute);
  } else {
    for (int nodes : {10, 50, 100}) {
      add(nodes, 20 * kMinute);
    }
  }

  struct PointResult {
    SweepPoint point;
    RunResult unbounded;
    RunResult bounded;
    uint64_t budget_bytes = 0;
    double saved_drift = 0;
  };
  std::vector<PointResult> results;
  bool saved_within = true;
  for (const SweepPoint& p : sweep) {
    const std::vector<TraceEvent> trace = TraceFor(p);
    PointResult r;
    r.point = p;
    r.unbounded = RunPoint(p, trace, /*ram_budget_bytes=*/0);
    r.budget_bytes = std::max<uint64_t>(
        1, static_cast<uint64_t>(kRamBudgetFraction *
                                 static_cast<double>(r.unbounded.store.peak_state_bytes)));
    r.bounded = RunPoint(p, trace, r.budget_bytes);
    r.saved_drift = r.unbounded.saved_mb > 0
                        ? std::abs(r.bounded.saved_mb - r.unbounded.saved_mb) / r.unbounded.saved_mb
                        : 0;
    saved_within = saved_within && r.saved_drift <= kMaxSavedDrift;
    std::printf("nodes=%-3d requests=%-8" PRIu64
                " peak_state=%.1fMB budget=%.1fMB saved=%.1f/%.1fMB drift=%.3f "
                "restore_p99=%.1f/%.1fms cold_fetches=%" PRIu64 " evictions=%" PRIu64 "\n",
                p.nodes, r.unbounded.requests, MbOf(r.unbounded.store.peak_state_bytes),
                MbOf(r.budget_bytes), r.unbounded.saved_mb, r.bounded.saved_mb, r.saved_drift,
                r.unbounded.restore_p99_ms, r.bounded.restore_p99_ms, r.bounded.store.cold_fetches,
                r.bounded.store.evictions);
    results.push_back(r);
  }

  bench::Section("persistence drill (append-only log + checkpoint recovery)");
  const DrillResult drill = smoke ? RunPersistenceDrill(4, 4 * kMinute, 5.0 * 4.0 / 19.0)
                                  : RunPersistenceDrill(4, 10 * kMinute, 5.0 * 4.0 / 19.0);
  std::printf("live_bases=%" PRIu64 " recovered=%" PRIu64 " rejected=%" PRIu64
              " pages=%" PRIu64 " ckpt_records=%" PRIu64 " log_records=%" PRIu64
              " checkpoints=%" PRIu64 " clean=%s matches_live=%s\n",
              drill.live_base_sandboxes, drill.report.recovered_sandboxes,
              drill.report.rejected_sandboxes, drill.report.recovered_pages,
              drill.report.store_state.checkpoint_records, drill.report.store_state.log_records,
              drill.durability.checkpoints, drill.report.store_state.clean ? "true" : "false",
              drill.matches_live ? "true" : "false");

  const bool all_passed = saved_within && drill.matches_live;

  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, "registry_persistence");
  w.Field("mode", smoke ? "smoke" : "full")
      .Field("ram_budget_fraction", kRamBudgetFraction)
      .Field("max_saved_drift", kMaxSavedDrift);
  w.BeginArray("sweep");
  for (const PointResult& r : results) {
    w.BeginObject()
        .Field("nodes", r.point.nodes)
        .Field("requests", r.unbounded.requests)
        .Field("ram_budget_mb", MbOf(r.budget_bytes))
        .Field("saved_drift", r.saved_drift, 4);
    w.BeginObject("unbounded")
        .Field("peak_state_mb", MbOf(r.unbounded.store.peak_state_bytes))
        .Field("memory_saved_mb", r.unbounded.saved_mb)
        .Field("restore_p99_ms", r.unbounded.restore_p99_ms)
        .Field("dedup_starts", r.unbounded.dedup_starts)
        .Field("hot_hits", r.unbounded.store.hot_hits)
        .Field("cold_fetches", r.unbounded.store.cold_fetches)
        .Field("wall_seconds", r.unbounded.wall_seconds, 3)
        .EndObject();
    w.BeginObject("bounded")
        .Field("memory_saved_mb", r.bounded.saved_mb)
        .Field("restore_p99_ms", r.bounded.restore_p99_ms)
        .Field("dedup_starts", r.bounded.dedup_starts)
        .Field("hot_hits", r.bounded.store.hot_hits)
        .Field("cold_fetches", r.bounded.store.cold_fetches)
        .Field("cold_fetch_mb", MbOf(r.bounded.store.cold_fetch_bytes))
        .Field("evictions", r.bounded.store.evictions)
        .Field("ssd_time_ms", static_cast<double>(r.bounded.store.ssd_time_us) / 1000.0)
        .Field("wall_seconds", r.bounded.wall_seconds, 3)
        .EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.BeginObject("recovery")
      .Field("nodes", drill.nodes)
      .Field("live_base_sandboxes", drill.live_base_sandboxes)
      .Field("recovered_sandboxes", drill.report.recovered_sandboxes)
      .Field("rejected_sandboxes", drill.report.rejected_sandboxes)
      .Field("recovered_pages", drill.report.recovered_pages)
      .Field("checkpoint_records", drill.report.store_state.checkpoint_records)
      .Field("log_records", drill.report.store_state.log_records)
      .Field("stale_records", drill.report.store_state.stale_records)
      .Field("torn_bytes", drill.report.store_state.torn_bytes)
      .Field("corrupt_records", drill.report.store_state.corrupt_records)
      .Field("clean", drill.report.store_state.clean)
      .Field("checkpoints", drill.durability.checkpoints)
      .Field("log_bytes", drill.durability.log_bytes)
      .Field("checkpoint_bytes", drill.durability.checkpoint_bytes)
      .Field("matches_live", drill.matches_live)
      .EndObject();
  w.BeginObject("checks")
      .Field("saved_within_drift", saved_within)
      .Field("recovery_clean", drill.report.store_state.clean)
      .Field("recovery_matches_live", drill.matches_live)
      .Field("all_passed", all_passed)
      .EndObject();
  w.EndObject();
  bench::WriteTextFile(out_path, w.str());
  bench::ExportObservability("registry_persistence");

  std::printf("\n%s\n", all_passed ? "ALL CHECKS PASSED" : "CHECKS FAILED");
  return all_passed ? 0 : 1;
}
