// Capacity campaign: how far does the event core scale?
//
// Sweeps cluster size (10/50/100 worker nodes) with request rate scaled
// proportionally, under the controller's P1 (latency) and P2 (combined)
// objectives, and reports end-to-end simulator throughput: events/sec, wall
// seconds, cold-start rate, P99 latency, memory saved, and cross-node
// transport bytes per configuration.
//
// Usage: cluster_scale [output.json]        (default: BENCH_cluster_scale.json)
// Env:   MEDES_CLUSTER_SCALE_MODE=smoke     CI perf-smoke config (small sweep
//                                           points; same JSON schema)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace medes;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SweepConfig {
  int nodes = 0;
  PolicyObjective objective = PolicyObjective::kLatency;
  const char* objective_name = "P1_latency";
  double rate_scale = 0;
  SimDuration duration;
};

struct SweepResult {
  SweepConfig config;
  uint64_t requests = 0;
  uint64_t sim_events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  double cold_start_rate = 0;
  double p99_e2e_ms = 0;
  double memory_saved_mb = 0;
  uint64_t transport_bytes = 0;
};

PlatformOptions OptionsFor(const SweepConfig& c) {
  PlatformOptions options = bench::EvalOptions(PolicyKind::kMedes);
  options.cluster.num_nodes = c.nodes;
  options.medes.objective = c.objective;
  return options;
}

std::vector<TraceEvent> TraceFor(const SweepConfig& c) {
  TraceOptions topts;
  topts.duration = c.duration;
  topts.rate_scale = c.rate_scale;
  return GenerateTrace(DefaultAzurePatterns(), topts);
}

double OverallP99Ms(const RunMetrics& m) {
  if (m.requests.empty()) {
    return 0;
  }
  std::vector<double> e2e_ms;
  e2e_ms.reserve(m.requests.size());
  for (const RequestRecord& r : m.requests) {
    e2e_ms.push_back(ToSeconds(r.e2e) * 1000.0);
  }
  const size_t k = static_cast<size_t>(0.99 * static_cast<double>(e2e_ms.size() - 1));
  std::nth_element(e2e_ms.begin(), e2e_ms.begin() + static_cast<ptrdiff_t>(k), e2e_ms.end());
  return e2e_ms[k];
}

// One end-to-end platform run.
SweepResult RunSweepPoint(const SweepConfig& c) {
  const std::vector<TraceEvent> trace = TraceFor(c);
  ServerlessPlatform platform(OptionsFor(c));
  const auto t0 = std::chrono::steady_clock::now();
  const RunMetrics metrics = platform.Run(trace);
  const double wall = SecondsSince(t0);

  SweepResult r;
  r.config = c;
  r.requests = metrics.TotalRequests();
  r.sim_events = platform.sim().stats().fired;
  r.wall_seconds = wall;
  r.events_per_sec = wall > 0 ? static_cast<double>(r.sim_events) / wall : 0;
  r.cold_start_rate = r.requests > 0 ? static_cast<double>(metrics.TotalColdStarts()) /
                                           static_cast<double>(r.requests)
                                     : 0;
  r.p99_e2e_ms = OverallP99Ms(metrics);
  r.memory_saved_mb = bench::TotalSavedMb(metrics);
  r.transport_bytes = metrics.transport.TotalBytes();
  return r;
}

void WriteSweepResult(bench::JsonWriter& w, const SweepResult& r) {
  w.BeginObject()
      .Field("nodes", r.config.nodes)
      .Field("objective", r.config.objective_name)
      .Field("rate_scale", r.config.rate_scale)
      .Field("trace_duration_s", ToSeconds(r.config.duration), 0)
      .Field("requests", r.requests)
      .Field("sim_events", r.sim_events)
      .Field("wall_seconds", r.wall_seconds, 3)
      .Field("events_per_sec", r.events_per_sec, 0)
      .Field("cold_start_rate", r.cold_start_rate, 4)
      .Field("p99_e2e_ms", r.p99_e2e_ms)
      .Field("memory_saved_mb", r.memory_saved_mb)
      .Field("transport_bytes", r.transport_bytes)
      .EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  bench::StartWallClock();
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_cluster_scale.json";
  const char* mode_env = std::getenv("MEDES_CLUSTER_SCALE_MODE");
  const bool smoke = mode_env != nullptr && std::string(mode_env) == "smoke";

  bench::Header("cluster_scale: event-core capacity campaign", "node sweep under P1/P2");

  // Rate scales with cluster size so per-node load matches the paper's
  // 19-worker evaluation setup at its 5x magnification.
  std::vector<SweepConfig> sweep;
  const auto add = [&sweep](int nodes, PolicyObjective obj, const char* name,
                            SimDuration duration) {
    SweepConfig c;
    c.nodes = nodes;
    c.objective = obj;
    c.objective_name = name;
    c.rate_scale = 5.0 * static_cast<double>(nodes) / 19.0;
    c.duration = duration;
    sweep.push_back(c);
  };
  if (smoke) {
    add(4, PolicyObjective::kLatency, "P1_latency", 10 * kMinute);
    add(4, PolicyObjective::kCombined, "P2_combined", 10 * kMinute);
  } else {
    for (int nodes : {10, 50, 100}) {
      add(nodes, PolicyObjective::kLatency, "P1_latency", kHour);
      add(nodes, PolicyObjective::kCombined, "P2_combined", kHour);
    }
  }

  std::vector<SweepResult> results;
  for (const SweepConfig& c : sweep) {
    const SweepResult r = RunSweepPoint(c);
    std::printf("nodes=%-3d %-11s requests=%-8" PRIu64 " events=%-9" PRIu64
                " wall=%.2fs events/s=%.0f cold=%.3f p99=%.1fms\n",
                r.config.nodes, r.config.objective_name, r.requests, r.sim_events, r.wall_seconds,
                r.events_per_sec, r.cold_start_rate, r.p99_e2e_ms);
    results.push_back(r);
  }

  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, "cluster_scale");
  w.Field("mode", smoke ? "smoke" : "full");
  w.BeginArray("sweep");
  for (const SweepResult& r : results) {
    WriteSweepResult(w, r);
  }
  w.EndArray();
  w.EndObject();

  bench::WriteTextFile(out_path, w.str() + "\n");
  bench::ExportObservability("cluster_scale");
  return 0;
}
