// The BENCH campaigns: multi-node Medes platform runs, each writing one BENCH
// JSON that scripts/check_bench_json.py validates.
//
//   cluster_scale      how far the event core scales: 10/50/100 worker nodes
//                      under the controller's P1 (latency) and P2 (combined)
//                      objectives for one sim-hour each; events/sec, wall
//                      seconds, cold-start rate, P99 latency, memory saved
//                      and cross-node transport bytes per point.
//   restore_latency    eager vs lazy restore on oversubscribed nodes at
//                      10/50/100 worker nodes over the same 30-minute trace:
//                      critical-path restore P50/P99, working-set hit rate,
//                      background-fault volume; plus Fig. 8's per-function
//                      breakdown (bench::PerFunctionBreakdown).
//   trace_attribution  critical-path attribution of sampled causal traces on
//                      a 50-node P2 run of 30 sim-minutes.
//
// Usage: campaign <cluster_scale|restore_latency|trace_attribution> [--smoke] [out.json]
//   --smoke runs the CI-sized config with the same schema: cluster_scale at
//   4 nodes (P1 and P2), restore_latency at the 100-node point and
//   trace_attribution at 4 nodes, each for 10 sim-minutes. The default
//   output is BENCH_<campaign>.json. One campaign runs per process, so the
//   metadata block (wall seconds, events fired, peak RSS) describes it alone.
// Env: MEDES_TRACE_SAMPLE=N or 1/N  trace_attribution's sampling (default 1/4)
//      MEDES_OBS_DIR                where trace_attribution's Chrome trace,
//                                   trace_analysis_trace.json, lands
//
// Every point's request rate scales with its node count, so per-node load
// matches the paper's 19-worker evaluation at its 5x magnification. Modelled
// fields derive from simulation state only, so a report is byte-identical
// across MEDES_THREADS outside its metadata and per-point host time.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "obs/critical_path.h"

using namespace medes;

namespace {

// ---------------------------------------------------------------------------
// One sweep point: a Medes platform run on the full Azure-like workload.
// ---------------------------------------------------------------------------

struct SweepPoint {
  int nodes = 0;
  SimDuration duration;
  PolicyObjective objective = PolicyObjective::kLatency;  // the controller's default
  RestoreMode restore_mode = RestoreMode::kLazy;          // the agent's default
  double node_memory_mb = 2048;                           // EvalOptions' default

  double RateScale() const { return 5.0 * static_cast<double>(nodes) / 19.0; }
};

struct PointRun {
  RunMetrics metrics;
  uint64_t sim_events = 0;
  double wall_seconds = 0;  // the platform run alone
};

PointRun RunPoint(const SweepPoint& p) {
  PlatformOptions options = bench::EvalOptions(PolicyKind::kMedes, p.node_memory_mb);
  options.cluster.num_nodes = p.nodes;
  options.medes.objective = p.objective;
  options.agent.restore_mode = p.restore_mode;
  TraceOptions topts;
  topts.duration = p.duration;
  topts.rate_scale = p.RateScale();
  const std::vector<TraceEvent> trace = GenerateTrace(DefaultAzurePatterns(), topts);

  ServerlessPlatform platform(options);
  const auto t0 = std::chrono::steady_clock::now();
  PointRun run{.metrics = platform.Run(trace)};
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  run.sim_events = platform.sim().stats().fired;
  return run;
}

// Writes the report to `path`: the metadata block under `bench_name`, the
// mode, then the members `body` holds. False when the file cannot be written.
bool WriteReport(const std::string& path, std::string_view bench_name, bool smoke,
                 const bench::JsonWriter& body) {
  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, bench_name);
  w.Field("mode", smoke ? "smoke" : "full").Members(body).EndObject();
  return bench::WriteTextFile(path, w.str() + "\n");
}

// ---------------------------------------------------------------------------
// cluster_scale
// ---------------------------------------------------------------------------

// The floor rule, index floor(0.99 * (n - 1)), and not SampleRecorder's
// nearest rank: the last quantile rule of its kind left in the tree. Moving
// `p99_e2e_ms` to nearest rank re-records that field, so it is a change of
// its own.
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

int ClusterScale(bool smoke, const std::string& out_path) {
  bench::Header("cluster_scale: event-core capacity campaign", "node sweep under P1/P2");

  const std::pair<PolicyObjective, const char*> objectives[] = {
      {PolicyObjective::kLatency, "P1_latency"}, {PolicyObjective::kCombined, "P2_combined"}};
  bench::JsonWriter body;
  body.BeginArray("sweep");
  for (int nodes : smoke ? std::vector<int>{4} : std::vector<int>{10, 50, 100}) {
    for (const auto& [objective, objective_name] : objectives) {
      const SweepPoint point{
          .nodes = nodes, .duration = smoke ? 10 * kMinute : kHour, .objective = objective};
      const PointRun run = RunPoint(point);
      const uint64_t requests = run.metrics.TotalRequests();
      const double events_per_sec =
          run.wall_seconds > 0 ? static_cast<double>(run.sim_events) / run.wall_seconds : 0;
      const double cold_start_rate = requests > 0
                                         ? static_cast<double>(run.metrics.TotalColdStarts()) /
                                               static_cast<double>(requests)
                                         : 0;
      const double p99_e2e_ms = OverallP99Ms(run.metrics);
      std::printf("nodes=%-3d %-11s requests=%-8" PRIu64 " events=%-9" PRIu64
                  " wall=%.2fs events/s=%.0f cold=%.3f p99=%.1fms\n",
                  nodes, objective_name, requests, run.sim_events, run.wall_seconds,
                  events_per_sec, cold_start_rate, p99_e2e_ms);
      body.BeginObject()
          .Field("nodes", nodes)
          .Field("objective", objective_name)
          .Field("rate_scale", point.RateScale())
          .Field("trace_duration_s", ToSeconds(point.duration), 0)
          .Field("requests", requests)
          .Field("sim_events", run.sim_events)
          .Field("wall_seconds", run.wall_seconds, 3)
          .Field("events_per_sec", events_per_sec, 0)
          .Field("cold_start_rate", cold_start_rate, 4)
          .Field("p99_e2e_ms", p99_e2e_ms)
          .Field("memory_saved_mb", bench::TotalSavedMb(run.metrics))
          .Field("transport_bytes", run.metrics.transport.TotalBytes())
          .EndObject();
    }
  }
  body.EndArray();
  const bool written = WriteReport(out_path, "cluster_scale", smoke, body);
  bench::ExportObservability("cluster_scale");
  return written ? 0 : 1;
}

// ---------------------------------------------------------------------------
// restore_latency
// ---------------------------------------------------------------------------

double PercentileMs(const SampleRecorder& r, double p) { return r.Empty() ? 0 : r.Percentile(p); }

int RestoreLatency(bool smoke, const std::string& out_path) {
  bench::Header("restore_latency: critical-path restore latency, eager vs lazy",
                smoke ? "smoke: 100-node Medes, 10 sim-minutes"
                      : "10/50/100-node Medes, 30 sim-minutes, 1536 MB per node");

  bench::JsonWriter body;
  body.BeginArray("per_function");
  for (const bench::FunctionRow& f : bench::PerFunctionBreakdown()) {
    body.BeginObject()
        .Field("function", f.name)
        .Field("eager_total_ms", ToMillis(f.eager.total_time), 3)
        .Field("lazy_critical_ms", ToMillis(f.lazy.critical_path_time), 3)
        .Field("lazy_fault_ms", ToMillis(f.lazy.fault_time), 3)
        .Field("lazy_background_pages", static_cast<uint64_t>(f.lazy.background_pages))
        .Field("cold_start_ms", ToMillis(f.cold_start), 3)
        .EndObject();
  }
  body.EndArray().BeginArray("sweep");
  for (int nodes : smoke ? std::vector<int>{100} : std::vector<int>{10, 50, 100}) {
    // Oversubscribed nodes (Section 7.4's pressure pools): pressure-driven
    // dedup keeps a steady population of dedup sandboxes, so the sweep
    // measures restore latency rather than warm-start luck.
    const SweepPoint point{
        .nodes = nodes, .duration = smoke ? 10 * kMinute : 30 * kMinute, .node_memory_mb = 1536};
    SweepPoint eager_point = point;
    eager_point.restore_mode = RestoreMode::kEager;
    const LazyRestoreStats eager = RunPoint(eager_point).metrics.lazy_restore;
    const PointRun lazy_run = RunPoint(point);
    const LazyRestoreStats& lazy = lazy_run.metrics.lazy_restore;
    const double eager_p99_ms = PercentileMs(eager.critical_path_ms, 0.99);
    const double lazy_p99_ms = PercentileMs(lazy.critical_path_ms, 0.99);
    const double speedup = lazy_p99_ms > 0 ? eager_p99_ms / lazy_p99_ms : 0.0;
    std::printf("nodes=%-3d restores eager/lazy=%" PRIu64 "/%" PRIu64
                "  P99 eager=%.1fms lazy=%.1fms (%.2fx)  hit=%.0f%%  bg_pages=%" PRIu64 "\n",
                nodes, eager.eager_restores, lazy.lazy_restores, eager_p99_ms, lazy_p99_ms,
                speedup, 100.0 * lazy.HitRate(), lazy.background_pages);
    body.BeginObject()
        .Field("nodes", nodes)
        .Field("rate_scale", point.RateScale(), 3)
        .Field("trace_duration_s", ToSeconds(point.duration), 1)
        .Field("requests", lazy_run.metrics.TotalRequests())
        .Field("eager_restores", eager.eager_restores)
        .Field("lazy_restores", lazy.lazy_restores)
        .Field("eager_p50_ms", PercentileMs(eager.critical_path_ms, 0.5), 3)
        .Field("eager_p99_ms", eager_p99_ms, 3)
        .Field("lazy_p50_ms", PercentileMs(lazy.critical_path_ms, 0.5), 3)
        .Field("lazy_p99_ms", lazy_p99_ms, 3)
        .Field("lazy_p99_speedup", speedup, 3)
        .Field("ws_hit_rate", lazy.HitRate(), 4)
        .Field("ws_fault_pages", lazy.ws_fault_pages)
        .Field("background_completions", lazy.background_completions)
        .Field("background_pages", lazy.background_pages)
        .EndObject();
  }
  body.EndArray();
  return WriteReport(out_path, "restore_latency", smoke, body) ? 0 : 1;
}

// ---------------------------------------------------------------------------
// trace_attribution
//
// Tracing on with deterministic head sampling (MEDES_TRACE_SAMPLE, default
// 1/4). Every sampled request's span tree is rebuilt (obs/critical_path.h)
// and its end-to-end interval attributed to stages by the left-to-right
// critical-path sweep. Reports:
//   - per-stage P50/P99 self-time with fractions of the total (the sweep
//     makes each trace's stage times sum exactly to its root duration, so
//     the fractions sum to ~1; the program exits 1 when they do not);
//   - the same attribution re-rooted at "restore_op" for dedup restores;
//   - the top-10 slowest sampled requests as full span trees.
// Span ids and sim-time stamps are deterministic, so the report and the
// Chrome trace are byte-identical at any MEDES_THREADS.
// ---------------------------------------------------------------------------

struct TraceArtifacts {
  std::vector<obs::Span> spans;
  std::vector<obs::TraceTree> trees;
  std::vector<obs::TraceAttribution> request_attrs;  // rooted at "request"
  std::vector<obs::TraceAttribution> restore_attrs;  // re-rooted at "restore_op"
  std::vector<size_t> request_trees;                 // tree index per request_attrs entry
  size_t unresolved_parents = 0;
};

const char* RootName(const std::vector<obs::Span>& spans, const obs::TraceTree& tree) {
  return spans[tree.nodes[tree.root].span].name;
}

void Analyze(TraceArtifacts& a) {
  a.trees = obs::BuildTraceTrees(a.spans);
  for (size_t t = 0; t < a.trees.size(); ++t) {
    const obs::TraceTree& tree = a.trees[t];
    a.unresolved_parents += tree.unresolved_parents;
    if (std::strcmp(RootName(a.spans, tree), "request") == 0) {
      a.request_attrs.push_back(obs::AttributeTrace(a.spans, tree));
      a.request_trees.push_back(t);
    }
    if (auto node = obs::FindNode(a.spans, tree, "restore_op")) {
      a.restore_attrs.push_back(obs::AttributeSubtree(a.spans, tree, *node));
    }
  }
}

// Sum of all per-stage self times divided by the sum of root durations; the
// sweep makes this exactly 1 whenever any trace has nonzero duration.
double FractionSum(const std::vector<obs::TraceAttribution>& attrs) {
  int64_t attributed = 0;
  int64_t total = 0;
  for (const obs::TraceAttribution& attr : attrs) {
    total += attr.total_us;
    for (const obs::StageSelf& stage : attr.stages) {
      attributed += stage.self_us;
    }
  }
  return total > 0 ? static_cast<double>(attributed) / static_cast<double>(total) : 1.0;
}

void WriteSummary(bench::JsonWriter& w, std::string_view key, const obs::AttributionSummary& s,
                  double fraction_sum) {
  w.BeginObject(key)
      .Field("traces", s.traces)
      .Field("total_us", s.total_us)
      .Field("p50_total_us", s.p50_total_us)
      .Field("p99_total_us", s.p99_total_us)
      .Field("attribution_fraction_sum", fraction_sum, 6);
  w.BeginArray("stages");
  for (const obs::StageStats& stage : s.stages) {
    w.BeginObject()
        .Field("stage", stage.stage)
        .Field("traces", stage.traces)
        .Field("total_us", stage.total_us)
        .Field("p50_us", stage.p50_us)
        .Field("p99_us", stage.p99_us)
        .Field("fraction", stage.fraction, 6)
        .EndObject();
  }
  w.EndArray().EndObject();
}

void WriteSpanTree(bench::JsonWriter& w, const TraceArtifacts& a, const obs::TraceTree& tree,
                   size_t node, std::string_view key = {}) {
  const obs::Span& span = a.spans[tree.nodes[node].span];
  w.BeginObject(key)
      .Field("name", span.name)
      .Field("ts_us", span.ts.value())
      .Field("dur_us", span.dur.value())
      .Field("span_id", span.span_id)
      .Field("parent_span_id", span.parent_span_id);
  w.BeginArray("children");
  for (size_t c : tree.nodes[node].children) {
    WriteSpanTree(w, a, tree, c);
  }
  w.EndArray().EndObject();
}

void PrintStages(const obs::AttributionSummary& s) {
  for (const obs::StageStats& stage : s.stages) {
    std::printf("%-28s traces=%-6" PRIu64 " p50=%-8" PRId64 " p99=%-8" PRId64 " frac=%.4f\n",
                stage.stage.c_str(), stage.traces, stage.p50_us, stage.p99_us, stage.fraction);
  }
}

int TraceAttribution(bool smoke, const std::string& out_path) {
  bench::Header("trace_analysis: critical-path attribution of sampled causal traces",
                smoke ? "smoke: 4-node Medes P2, 10 sim-minutes"
                      : "50-node Medes P2, 30 sim-minutes, rate scaled to match per-node load");

  // MEDES_TRACE_SAMPLE (parsed by the obs layer at first use) wins if set.
  obs::SetTraceEnabled(true);
  if (std::getenv("MEDES_TRACE_SAMPLE") == nullptr) {
    obs::SetTraceSampleEvery(4);
  }
  obs::Tracer::Default().Clear();

  const int nodes = smoke ? 4 : 50;
  const PointRun run = RunPoint({.nodes = nodes,
                                 .duration = smoke ? 10 * kMinute : 30 * kMinute,
                                 .objective = PolicyObjective::kCombined});
  const uint64_t total_requests = run.metrics.TotalRequests();

  TraceArtifacts a;
  a.spans = obs::Tracer::Default().Drain();
  Analyze(a);

  const obs::AttributionSummary requests = obs::Summarize(a.request_attrs, 10);
  const obs::AttributionSummary restores = obs::Summarize(a.restore_attrs, 10);
  const double request_fraction_sum = FractionSum(a.request_attrs);
  const double restore_fraction_sum = FractionSum(a.restore_attrs);

  std::printf("requests=%" PRIu64 " sampled_traces=%zu (every %u) spans=%zu "
              "unresolved_parents=%zu\n",
              total_requests, a.trees.size(), obs::TraceSampleEvery(), a.spans.size(),
              a.unresolved_parents);
  bench::Section("request attribution");
  PrintStages(requests);
  bench::Section("restore attribution (re-rooted at restore_op)");
  PrintStages(restores);
  std::printf("\nrestore p99=%" PRId64 "us fraction_sum(request)=%.6f fraction_sum(restore)=%.6f\n",
              restores.p99_total_us, request_fraction_sum, restore_fraction_sum);

  bench::JsonWriter w;
  w.Field("nodes", nodes);
  w.BeginObject("sampling")
      .Field("total_requests", total_requests)
      .Field("sample_every", obs::TraceSampleEvery())
      .Field("sampled_traces", a.trees.size())
      .Field("sampled_spans", a.spans.size())
      .Field("unresolved_parents", a.unresolved_parents)
      .EndObject();
  WriteSummary(w, "requests", requests, request_fraction_sum);
  WriteSummary(w, "restores", restores, restore_fraction_sum);
  w.BeginArray("top_slowest");
  for (size_t i : requests.top_slowest) {
    const obs::TraceAttribution& attr = a.request_attrs[i];
    const obs::TraceTree& tree = a.trees[a.request_trees[i]];
    w.BeginObject()
        .Field("trace_id", attr.trace_id)
        .Field("total_us", attr.total_us)
        .Field("unresolved_parents", tree.unresolved_parents);
    w.BeginArray("stages");
    for (const obs::StageSelf& stage : attr.stages) {
      w.BeginObject().Field("stage", stage.stage).Field("self_us", stage.self_us).EndObject();
    }
    w.EndArray();
    // The full span tree: every parent_span_id resolves within the tree by
    // construction (unresolved spans were re-attached under the root and
    // counted above).
    WriteSpanTree(w, a, tree, tree.root, "root");
    w.EndObject();
  }
  w.EndArray();
  const bool written = WriteReport(out_path, "trace_analysis", smoke, w);

  // The tracer is drained, so ExportObservability would see nothing: export
  // the same spans directly, under the name the CI trace checks expect.
  bench::WriteTextFile(bench::ObsPath("trace_analysis_trace.json"), obs::ChromeTraceJson(a.spans));

  const bool pass = !a.request_attrs.empty() && std::fabs(request_fraction_sum - 1.0) <= 0.01 &&
                    (a.restore_attrs.empty() || std::fabs(restore_fraction_sum - 1.0) <= 0.01);
  if (!pass) {
    std::fprintf(stderr, "FAIL: attribution gates not met\n");
  }
  return written && pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::StartWallClock();
  const std::pair<std::string_view, int (*)(bool, const std::string&)> campaigns[] = {
      {"cluster_scale", ClusterScale},
      {"restore_latency", RestoreLatency},
      {"trace_attribution", TraceAttribution},
  };
  const auto usage = [&] {
    std::fprintf(stderr, "usage: %s <campaign> [--smoke] [out.json]; the campaigns are:\n",
                 argv[0]);
    for (const auto& [name, run] : campaigns) {
      std::fprintf(stderr, "  %.*s\n", static_cast<int>(name.size()), name.data());
    }
    return 2;
  };

  const std::string_view name = argc > 1 ? argv[1] : "";
  const auto campaign = std::find_if(std::begin(campaigns), std::end(campaigns),
                                     [&](const auto& c) { return c.first == name; });
  if (campaign == std::end(campaigns)) {
    return usage();
  }
  bool smoke = false;
  std::string out_path;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (out_path.empty() && !arg.empty() && !arg.starts_with("-")) {
      out_path = arg;
    } else {
      return usage();
    }
  }
  if (out_path.empty()) {
    out_path = "BENCH_" + std::string(name) + ".json";
  }
  return campaign->second(smoke, out_path);
}
