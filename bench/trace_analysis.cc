// Critical-path attribution over sampled causal traces.
//
// Runs a 50-node Medes (P2 combined) cluster_scale-class workload with
// causal tracing enabled and head-based sampling (MEDES_TRACE_SAMPLE,
// default 1/4), reconstructs every sampled request's span tree
// (obs/critical_path.h), and attributes each request's end-to-end interval
// to stages via the left-to-right critical-path sweep. Reports:
//
//   - per-stage P50/P99 self-time attribution with fractions of the total
//     (the sweep guarantees per-trace stage times sum exactly to the root
//     duration, so fractions sum to ~1 — gated by check_bench_json);
//   - the same attribution re-rooted at "restore_op" for dedup restores,
//     compared against the restore spans' own measured durations;
//   - the top-10 slowest sampled requests as full span trees with
//     resolvable parent links (gated by check_bench_json).
//
// The trace sampling, span ids, and sim-time stamps are deterministic, so
// the JSON (modulo the metadata block) and the exported Chrome trace are
// byte-identical at any MEDES_THREADS — CI diffs 1 vs 4 threads.
//
// Usage: trace_analysis [output.json]     (default: BENCH_trace_attribution.json)
// Env:   MEDES_TRACE_ANALYSIS_MODE=smoke  CI config (4 nodes, 10 sim-minutes;
//                                         same JSON schema)
//        MEDES_TRACE_SAMPLE=N or 1/N      sampling rate (default here: 1/4)
//        MEDES_OBS_DIR                    where the Chrome trace lands
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/critical_path.h"

using namespace medes;

namespace {

struct TraceArtifacts {
  std::vector<obs::Span> spans;
  std::vector<obs::TraceTree> trees;
  std::vector<obs::TraceAttribution> request_attrs;   // rooted at "request"
  std::vector<obs::TraceAttribution> restore_attrs;   // re-rooted at "restore_op"
  std::vector<size_t> request_trees;                  // tree index per request_attrs entry
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

void WriteSummary(bench::JsonWriter& w, std::string_view key,
                  const obs::AttributionSummary& s, double fraction_sum) {
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

}  // namespace

int main(int argc, char** argv) {
  bench::StartWallClock();
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_trace_attribution.json";
  const char* mode_env = std::getenv("MEDES_TRACE_ANALYSIS_MODE");
  const bool smoke = mode_env != nullptr && std::string(mode_env) == "smoke";

  bench::Header("trace_analysis: critical-path attribution of sampled causal traces",
                smoke ? "smoke: 4-node Medes P2, 10 sim-minutes"
                      : "50-node Medes P2, 30 sim-minutes, rate scaled to match per-node load");

  // Tracing on, deterministic head sampling. MEDES_TRACE_SAMPLE (parsed by
  // the obs layer at first use) wins if set; default to 1-in-4 here.
  obs::SetTraceEnabled(true);
  if (std::getenv("MEDES_TRACE_SAMPLE") == nullptr) {
    obs::SetTraceSampleEvery(4);
  }
  obs::Tracer::Default().Clear();

  const int nodes = smoke ? 4 : 50;
  PlatformOptions options = bench::EvalOptions(PolicyKind::kMedes);
  options.cluster.num_nodes = nodes;
  options.medes.objective = PolicyObjective::kCombined;
  TraceOptions topts;
  topts.duration = smoke ? 10 * kMinute : 30 * kMinute;
  topts.rate_scale = 5.0 * static_cast<double>(nodes) / 19.0;
  const std::vector<TraceEvent> trace = GenerateTrace(DefaultAzurePatterns(), topts);

  ServerlessPlatform platform(options);
  const RunMetrics metrics = platform.Run(trace);

  TraceArtifacts a;
  a.spans = obs::Tracer::Default().Drain();
  Analyze(a);

  const obs::AttributionSummary requests = obs::Summarize(a.request_attrs, 10);
  const obs::AttributionSummary restores = obs::Summarize(a.restore_attrs, 10);
  const double request_fraction_sum = FractionSum(a.request_attrs);
  const double restore_fraction_sum = FractionSum(a.restore_attrs);

  std::printf("requests=%" PRIu64 " sampled_traces=%zu (every %u) spans=%zu "
              "unresolved_parents=%zu\n",
              metrics.TotalRequests(), a.trees.size(), obs::TraceSampleEvery(), a.spans.size(),
              a.unresolved_parents);
  bench::Section("request attribution");
  for (const obs::StageStats& s : requests.stages) {
    std::printf("%-28s traces=%-6" PRIu64 " p50=%-8" PRId64 " p99=%-8" PRId64 " frac=%.4f\n",
                s.stage.c_str(), s.traces, s.p50_us, s.p99_us, s.fraction);
  }
  bench::Section("restore attribution (re-rooted at restore_op)");
  for (const obs::StageStats& s : restores.stages) {
    std::printf("%-28s traces=%-6" PRIu64 " p50=%-8" PRId64 " p99=%-8" PRId64 " frac=%.4f\n",
                s.stage.c_str(), s.traces, s.p50_us, s.p99_us, s.fraction);
  }
  std::printf("\nrestore p99=%" PRId64 "us fraction_sum(request)=%.6f fraction_sum(restore)=%.6f\n",
              restores.p99_total_us, request_fraction_sum, restore_fraction_sum);

  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, "trace_analysis");
  w.Field("mode", smoke ? "smoke" : "full").Field("nodes", nodes);
  w.BeginObject("sampling")
      .Field("total_requests", metrics.TotalRequests())
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
  w.EndObject();

  bench::WriteTextFile(out_path, w.str() + "\n");

  // Chrome trace for the same spans (the tracer was already drained, so
  // ExportObservability would see nothing — export directly).
  const char* dir_env = std::getenv("MEDES_OBS_DIR");
  const std::string prefix = dir_env != nullptr ? std::string(dir_env) + "/" : std::string();
  bench::WriteTextFile(prefix + "trace_analysis_trace.json", obs::ChromeTraceJson(a.spans));

  const bool pass = !a.request_attrs.empty() && std::fabs(request_fraction_sum - 1.0) <= 0.01 &&
                    (a.restore_attrs.empty() || std::fabs(restore_fraction_sum - 1.0) <= 0.01);
  if (!pass) {
    std::fprintf(stderr, "FAIL: attribution gates not met\n");
  }
  return pass ? 0 : 1;
}
