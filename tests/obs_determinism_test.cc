// The observability determinism contract: for a fixed trace and platform
// configuration, the exported artifacts (metrics JSON, Chrome trace JSON)
// are byte-identical regardless of how many worker threads the dedup agent
// uses.  Spans carry sim-time timestamps and metrics are order-independent
// accumulations, so MEDES_THREADS must not leak into any export.
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/critical_path.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "platform/platform.h"

namespace medes {
namespace {

struct Artifacts {
  std::string metrics_json;
  std::string chrome_trace;
};

PlatformOptions FastOptions(size_t agent_threads) {
  PlatformOptions opts = MakePlatformOptions(PolicyKind::kMedes);
  opts.cluster.num_nodes = 4;
  opts.cluster.node_memory_mb = 1024;
  opts.cluster.bytes_per_mb = 4096;  // small images: fast tests
  opts.medes.idle_period = 30 * kSecond;
  opts.medes.alpha = 8.0;
  opts.agent.num_threads = agent_threads;
  return opts;
}

Artifacts RunAndExport(size_t agent_threads, const std::vector<TraceEvent>& trace) {
  obs::MetricsRegistry::Default().ResetValues();
  obs::Tracer::Default().Clear();
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(true);

  ServerlessPlatform platform(FastOptions(agent_threads));
  platform.Run(trace);

  Artifacts out;
  out.metrics_json = obs::MetricsJson(obs::MetricsRegistry::Default().Snapshot());
  out.chrome_trace = obs::ChromeTraceJson(obs::Tracer::Default().Drain());

  obs::MetricsRegistry::Default().ResetValues();
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  return out;
}

TEST(ObsDeterminismTest, ExportsBitIdenticalAcrossThreadCounts) {
  TraceOptions topts;
  topts.duration = 5 * kMinute;
  topts.rate_scale = 2.0;
  const auto trace = GenerateTrace(DefaultAzurePatterns(), topts);

  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  const Artifacts serial = RunAndExport(1, trace);

  // A run produces real data, not empty exports.
  EXPECT_NE(serial.metrics_json.find("medes_dedup_ops_total"), std::string::npos);
  EXPECT_NE(serial.chrome_trace.find("restore/criu_rebuild"), std::string::npos);

  for (size_t threads : {size_t{4}, hw}) {
    const Artifacts parallel = RunAndExport(threads, trace);
    EXPECT_EQ(serial.metrics_json, parallel.metrics_json) << "threads=" << threads;
    EXPECT_EQ(serial.chrome_trace, parallel.chrome_trace) << "threads=" << threads;
  }
}

// One sampled run: the Chrome trace JSON (ids included) plus a canonical
// serialization of every sampled trace's parent/child structure — trace id,
// root, and each node's children in recorded order — so link-order identity
// is asserted directly, not just via the flat export.
struct SampledArtifacts {
  std::string chrome_trace;
  std::string linkage;
  size_t traces = 0;
};

SampledArtifacts RunSampled(size_t agent_threads, unsigned sample_every,
                            const std::vector<TraceEvent>& trace) {
  obs::MetricsRegistry::Default().ResetValues();
  obs::Tracer::Default().Clear();
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(true);
  obs::SetTraceSampleEvery(sample_every);

  ServerlessPlatform platform(FastOptions(agent_threads));
  platform.Run(trace);

  SampledArtifacts out;
  const std::vector<obs::Span> spans = obs::Tracer::Default().Drain();
  out.chrome_trace = obs::ChromeTraceJson(spans);
  for (const obs::TraceTree& tree : obs::BuildTraceTrees(spans)) {
    ++out.traces;
    out.linkage += std::to_string(tree.trace_id) + " root=" + std::to_string(tree.root);
    for (const obs::TraceNode& node : tree.nodes) {
      out.linkage += " " + std::string(spans[node.span].name) + "(" +
                     std::to_string(spans[node.span].span_id) + "<-" +
                     std::to_string(spans[node.span].parent_span_id) + "):[";
      for (size_t c : node.children) {
        out.linkage += std::to_string(c) + ",";
      }
      out.linkage += "]";
    }
    out.linkage += "\n";
  }

  obs::MetricsRegistry::Default().ResetValues();
  obs::SetTraceSampleEvery(1);
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  return out;
}

// The satellite contract for MEDES_TRACE_SAMPLE: the sampled span set, its
// ids, and every parent/child link come out byte-identical at any thread
// count and across runs.
TEST(ObsDeterminismTest, SampledTracesBitIdenticalAcrossThreadCounts) {
  TraceOptions topts;
  topts.duration = 8 * kMinute;
  topts.rate_scale = 2.0;
  const auto trace = GenerateTrace(DefaultAzurePatterns(), topts);

  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  const SampledArtifacts serial = RunSampled(1, 4, trace);
  EXPECT_GT(serial.traces, 0u);
  EXPECT_NE(serial.chrome_trace.find("\"trace_id\":"), std::string::npos);
  EXPECT_NE(serial.chrome_trace.find("\"parent_span_id\":"), std::string::npos);

  // 1-in-4 head sampling really drops traces: an unsampled run sees more.
  const SampledArtifacts unsampled = RunSampled(1, 1, trace);
  EXPECT_GT(unsampled.traces, serial.traces);

  for (size_t threads : {size_t{4}, hw}) {
    const SampledArtifacts parallel = RunSampled(threads, 4, trace);
    EXPECT_EQ(serial.chrome_trace, parallel.chrome_trace) << "threads=" << threads;
    EXPECT_EQ(serial.linkage, parallel.linkage) << "threads=" << threads;
  }
}

TEST(ObsDeterminismTest, SampledTracesBitIdenticalAcrossRuns) {
  TraceOptions topts;
  topts.duration = 5 * kMinute;
  topts.rate_scale = 2.0;
  const auto trace = GenerateTrace(DefaultAzurePatterns(), topts);
  const SampledArtifacts a = RunSampled(2, 4, trace);
  const SampledArtifacts b = RunSampled(2, 4, trace);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
  EXPECT_EQ(a.linkage, b.linkage);
}

// Every component registers the series it records when it is constructed,
// so the first run in a process (each test runs in a fresh one) exports
// exactly what a later run of the same trace does.
TEST(ObsDeterminismTest, RepeatedRunsAreBitIdentical) {
  TraceOptions topts;
  topts.duration = 3 * kMinute;
  topts.rate_scale = 2.0;
  const auto trace = GenerateTrace(DefaultAzurePatterns(), topts);
  const Artifacts a = RunAndExport(2, trace);
  const Artifacts b = RunAndExport(2, trace);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.chrome_trace, b.chrome_trace);
}

TEST(ObsDeterminismTest, SpanCoverageIncludesAllPipelineStages) {
  TraceOptions topts;
  topts.duration = 8 * kMinute;
  topts.rate_scale = 2.0;
  const auto trace = GenerateTrace(DefaultAzurePatterns(), topts);
  const Artifacts run = RunAndExport(2, trace);
  // Dedup pipeline stages.
  for (const char* stage : {"dedup_op", "dedup/checkpoint", "dedup/fingerprint",
                            "dedup/registry_lookup", "dedup/base_read", "dedup/delta_encode",
                            "dedup/merge"}) {
    EXPECT_NE(run.chrome_trace.find(stage), std::string::npos) << stage;
  }
  // Restore stages: the paper's Fig. 8 breakdown, lazy-mode naming (the
  // default restore mode batches the working-set fetch), plus the deferred
  // background completion span.
  for (const char* stage : {"restore_op", "restore/ws_fetch", "restore/patch_apply",
                            "restore/criu_rebuild", "restore/bg_fault"}) {
    EXPECT_NE(run.chrome_trace.find(stage), std::string::npos) << stage;
  }
  // Platform lifecycle events.
  for (const char* name : {"request", "spawn"}) {
    EXPECT_NE(run.chrome_trace.find(name), std::string::npos) << name;
  }
}

TEST(ObsDeterminismTest, EagerModeEmitsBaseReadSpans) {
  TraceOptions topts;
  topts.duration = 8 * kMinute;
  topts.rate_scale = 2.0;
  const auto trace = GenerateTrace(DefaultAzurePatterns(), topts);
  obs::MetricsRegistry::Default().ResetValues();
  obs::Tracer::Default().Clear();
  obs::SetMetricsEnabled(true);
  obs::SetTraceEnabled(true);
  PlatformOptions opts = FastOptions(2);
  opts.agent.restore_mode = RestoreMode::kEager;
  ServerlessPlatform platform(opts);
  platform.Run(trace);
  const std::string chrome_trace = obs::ChromeTraceJson(obs::Tracer::Default().Drain());
  obs::MetricsRegistry::Default().ResetValues();
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  for (const char* stage :
       {"restore_op", "restore/base_read", "restore/patch_apply", "restore/criu_rebuild"}) {
    EXPECT_NE(chrome_trace.find(stage), std::string::npos) << stage;
  }
  EXPECT_EQ(chrome_trace.find("restore/ws_fetch"), std::string::npos);
  EXPECT_EQ(chrome_trace.find("restore/bg_fault"), std::string::npos);
}

}  // namespace
}  // namespace medes
