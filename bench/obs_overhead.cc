// Observability overhead microbenchmark: what does MEDES_TRACE / MEDES_METRICS
// cost when off, and what does it cost when on?
//
//   micro  ns/op of the instrument hot paths — Counter::Add, Histogram::Record
//          and a ScopedSpan record — with the runtime knobs off and on. Off
//          must be a relaxed atomic load plus a predictable branch.
//   macro  pages/sec of the full dedup + restore pipeline (one base and
//          victims of every function profile, one thread) under three
//          settings: obs fully disabled, metrics only, metrics + tracing.
//
// Emits one JSON document on stdout. MEDES_OBS_GATE_RATIO, when set to a
// positive number, turns the benchmark into a regression gate: the run fails
// if the runtime-disabled macro throughput is more than that factor above the
// metrics+trace throughput (i.e. obs-on costs more than the gate allows).
// CI passes a generous factor; timing noise on shared runners is real.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"

using namespace medes;

namespace {

volatile uint64_t g_sink = 0;

// ns/op of `body(iters)` amortised over enough iterations to dwarf the clock.
template <typename Body>
double MeasureNsPerOp(Body&& body) {
  constexpr size_t kIters = 1 << 20;
  body(1024);  // warm up
  const auto t0 = std::chrono::steady_clock::now();
  body(kIters);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / static_cast<double>(kIters);
}

struct MicroResults {
  double counter_disabled_ns = 0;
  double counter_enabled_ns = 0;
  double histogram_enabled_ns = 0;
  double span_disabled_ns = 0;
  double span_enabled_ns = 0;
};

MicroResults RunMicro() {
  MicroResults r;
  obs::Counter& counter = obs::MetricsRegistry::Default().GetCounter("obs_overhead_counter_total");
  obs::Histogram& hist = obs::MetricsRegistry::Default().GetHistogram("obs_overhead_hist_us");

  obs::SetMetricsEnabled(false);
  r.counter_disabled_ns = MeasureNsPerOp([&](size_t iters) {
    for (size_t i = 0; i < iters; ++i) {
      counter.Add(1);
    }
    g_sink = g_sink + counter.Value();
  });
  obs::SetMetricsEnabled(true);
  r.counter_enabled_ns = MeasureNsPerOp([&](size_t iters) {
    for (size_t i = 0; i < iters; ++i) {
      counter.Add(1);
    }
    g_sink = g_sink + counter.Value();
  });
  r.histogram_enabled_ns = MeasureNsPerOp([&](size_t iters) {
    for (size_t i = 0; i < iters; ++i) {
      hist.Record(static_cast<int64_t>(i & 0xfff));
    }
    g_sink = g_sink + hist.Value().count;
  });
  obs::SetMetricsEnabled(false);

  obs::SetTraceEnabled(false);
  r.span_disabled_ns = MeasureNsPerOp([&](size_t iters) {
    for (size_t i = 0; i < iters; ++i) {
      obs::ScopedSpan span("obs_overhead/span", "bench", SimTime{static_cast<int64_t>(i)});
      span.SetSimDuration(SimDuration{1});
    }
  });
  obs::SetTraceEnabled(true);
  r.span_enabled_ns = MeasureNsPerOp([&](size_t iters) {
    for (size_t i = 0; i < iters; ++i) {
      obs::ScopedSpan span("obs_overhead/span", "bench", SimTime{static_cast<int64_t>(i)});
      span.SetSimDuration(SimDuration{1});
    }
  });
  obs::SetTraceEnabled(false);
  obs::Tracer::Default().Clear();
  obs::MetricsRegistry::Default().ResetValues();
  return r;
}

// One pipeline pass: dedup then restore every victim; returns pages/sec.
double RunMacroOnce(int victims_per_function) {
  ClusterOptions copts;
  copts.num_nodes = 2;
  copts.node_memory_mb = 1e9;
  copts.bytes_per_mb = 65536;
  Cluster cluster(copts);
  FingerprintRegistry registry;
  RdmaFabric fabric({.page_cache_capacity = 4096},
                    [&](const PageLocation& loc) { return cluster.ReadBasePage(loc); });
  DedupAgentOptions aopts;
  aopts.num_threads = 1;
  DedupAgent agent(cluster, registry, fabric, aopts);

  for (const auto& p : FunctionBenchProfiles()) {
    Sandbox& base = cluster.Spawn(p, NodeId{0}, SimTime{0});
    cluster.MarkWarm(base, SimTime{0});
    agent.DesignateBase(base);
  }
  std::vector<SandboxId> victims;
  for (int i = 0; i < victims_per_function; ++i) {
    for (const auto& p : FunctionBenchProfiles()) {
      Sandbox& sb = cluster.Spawn(p, NodeId{1}, SimTime{0});
      cluster.MarkWarm(sb, SimTime{0});
      victims.push_back(sb.id);
    }
  }

  size_t pages = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (SandboxId id : victims) {
    pages += agent.DedupOp(*cluster.Find(id), SimTime{1}).pages_total;
  }
  for (SandboxId id : victims) {
    agent.RestoreOp(*cluster.Find(id), SimTime{2}, /*verify=*/false);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  // Pipeline processed each page twice (dedup + restore).
  return secs > 0 ? 2.0 * static_cast<double>(pages) / secs : 0;
}

struct MacroResults {
  double disabled_pages_per_sec = 0;
  double metrics_pages_per_sec = 0;
  double trace_pages_per_sec = 0;  // metrics + tracing
};

MacroResults RunMacro() {
  constexpr int kVictims = 2;
  MacroResults r;
  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  RunMacroOnce(kVictims);  // warm up allocators and caches
  r.disabled_pages_per_sec = RunMacroOnce(kVictims);

  obs::SetMetricsEnabled(true);
  r.metrics_pages_per_sec = RunMacroOnce(kVictims);

  obs::SetTraceEnabled(true);
  r.trace_pages_per_sec = RunMacroOnce(kVictims);

  obs::SetMetricsEnabled(false);
  obs::SetTraceEnabled(false);
  obs::Tracer::Default().Clear();
  obs::MetricsRegistry::Default().ResetValues();
  return r;
}

}  // namespace

int main() {
  const MicroResults micro = RunMicro();
  const MacroResults macro = RunMacro();
  const double overhead_ratio = macro.trace_pages_per_sec > 0
                                    ? macro.disabled_pages_per_sec / macro.trace_pages_per_sec
                                    : 0;

  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, "obs_overhead");
  w.BeginObject("micro_ns_per_op")
      .Field("counter_add_disabled", micro.counter_disabled_ns)
      .Field("counter_add_enabled", micro.counter_enabled_ns)
      .Field("histogram_record_enabled", micro.histogram_enabled_ns)
      .Field("scoped_span_disabled", micro.span_disabled_ns)
      .Field("scoped_span_enabled", micro.span_enabled_ns)
      .EndObject();
  w.BeginObject("macro_pages_per_sec")
      .Field("obs_disabled", macro.disabled_pages_per_sec, 0)
      .Field("metrics_only", macro.metrics_pages_per_sec, 0)
      .Field("metrics_and_trace", macro.trace_pages_per_sec, 0)
      .EndObject();
  w.Field("macro_overhead_ratio", overhead_ratio, 3);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());

  const char* gate = std::getenv("MEDES_OBS_GATE_RATIO");
  if (gate != nullptr) {
    const double max_ratio = std::strtod(gate, nullptr);
    if (max_ratio > 0 && overhead_ratio > max_ratio) {
      std::fprintf(stderr, "obs overhead ratio %.3f exceeds gate %.3f\n", overhead_ratio,
                   max_ratio);
      return 1;
    }
  }
  return 0;
}
