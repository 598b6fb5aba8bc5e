// The Medes simulator benchmark: one binary, three workloads.
//
//   medes_perfbench --workload <medes_p2|keepalive|agent_pipeline>
//                   --seed N --seconds S --trace 0|1 [--spans FILE]
//
// The workloads, the metrics and why each workload exists are documented in
// README.md next to this file. The binary drives the shipped libraries
// through their public headers only and never touches kernel dispatch: the
// tier that runs is whatever the library binds on its own (see README.md,
// "What is measured").
//
// Output: every line but the last is a human-readable report (one JSON
// object with the modelled results, their digest, the checks and the run's
// metadata). The last line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0, or the per-layer metrics
// with --trace 1. The exit code is 0 only when every correctness check held.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/kernels/cpu_features.h"
#include "medes.h"

using namespace medes;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Host time is this process's CPU time. The pipeline is pinned to one thread
// and runs inline, so it is all the work the program does; unlike wall time,
// it does not grow while another tenant of a shared machine holds the core.
// Wall time only bounds how long a run lasts.
int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double CpuSeconds() { return static_cast<double>(CpuNs()) * 1e-9; }

// ---------------------------------------------------------------------------
// Inputs: the workload seed is expanded here, not with the library's own RNG,
// so a change to the program never changes what the benchmark feeds it.
// ---------------------------------------------------------------------------

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// FNV-1a over 64-bit words: the digest of a workload's modelled output.
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  void AddDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  void Add(SimDuration d) { Add(static_cast<uint64_t>(d.value())); }
  void Add(SimTime t) { Add(static_cast<uint64_t>(t.value())); }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// Host time of work that was repeated identically: the fastest repetition.
// Interference from other tenants of a shared machine only ever adds time,
// so the minimum is the steadiest estimate of what the work itself costs.
double Fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

// Nearest-rank percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Spans, recorded from this file around each call into a layer (--trace 1).
// Kept in memory and written out as Chrome trace-event JSON at the end. A
// span's self time is its duration minus its children's; the root span's
// self time is what no layer span covers ("unattributed").
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  struct Span {
    const char* layer;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_ns_(CpuNs()) {}

  bool enabled() const { return enabled_; }

  int Begin(const char* layer, const char* name) {
    spans_.push_back({layer, name, NowNs(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    current_ = spans_[static_cast<size_t>(id)].parent;
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer, in seconds. The root layer's entry is the
  // unattributed remainder. Returns false when spans do not nest (a child
  // outlasting its parent), which would make the breakdown meaningless.
  bool SelfSecondsByLayer(std::map<std::string, double>* out) const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    bool nested = true;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const int64_t self = spans_[i].end_ns - spans_[i].start_ns - child_ns[i];
      nested = nested && self >= 0;
      (*out)[spans_[i].layer] += static_cast<double>(self) * 1e-9;
    }
    return nested;
  }

  // Summed duration of spans named `layer`/`name`, in seconds.
  double Seconds(const char* layer, const char* name) const {
    int64_t total = 0;
    for (const Span& s : spans_) {
      if (std::strcmp(s.layer, layer) == 0 && std::strcmp(s.name, name) == 0) {
        total += s.end_ns - s.start_ns;
      }
    }
    return static_cast<double>(total) * 1e-9;
  }

  std::string ChromeJson() const {
    std::string out = "{\"traceEvents\":[";
    char buf[256];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%d}}",
                    i == 0 ? "" : ",", s.name, s.layer, static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent);
      out += buf;
    }
    out += "]}\n";
    return out;
  }

 private:
  int64_t NowNs() const { return CpuNs() - origin_ns_; }

  bool enabled_;
  int64_t origin_ns_;
  std::vector<Span> spans_;
  int current_ = -1;
};

// RAII span; a no-op when tracing is off.
class Scope {
 public:
  Scope(SpanLog& log, const char* layer, const char* name)
      : log_(log), id_(log.enabled() ? log.Begin(layer, name) : -1) {}
  ~Scope() {
    if (id_ >= 0) {
      log_.End(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// Cost of recording one span, measured on a scratch log. Multiplied by the
// spans a traced run recorded, it is the share of the traced host time the
// tracing itself took.
double SecondsPerSpan() {
  SpanLog scratch(true);
  constexpr int kSpans = 20000;
  const double t0 = CpuSeconds();
  for (int i = 0; i < kSpans; ++i) {
    Scope s(scratch, "obs", "probe");
  }
  return (CpuSeconds() - t0) / kSpans;
}

// ---------------------------------------------------------------------------
// Result reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Fail(uint64_t count, const std::string& why) {
    failed += count;
    if (problems.size() < 16) {
      problems.push_back(why);
    }
  }
};

std::string ProblemsJson(const Outcome& o) {
  std::string out = "[";
  for (size_t i = 0; i < o.problems.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + o.problems[i] + "\"";
  }
  return out + "]";
}

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
  // Pinned dedup pipeline width: one thread runs the pool inline, so process
  // CPU time is exactly the program's work. Recorded in the report.
  size_t threads = 1;
};

// Shared tail of every workload's report: end-to-end or per-layer metrics.
struct Report {
  std::vector<Metric> end_to_end;
  std::map<std::string, double> per_layer;  // units come from PerLayerNames
  std::vector<Metric> modelled;  // report line only (deterministic per seed)
  std::string digest;
  std::string details;  // extra JSON fields for the report line
};

// ---------------------------------------------------------------------------
// Campaign workloads: medes_p2 and keepalive.
// ---------------------------------------------------------------------------

struct CampaignSpec {
  PolicyKind policy;
  int nodes;
  SimDuration duration;
};

// The evaluation cluster of bench/bench_util.h's EvalOptions (paper Section
// 7.1/7.2), restated here so that the benchmark's inputs do not move when the
// paper-figure benches are edited.
PlatformOptions CampaignOptions(const CampaignSpec& spec, size_t threads) {
  PlatformOptions options = MakePlatformOptions(spec.policy);
  options.cluster.num_nodes = spec.nodes;
  options.cluster.node_memory_mb = 2048;
  options.cluster.bytes_per_mb = 8192;
  options.medes.idle_period = 30 * kSecond;
  options.medes.keep_dedup = 15 * kMinute;
  options.medes.objective = PolicyObjective::kCombined;  // P2
  options.medes.alpha = 20.0;
  options.fixed_keep_alive = 10 * kMinute;
  options.agent.num_threads = threads;
  return options;
}

// One Azure-like trace (the generator's own default seed), rotated in time by
// a seed-chosen offset: the arrivals from the offset on come first, then the
// ones before it, wrapped to the end. Every seed replays the same bursts and
// idle gaps from a different starting point. Independent traces per seed
// would not do here: the dedup work per request, which sets medes_p2's host
// time, had a quartile spread of 0.17 across independently drawn traces and
// 0.04 across rotations of one trace (README.md, "Workloads").
std::vector<TraceEvent> CampaignTrace(const CampaignSpec& spec, uint64_t seed) {
  TraceOptions topts;
  topts.duration = spec.duration;
  // Per-node load of the paper's 19-worker setup at its 5x magnification.
  topts.rate_scale = 5.0 * static_cast<double>(spec.nodes) / 19.0;
  const std::vector<TraceEvent> base = GenerateTrace(DefaultAzurePatterns(), topts);
  uint64_t state = seed;
  const SimDuration offset{static_cast<int64_t>(
      SplitMix(state) % static_cast<uint64_t>(spec.duration.value()))};
  const SimTime cut = SimTime{0} + offset;
  const auto split = std::lower_bound(
      base.begin(), base.end(), cut, [](const TraceEvent& e, SimTime t) { return e.time < t; });
  std::vector<TraceEvent> trace;
  trace.reserve(base.size());
  for (auto it = split; it != base.end(); ++it) {
    trace.push_back({it->time - offset, it->function});
  }
  for (auto it = base.begin(); it != split; ++it) {
    trace.push_back({it->time + (spec.duration - offset), it->function});
  }
  return trace;
}

// Digest of everything a campaign models: the request stream and the memory
// timeline.
std::string CampaignDigest(const RunMetrics& m) {
  Digest d;
  for (const RequestRecord& r : m.requests) {
    d.Add(static_cast<uint64_t>(r.function));
    d.Add(r.arrival);
    d.Add(static_cast<uint64_t>(r.start));
    d.Add(r.startup);
    d.Add(r.e2e);
  }
  for (const MemorySample& s : m.memory_timeline) {
    d.Add(s.time);
    d.AddDouble(s.used_mb);
    d.Add(s.sandboxes);
    d.Add(s.warm);
    d.Add(s.dedup);
    d.Add(s.bases);
  }
  return d.Hex();
}

// The campaign's correctness checks. A failed check counts the trace's
// requests (or the missing ones) as failed.
void CheckCampaign(const std::vector<TraceEvent>& trace, const RunMetrics& m,
                   ServerlessPlatform& platform, Outcome& outcome) {
  const uint64_t expected = trace.size();
  uint64_t by_record[3] = {0, 0, 0};
  for (const RequestRecord& r : m.requests) {
    ++by_record[static_cast<size_t>(r.start)];
  }
  uint64_t warm = 0, dedup = 0, cold = 0;
  for (const FunctionMetrics& f : m.per_function) {
    warm += f.warm_starts;
    dedup += f.dedup_starts;
    cold += f.cold_starts;
  }
  if (m.requests.size() != expected) {
    const uint64_t missing =
        expected > m.requests.size() ? expected - m.requests.size() : m.requests.size() - expected;
    outcome.Fail(missing, "completed requests != trace length");
  }
  if (warm + dedup + cold != m.requests.size() ||
      by_record[static_cast<size_t>(StartType::kWarm)] != warm ||
      by_record[static_cast<size_t>(StartType::kDedup)] != dedup ||
      by_record[static_cast<size_t>(StartType::kCold)] != cold) {
    outcome.Fail(expected, "warm + dedup + cold start counts disagree with the request records");
  }
  Cluster& cluster = platform.cluster();
  for (int i = 0; i < cluster.NumNodes(); ++i) {
    const NodeId node{i};
    const double recomputed = cluster.RecomputeNodeUsedMb(node);
    if (std::fabs(cluster.node(node).used_mb - recomputed) > 1e-6 * std::max(1.0, recomputed)) {
      outcome.Fail(expected, "node used MB != Cluster::RecomputeNodeUsedMb");
      break;
    }
  }
}

Report RunCampaign(const Config& cfg, const CampaignSpec& spec, SpanLog& spans, Outcome& outcome) {
  const auto start = Clock::now();
  std::vector<double> generate_s, construct_s, run_s;
  std::string digest;
  std::optional<RunMetrics> first;
  uint64_t events = 0, trace_len = 0;
  int reps = 0;
  while (reps < 3 || SecondsBetween(start, Clock::now()) < cfg.seconds) {
    std::vector<TraceEvent> trace;
    std::unique_ptr<ServerlessPlatform> platform;
    // Set-up is short, so it is repeated within each repetition.
    for (int i = 0; i < 3; ++i) {
      platform.reset();
      const double t0 = CpuSeconds();
      {
        Scope s(spans, "workload", "generate");
        trace = CampaignTrace(spec, cfg.seed);
      }
      const double t1 = CpuSeconds();
      {
        Scope s(spans, "platform", "construct");
        platform = std::make_unique<ServerlessPlatform>(CampaignOptions(spec, cfg.threads));
      }
      generate_s.push_back(t1 - t0);
      construct_s.push_back(CpuSeconds() - t1);
    }
    const double t2 = CpuSeconds();
    RunMetrics metrics;
    {
      Scope s(spans, "platform", "run");
      metrics = platform->Run(trace);
    }
    run_s.push_back(CpuSeconds() - t2);
    {
      Scope s(spans, "bench", "check");
      outcome.attempted += trace.size();
      CheckCampaign(trace, metrics, *platform, outcome);
      const std::string d = CampaignDigest(metrics);
      if (digest.empty()) {
        digest = d;
        trace_len = trace.size();
        events = platform->sim().stats().fired;
        first = std::move(metrics);
      } else if (d != digest) {
        outcome.Fail(trace.size(), "modelled digest differs between repetitions of one seed");
      }
    }
    {
      Scope s(spans, "platform", "teardown");
      platform.reset();
    }
    ++reps;
  }
  const RunMetrics& m = *first;

  // Modelled results (identical in every repetition; checked by the digest).
  const double requests = static_cast<double>(m.TotalRequests());
  std::vector<double> dedup_start_ms;
  for (const RequestRecord& r : m.requests) {
    if (r.start == StartType::kDedup) {
      dedup_start_ms.push_back(ToMillis(r.startup));
    }
  }
  double saved_mb = 0;
  uint64_t pages_deduped = 0;
  for (const FunctionMetrics& f : m.per_function) {
    saved_mb += f.total_saved_mb;
    pages_deduped += f.total_pages_deduped;
  }
  const double cold_start_rate = Ratio(static_cast<double>(m.TotalColdStarts()), requests);
  const double p50 = Percentile(dedup_start_ms, 0.50);
  const double p99 = Percentile(dedup_start_ms, 0.99);

  Report r;
  r.digest = digest;
  r.modelled = {
      {"cold_start_rate", cold_start_rate, "ratio"},
      {"mean_memory_mb", m.MeanMemoryMb(), "MB"},
      {"dedup_start_p50_ms", p50, "sim_ms"},
      {"dedup_start_p99_ms", p99, "sim_ms"},
      {"dedup_starts", static_cast<double>(dedup_start_ms.size()), "count"},
      {"dedup_saved_mb", saved_mb, "MB"},
  };
  const double run = Fastest(run_s);
  r.end_to_end = {
      {"requests_per_s", static_cast<double>(trace_len) / run, "1/s"},
      {"setup_s", Fastest(generate_s) + Fastest(construct_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  const TransportStats& net = m.transport;
  r.per_layer = {
      {"workload.generate_s", Fastest(generate_s)},
      {"workload.requests", static_cast<double>(trace_len)},
      {"platform.construct_s", Fastest(construct_s)},
      {"platform.run_s", run},
      {"platform.spawns", static_cast<double>(m.sandboxes_spawned)},
      {"platform.evictions", static_cast<double>(m.evictions)},
      {"platform.dedup_ops", static_cast<double>(m.dedup_ops)},
      {"platform.restores", static_cast<double>(m.restores)},
      {"platform.base_designations", static_cast<double>(m.base_designations)},
      {"platform.cold_start_rate", cold_start_rate},
      {"platform.mean_memory_mb", m.MeanMemoryMb()},
      {"platform.dedup_start_p50_ms", p50},
      {"platform.dedup_start_p99_ms", p99},
      {"sim.events", static_cast<double>(events)},
      {"sim.ns_per_event", Ratio(run * 1e9, static_cast<double>(events))},
      {"registry.lookups", static_cast<double>(m.registry.lookups)},
      {"registry.key_hits_per_lookup",
       Ratio(static_cast<double>(m.registry.key_hits), static_cast<double>(m.registry.lookups))},
      {"rdma.cache_hit_rate", m.rdma.CacheHitRate()},
      {"rdma.remote_reads", static_cast<double>(m.rdma.remote_reads)},
      {"rdma.batch_messages", static_cast<double>(m.rdma.batch_messages)},
      {"dedupagent.ws_hit_rate",
       Ratio(static_cast<double>(m.lazy_restore.ws_hit_pages),
             static_cast<double>(m.lazy_restore.ws_touched_pages))},
      {"dedupagent.background_pages", static_cast<double>(m.lazy_restore.background_pages)},
      {"dedupagent.dedup_pages", static_cast<double>(pages_deduped)},
      {"net.messages", static_cast<double>(net.TotalMessages())},
      {"net.bytes", static_cast<double>(net.TotalBytes())},
      {"net.dropped", static_cast<double>(net.TotalDropped())},
  };
  r.details = "\"repetitions\": " + std::to_string(reps) +
              ", \"requests_per_rep\": " + std::to_string(trace_len) +
              ", \"sim_events\": " + std::to_string(events) + ", \"run_s\": [";
  for (size_t i = 0; i < run_s.size(); ++i) {
    r.details += (i == 0 ? "" : ", ") + Num(run_s[i]);
  }
  r.details += "]";
  return r;
}

// ---------------------------------------------------------------------------
// agent_pipeline: DedupAgent driven directly (closed loop, one caller).
// ---------------------------------------------------------------------------

// Every FunctionBench profile gets one base on node 0; kVictimsPerFunction
// sandboxes of each profile sit on seed-chosen nodes 1..3.
constexpr int kAgentNodes = 4;
constexpr int kVictimsPerFunction = 2;
constexpr int kRoundsPerEpisode = 2;
constexpr size_t kAgentBytesPerMb = 65536;  // as bench/pipeline_throughput

// The base-page read cache of the platform's default options.
RdmaOptions CachedRdma() {
  RdmaOptions options;
  options.page_cache_capacity = 4096;
  return options;
}

struct AgentWorld {
  explicit AgentWorld(const ClusterOptions& copts, size_t threads)
      : cluster(copts),
        fabric(CachedRdma(),
               [this](const PageLocation& loc) { return cluster.ReadBasePage(loc); }),
        agent(cluster, registry, fabric, AgentOptions(threads)) {}

  static DedupAgentOptions AgentOptions(size_t threads) {
    DedupAgentOptions options;
    options.num_threads = threads;
    return options;
  }

  Cluster cluster;
  FingerprintRegistry registry;
  RdmaFabric fabric;
  DedupAgent agent;
  std::vector<SandboxId> victims;
};

// Counters from one stage-by-stage pass (the write path, then decode).
struct StagePass {
  size_t pages_total = 0;
  size_t pages_zero = 0;
  size_t resident = 0;
  size_t pages_read = 0;
  size_t pages_encoded = 0;
  size_t pages_deduped = 0;
  size_t patch_bytes = 0;
  bool decode_ok = true;
};

// Re-runs DedupOp's pipeline one layer call at a time against a copy of the
// registry and a private fabric (so the agent's own state and modelled
// results are untouched), timing each layer with a span. It must reproduce
// DedupOp's page counts and patch bytes exactly; the decode stage must give
// back every page.
StagePass RunStagePass(AgentWorld& w, const Sandbox& sb, FingerprintRegistry& registry,
                       RdmaFabric& fabric, const PageFingerprinter& fingerprinter,
                       SpanLog& spans) {
  const DedupAgentOptions& opts = w.agent.options();
  StagePass p;
  MemoryImage image;
  {
    Scope s(spans, "memstate", "build_image");
    image = w.cluster.BuildImage(sb);
  }
  MemoryCheckpoint cp;
  {
    Scope s(spans, "checkpoint", "capture");
    cp = MemoryCheckpoint::Capture(image);
  }
  p.pages_total = cp.NumPages();
  p.pages_zero = cp.NumZero();
  std::vector<size_t> resident;
  for (size_t page = 0; page < cp.NumPages(); ++page) {
    if (cp.SlotState(page) == PageSlotState::kResident) {
      resident.push_back(page);
    }
  }
  p.resident = resident.size();
  std::vector<PageFingerprint> fps(resident.size());
  {
    Scope s(spans, "chunking", "fingerprint");
    for (size_t i = 0; i < resident.size(); ++i) {
      fps[i] = fingerprinter.FingerprintPage(cp.PageData(resident[i]));
    }
  }
  std::vector<std::vector<BasePageCandidate>> candidates;
  {
    Scope s(spans, "registry", "find");
    const size_t batch = std::max<size_t>(opts.lookup_batch_pages, 1);
    for (size_t lo = 0; lo < fps.size(); lo += batch) {
      const size_t hi = std::min(fps.size(), lo + batch);
      SimDuration cost;
      const auto batch_fps = std::span<const PageFingerprint>(fps).subspan(lo, hi - lo);
      auto out = registry.FindBasePagesBatch(batch_fps, sb.node, sb.id,
                                             opts.max_base_pages_per_page, &cost);
      for (auto& c : out) {
        candidates.push_back(std::move(c));
      }
    }
  }
  std::vector<PageLocation> locations;
  for (const auto& c : candidates) {
    for (const BasePageCandidate& b : c) {
      locations.push_back(b.location);
    }
  }
  std::vector<std::vector<uint8_t>> read;
  {
    Scope s(spans, "rdma", "read");
    SimDuration cost;
    read = fabric.ReadPageBatch(locations, sb.node, &cost);
  }
  p.pages_read = locations.size();
  std::vector<std::vector<uint8_t>> bases(resident.size());
  for (size_t i = 0, k = 0; i < resident.size(); ++i) {
    for (size_t j = 0; j < candidates[i].size(); ++j, ++k) {
      bases[i].insert(bases[i].end(), read[k].begin(), read[k].end());
    }
  }
  std::vector<std::vector<uint8_t>> patches(resident.size());
  {
    Scope s(spans, "delta", "encode");
    DeltaScratch scratch;
    std::vector<uint8_t> buf;
    for (size_t i = 0; i < resident.size(); ++i) {
      if (candidates[i].empty()) {
        continue;
      }
      ++p.pages_encoded;
      try {
        DeltaEncodeInto(bases[i], cp.PageData(resident[i]), opts.delta, buf, &scratch);
      } catch (const DeltaError&) {
        continue;
      }
      if (static_cast<double>(buf.size()) >
          opts.patch_accept_max_ratio * static_cast<double>(kPageSize)) {
        continue;
      }
      patches[i] = buf;
      ++p.pages_deduped;
      p.patch_bytes += buf.size();
    }
  }
  {
    Scope s(spans, "delta", "decode");
    std::vector<uint8_t> out;
    for (size_t i = 0; i < resident.size(); ++i) {
      if (patches[i].empty()) {
        continue;
      }
      DeltaDecodeInto(bases[i], patches[i], out);
      const auto page = cp.PageData(resident[i]);
      p.decode_ok = p.decode_ok && out.size() == page.size() &&
                    std::memcmp(out.data(), page.data(), out.size()) == 0;
    }
  }
  return p;
}

// Reconstructs a deduplicated sandbox's image from its checkpoint and patch
// records, reading bases straight from the cluster, and compares it with
// Cluster::BuildImage. Outside the timed region.
bool DedupCheckpointRestores(const Cluster& cluster, const Sandbox& sb) {
  if (!sb.checkpoint.has_value()) {
    return false;
  }
  const MemoryCheckpoint& cp = *sb.checkpoint;
  const MemoryImage expected = cluster.BuildImage(sb);
  if (expected.NumPages() != cp.NumPages()) {
    return false;
  }
  std::vector<const PatchRecord*> record_of(cp.NumPages(), nullptr);
  for (const PatchRecord& rec : sb.patches) {
    record_of[rec.page.value()] = &rec;
  }
  std::vector<uint8_t> out;
  std::vector<uint8_t> base;
  for (size_t page = 0; page < cp.NumPages(); ++page) {
    const auto want = expected.Page(page);
    switch (cp.SlotState(page)) {
      case PageSlotState::kZero:
        if (std::any_of(want.begin(), want.end(), [](uint8_t b) { return b != 0; })) {
          return false;
        }
        break;
      case PageSlotState::kResident: {
        const auto have = cp.PageData(page);
        if (std::memcmp(have.data(), want.data(), kPageSize) != 0) {
          return false;
        }
        break;
      }
      case PageSlotState::kPatched: {
        if (record_of[page] == nullptr) {
          return false;
        }
        base.clear();
        for (const PageLocation& loc : record_of[page]->bases) {
          const std::vector<uint8_t> one = cluster.ReadBasePage(loc);
          base.insert(base.end(), one.begin(), one.end());
        }
        DeltaDecodeInto(base, cp.PatchData(page), out);
        if (out.size() != kPageSize || std::memcmp(out.data(), want.data(), kPageSize) != 0) {
          return false;
        }
        break;
      }
    }
  }
  return true;
}

// Pages the agent already put back during RestoreOp (the critical path and
// demand faults) must equal the source image. Only observable while a
// background phase is pending; the background phase releases the checkpoint.
bool RestoredPagesMatch(const Cluster& cluster, const Sandbox& sb) {
  if (!sb.checkpoint.has_value()) {
    return true;
  }
  const MemoryCheckpoint& cp = *sb.checkpoint;
  const MemoryImage expected = cluster.BuildImage(sb);
  for (size_t page = 0; page < cp.NumPages(); ++page) {
    if (cp.SlotState(page) == PageSlotState::kResident &&
        std::memcmp(cp.PageData(page).data(), expected.Page(page).data(), kPageSize) != 0) {
      return false;
    }
  }
  return true;
}

void AddDedupResult(Digest& d, const DedupOpResult& r) {
  for (size_t v : {r.pages_total, r.pages_deduped, r.pages_zero, r.pages_unique, r.patch_bytes,
                   r.saved_bytes, r.same_function_pages, r.cross_function_pages}) {
    d.Add(static_cast<uint64_t>(v));
  }
  for (SimDuration t : {r.checkpoint_time, r.lookup_time, r.patch_time, r.total_time}) {
    d.Add(t);
  }
}

void AddRestoreResult(Digest& d, const RestoreOpResult& r, const BackgroundRestoreResult& bg) {
  for (size_t v : {r.base_pages_read, r.base_bytes_read, r.remote_reads, r.ws_predicted_pages,
                   r.ws_touched_pages, r.ws_hit_pages, r.ws_fault_pages, r.background_pages,
                   bg.pages, bg.base_pages_read, bg.base_bytes_read, bg.remote_reads}) {
    d.Add(static_cast<uint64_t>(v));
  }
  for (SimDuration t : {r.read_base_time, r.compute_time, r.sandbox_restore_time,
                        r.critical_path_time, r.fault_time, r.total_time, bg.total_time}) {
    d.Add(t);
  }
}

Report RunAgentPipeline(const Config& cfg, SpanLog& spans, Outcome& outcome) {
  const auto start = Clock::now();
  uint64_t input_state = cfg.seed;
  ClusterOptions copts;
  copts.num_nodes = kAgentNodes;
  copts.node_memory_mb = 1e9;
  copts.bytes_per_mb = kAgentBytesPerMb;
  copts.seed = SplitMix(input_state);
  const uint64_t placement_seed = SplitMix(input_state);
  const auto& profiles = FunctionBenchProfiles();

  std::vector<double> setup_s, dedup_ms, restore_ms;
  // Restore host time per (round, victim) position, one entry per episode.
  std::vector<std::vector<double>> restore_s_by_position;
  double dedup_s = 0, restore_s = 0;
  uint64_t dedup_pages = 0, restore_pages = 0;
  std::string digest;
  int episodes = 0;
  // Modelled totals of the first episode (every episode repeats it exactly).
  uint64_t nonzero_pages = 0, saved_nonzero = 0, patch_bytes = 0, deduped = 0, ws_hits = 0,
           ws_touched = 0, background_pages = 0;
  double memory_mb_sum = 0;
  uint64_t memory_samples = 0;
  RdmaStats rdma_stats;
  RegistryStats registry_stats;
  TransportStats net_stats;
  // Traced-run accumulators.
  uint64_t stage_pages_total = 0, stage_resident = 0, stage_read = 0, stage_encoded = 0,
           stage_deduped = 0, stage_patch_bytes = 0, inserted_pages = 0;
  double traced_dedup_s = 0;

  while (episodes < 3 || SecondsBetween(start, Clock::now()) < cfg.seconds) {
    const bool first = episodes == 0;
    const double t0 = CpuSeconds();
    std::unique_ptr<AgentWorld> world;
    {
      Scope s(spans, "cluster", "construct");
      world = std::make_unique<AgentWorld>(copts, cfg.threads);
    }
    AgentWorld& w = *world;
    {
      Scope s(spans, "dedupagent", "designate_bases");
      for (const FunctionProfile& p : profiles) {
        Sandbox& base = w.cluster.Spawn(p, NodeId{0}, SimTime{0});
        w.cluster.MarkWarm(base, SimTime{0});
        w.agent.DesignateBase(base);
      }
    }
    {
      Scope s(spans, "cluster", "spawn_victims");
      uint64_t state = placement_seed;
      for (int i = 0; i < kVictimsPerFunction; ++i) {
        for (const FunctionProfile& p : profiles) {
          const NodeId node{1 + static_cast<int>(SplitMix(state) % (kAgentNodes - 1))};
          Sandbox& sb = w.cluster.Spawn(p, node, SimTime{0});
          // A seed-chosen number of earlier invocations sets the instance's
          // heap contents.
          const uint64_t runs = SplitMix(state) % 8;
          for (uint64_t k = 0; k < runs; ++k) {
            w.cluster.MarkWarm(sb, SimTime{0});
            w.cluster.MarkRunning(sb, SimTime{0});
          }
          w.cluster.MarkWarm(sb, SimTime{0});
          w.victims.push_back(sb.id);
        }
      }
    }
    setup_s.push_back(CpuSeconds() - t0);

    // Traced runs only: a registry copy and a private fabric for the
    // stage-by-stage pass, and a timed insert of every base into a fresh
    // registry.
    std::unique_ptr<FingerprintRegistry> stage_registry;
    std::unique_ptr<RdmaFabric> stage_fabric;
    const PageFingerprinter fingerprinter(w.agent.options().fingerprint);
    if (spans.enabled()) {
      Scope s(spans, "bench", "stage_setup");
      stage_registry = std::make_unique<FingerprintRegistry>(w.registry);
      stage_fabric = std::make_unique<RdmaFabric>(
          CachedRdma(),
          [&w](const PageLocation& loc) { return w.cluster.ReadBasePage(loc); });
      FingerprintRegistry fresh;
      for (const auto& [id, snap] : w.cluster.base_snapshots()) {
        std::vector<PageFingerprint> fps(snap.checkpoint.NumPages());
        {
          Scope f(spans, "chunking", "fingerprint_base");
          for (size_t page = 0; page < fps.size(); ++page) {
            if (snap.checkpoint.SlotState(page) == PageSlotState::kResident) {
              fps[page] = fingerprinter.FingerprintPage(snap.checkpoint.PageData(page));
            }
          }
        }
        Scope r(spans, "registry", "insert");
        fresh.InsertBaseSandbox(snap.node, id, fps);
        inserted_pages += fps.size();
      }
    }

    Digest d;
    SimTime now{kSecond.value()};
    size_t position = 0;
    for (int round = 0; round < kRoundsPerEpisode; ++round) {
      // Write path: every victim is deduplicated.
      for (SandboxId id : w.victims) {
        Sandbox& sb = *w.cluster.Find(id);
        std::optional<StagePass> stage;
        if (spans.enabled()) {
          Scope s(spans, "bench", "stage_pass");
          stage = RunStagePass(w, sb, *stage_registry, *stage_fabric, fingerprinter, spans);
        }
        DedupOpResult r;
        const double a = CpuSeconds();
        {
          Scope s(spans, "dedupagent", "dedup_op");
          r = w.agent.DedupOp(sb, now);
        }
        const double secs = CpuSeconds() - a;
        Scope check(spans, "bench", "verify");
        outcome.attempted += 1;
        dedup_s += secs;
        dedup_ms.push_back(secs * 1e3);
        dedup_pages += r.pages_total;
        AddDedupResult(d, r);
        if (!DedupCheckpointRestores(w.cluster, sb)) {
          outcome.Fail(1, "deduplicated checkpoint does not reconstruct Cluster::BuildImage");
        }
        if (stage.has_value()) {
          if (stage->pages_deduped != r.pages_deduped || stage->pages_zero != r.pages_zero ||
              stage->patch_bytes != r.patch_bytes || stage->pages_total != r.pages_total) {
            outcome.Fail(1, "stage-by-stage pass disagrees with DedupOp");
          }
          if (!stage->decode_ok) {
            outcome.Fail(1, "stage-by-stage decode does not give back the page");
          }
          stage_pages_total += stage->pages_total;
          stage_resident += stage->resident;
          stage_read += stage->pages_read;
          stage_encoded += stage->pages_encoded;
          stage_deduped += stage->pages_deduped;
          stage_patch_bytes += stage->patch_bytes;
          traced_dedup_s += secs;
        }
        if (first) {
          nonzero_pages += r.pages_total - r.pages_zero;
          saved_nonzero += r.saved_bytes - r.pages_zero * kPageSize;
          patch_bytes += r.patch_bytes;
          deduped += r.pages_deduped;
          memory_mb_sum += w.cluster.TotalUsedMb();
          ++memory_samples;
        }
        now += kSecond;
      }
      // Read path: every victim is restored (dedup start), then runs.
      for (SandboxId id : w.victims) {
        Sandbox& sb = *w.cluster.Find(id);
        const uint64_t patched = sb.patches.size();
        const uint64_t restored_before = w.agent.stats().pages_restored;
        const size_t pages = sb.checkpoint->NumPages();
        RestoreOpResult r;
        BackgroundRestoreResult bg;
        const double a = CpuSeconds();
        {
          Scope s(spans, "dedupagent", "restore_op");
          r = w.agent.RestoreOp(sb, now);
        }
        const double b = CpuSeconds();
        bool restored_ok = true;
        {
          Scope s(spans, "bench", "verify");
          restored_ok = RestoredPagesMatch(w.cluster, sb);
        }
        const double c = CpuSeconds();
        {
          Scope s(spans, "dedupagent", "background_restore");
          bg = w.agent.CompleteBackgroundRestore(sb, now);
        }
        const double secs = (b - a) + (CpuSeconds() - c);
        Scope check(spans, "bench", "verify");
        outcome.attempted += 1;
        restore_s += secs;
        if (restore_s_by_position.size() <= position) {
          restore_s_by_position.resize(position + 1);
        }
        restore_s_by_position[position++].push_back(secs);
        restore_ms.push_back(secs * 1e3);
        restore_pages += pages;
        AddRestoreResult(d, r, bg);
        const uint64_t restored = w.agent.stats().pages_restored - restored_before;
        if (!restored_ok) {
          outcome.Fail(1, "pages restored by RestoreOp differ from Cluster::BuildImage");
        } else if (restored != patched || sb.checkpoint.has_value() ||
                   sb.state != SandboxState::kWarm) {
          outcome.Fail(1, "restore did not put back every patched page");
        }
        if (first) {
          ws_hits += r.ws_hit_pages;
          ws_touched += r.ws_touched_pages;
          background_pages += r.background_pages;
          memory_mb_sum += w.cluster.TotalUsedMb();
          ++memory_samples;
        }
        // The restored sandbox serves its request and goes idle again, so the
        // next round deduplicates a new generation of its memory.
        w.cluster.MarkRunning(sb, now);
        w.cluster.MarkWarm(sb, now);
        now += kSecond;
      }
    }
    if (first) {
      rdma_stats = w.fabric.stats();
      registry_stats = w.registry.stats();
      net_stats = w.fabric.transport()->stats();
    }
    if (digest.empty()) {
      digest = d.Hex();
    } else if (d.Hex() != digest) {
      outcome.Fail(w.victims.size(), "modelled digest differs between episodes of one seed");
    }
    {
      Scope s(spans, "cluster", "teardown");
      world.reset();
    }
    ++episodes;
  }

  // Every episode restores the same sandboxes in the same order, so each
  // (round, victim) position is one piece of repeated work.
  double fastest_episode_s = 0;
  for (const std::vector<double>& times : restore_s_by_position) {
    fastest_episode_s += Fastest(times);
  }
  const double saved_fraction =
      Ratio(static_cast<double>(saved_nonzero), static_cast<double>(nonzero_pages * kPageSize));
  const double mean_memory_mb = Ratio(memory_mb_sum, static_cast<double>(memory_samples));
  Report r;
  r.digest = digest;
  r.modelled = {
      {"saved_fraction", saved_fraction, "ratio"},
      {"mean_memory_mb", mean_memory_mb, "MB"},
      {"pages_deduped", static_cast<double>(deduped), "count"},
      {"patch_bytes", static_cast<double>(patch_bytes), "count"},
  };
  r.end_to_end = {
      {"requests_per_s", static_cast<double>(restore_s_by_position.size()) / fastest_episode_s,
       "1/s"},
      {"setup_s", Fastest(setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  const double ns = 1e9;
  auto per_page = [&](const char* layer, const char* name, uint64_t pages) {
    return Ratio(spans.Seconds(layer, name) * ns, static_cast<double>(pages));
  };
  const double stage_write_s = spans.Seconds("memstate", "build_image") +
                                spans.Seconds("checkpoint", "capture") +
                                spans.Seconds("chunking", "fingerprint") +
                                spans.Seconds("registry", "find") + spans.Seconds("rdma", "read") +
                                spans.Seconds("delta", "encode");
  r.per_layer = {
      {"memstate.build_ns_per_page", per_page("memstate", "build_image", stage_pages_total)},
      {"checkpoint.capture_ns_per_page", per_page("checkpoint", "capture", stage_pages_total)},
      {"chunking.fingerprint_ns_per_page", per_page("chunking", "fingerprint", stage_resident)},
      {"registry.find_ns_per_page", per_page("registry", "find", stage_resident)},
      {"registry.insert_ns_per_page", per_page("registry", "insert", inserted_pages)},
      {"registry.lookups", static_cast<double>(registry_stats.lookups)},
      {"registry.key_hits_per_lookup",
       Ratio(static_cast<double>(registry_stats.key_hits),
             static_cast<double>(registry_stats.lookups))},
      {"rdma.read_ns_per_page", per_page("rdma", "read", stage_read)},
      {"rdma.cache_hit_rate", rdma_stats.CacheHitRate()},
      {"rdma.remote_reads", static_cast<double>(rdma_stats.remote_reads)},
      {"rdma.batch_messages", static_cast<double>(rdma_stats.batch_messages)},
      {"delta.encode_ns_per_page", per_page("delta", "encode", stage_encoded)},
      {"delta.decode_ns_per_page", per_page("delta", "decode", stage_deduped)},
      {"delta.patch_bytes_per_page",
       Ratio(static_cast<double>(stage_patch_bytes), static_cast<double>(stage_deduped))},
      {"dedupagent.dedup_op_ms_p50", Percentile(dedup_ms, 0.5)},
      {"dedupagent.dedup_op_ms_p90", Percentile(dedup_ms, 0.9)},
      {"dedupagent.restore_op_ms_p50", Percentile(restore_ms, 0.5)},
      {"dedupagent.restore_op_ms_p90", Percentile(restore_ms, 0.9)},
      {"dedupagent.patch_accept_ratio",
       Ratio(static_cast<double>(deduped), static_cast<double>(nonzero_pages))},
      {"dedupagent.unattributed_fraction", Ratio(traced_dedup_s - stage_write_s, traced_dedup_s)},
      {"dedupagent.ws_hit_rate",
       Ratio(static_cast<double>(ws_hits), static_cast<double>(ws_touched))},
      {"dedupagent.background_pages", static_cast<double>(background_pages)},
      {"dedupagent.dedup_pages", static_cast<double>(deduped)},
      {"dedupagent.dedup_pages_per_s", Ratio(static_cast<double>(dedup_pages), dedup_s)},
      {"dedupagent.restore_pages_per_s", Ratio(static_cast<double>(restore_pages), restore_s)},
      {"dedupagent.saved_fraction", saved_fraction},
      {"net.messages", static_cast<double>(net_stats.TotalMessages())},
      {"net.bytes", static_cast<double>(net_stats.TotalBytes())},
      {"net.dropped", static_cast<double>(net_stats.TotalDropped())},
  };
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"episodes\": %d, \"rounds_per_episode\": %d, \"victims\": %d, "
                "\"dedup_ops\": %zu, \"restore_ops\": %zu",
                episodes, kRoundsPerEpisode,
                kVictimsPerFunction * static_cast<int>(profiles.size()),
                dedup_ms.size(), restore_ms.size());
  r.details = buf;
  r.details += ", \"dedup_pages_per_s\": " + Num(Ratio(static_cast<double>(dedup_pages), dedup_s)) +
               ", \"restore_pages_per_s\": " +
               Num(Ratio(static_cast<double>(restore_pages), restore_s));
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer metric list: every workload reports every name; a layer the
// workload bypasses (or cannot be timed from outside on it) reads 0.
// ---------------------------------------------------------------------------

const std::vector<std::pair<const char*, const char*>>& PerLayerNames() {
  static const std::vector<std::pair<const char*, const char*>> names = {
      {"workload.generate_s", "s"},
      {"workload.requests", "count"},
      {"platform.construct_s", "s"},
      {"platform.run_s", "s"},
      {"platform.spawns", "count"},
      {"platform.evictions", "count"},
      {"platform.dedup_ops", "count"},
      {"platform.restores", "count"},
      {"platform.base_designations", "count"},
      {"platform.cold_start_rate", "ratio"},
      {"platform.mean_memory_mb", "MB"},
      {"platform.dedup_start_p50_ms", "sim_ms"},
      {"platform.dedup_start_p99_ms", "sim_ms"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"memstate.build_ns_per_page", "ns"},
      {"checkpoint.capture_ns_per_page", "ns"},
      {"chunking.fingerprint_ns_per_page", "ns"},
      {"registry.find_ns_per_page", "ns"},
      {"registry.insert_ns_per_page", "ns"},
      {"registry.lookups", "count"},
      {"registry.key_hits_per_lookup", "count"},
      {"rdma.read_ns_per_page", "ns"},
      {"rdma.cache_hit_rate", "ratio"},
      {"rdma.remote_reads", "count"},
      {"rdma.batch_messages", "count"},
      {"delta.encode_ns_per_page", "ns"},
      {"delta.decode_ns_per_page", "ns"},
      {"delta.patch_bytes_per_page", "bytes"},
      {"dedupagent.dedup_op_ms_p50", "ms"},
      {"dedupagent.dedup_op_ms_p90", "ms"},
      {"dedupagent.restore_op_ms_p50", "ms"},
      {"dedupagent.restore_op_ms_p90", "ms"},
      {"dedupagent.patch_accept_ratio", "ratio"},
      {"dedupagent.unattributed_fraction", "ratio"},
      {"dedupagent.ws_hit_rate", "ratio"},
      {"dedupagent.background_pages", "count"},
      {"dedupagent.dedup_pages", "count"},
      {"dedupagent.dedup_pages_per_s", "1/s"},
      {"dedupagent.restore_pages_per_s", "1/s"},
      {"dedupagent.saved_fraction", "ratio"},
      {"net.messages", "count"},
      {"net.bytes", "count"},
      {"net.dropped", "count"},
      {"obs.trace_overhead_fraction", "ratio"},
      {"obs.unattributed_fraction", "ratio"},
  };
  return names;
}

std::vector<Metric> CompletePerLayer(const std::map<std::string, double>& measured) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : PerLayerNames()) {
    const auto it = measured.find(name);
    out.push_back({name, it == measured.end() ? 0.0 : it->second, unit});
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "medes_perfbench: %s\nusage: medes_perfbench --workload "
               "<medes_p2|keepalive|agent_pipeline> --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--spans") {
      cfg.spans_path = value;
    } else {
      return Usage("unknown argument");
    }
  }
  if (argc % 2 != 1 || !(cfg.seconds > 0 && cfg.seconds <= 120)) {
    return Usage("bad arguments");
  }

  SpanLog spans(cfg.trace);
  const double per_span_s = cfg.trace ? SecondsPerSpan() : 0;
  Outcome outcome;
  Report report;
  const auto wall_start = Clock::now();
  const int root = cfg.trace ? spans.Begin("unattributed", "run") : -1;
  try {
    if (cfg.workload == "medes_p2") {
      report = RunCampaign(cfg, {PolicyKind::kMedes, 5, 60 * kMinute}, spans, outcome);
    } else if (cfg.workload == "keepalive") {
      report = RunCampaign(cfg, {PolicyKind::kFixedKeepAlive, 100, 60 * kMinute}, spans, outcome);
    } else if (cfg.workload == "agent_pipeline") {
      report = RunAgentPipeline(cfg, spans, outcome);
    } else {
      return Usage("unknown workload");
    }
  } catch (const std::exception& e) {
    outcome.Fail(std::max<uint64_t>(outcome.attempted, 1), std::string("exception: ") + e.what());
    outcome.attempted = std::max<uint64_t>(outcome.attempted, 1);
  }
  if (root >= 0) {
    spans.End(root);
  }
  const double wall_s = SecondsBetween(wall_start, Clock::now());

  // Layer breakdown of the traced run: self times plus the unattributed
  // remainder must add up to the traced host time.
  std::string breakdown;
  if (cfg.trace) {
    std::map<std::string, double> self;
    const bool nested = spans.SelfSecondsByLayer(&self);
    const double traced_s = spans.Seconds("unattributed", "run");
    double sum = 0;
    for (const auto& [layer, secs] : self) {
      sum += secs;
      breakdown += (breakdown.empty() ? "\"" : ", \"") + layer + "\": " + Num(secs);
    }
    if (!nested || std::fabs(sum - traced_s) > 1e-6 * std::max(1.0, traced_s)) {
      outcome.Fail(1, "layer self times plus unattributed do not sum to the traced host time");
    }
    const double overhead =
        Ratio(per_span_s * static_cast<double>(spans.spans().size()), traced_s);
    report.per_layer["obs.trace_overhead_fraction"] = overhead;
    report.per_layer["obs.unattributed_fraction"] = Ratio(self["unattributed"], traced_s);
    breakdown = "\"layer_self_s\": {" + breakdown + "}, \"traced_s\": " + Num(traced_s) +
                ", \"spans\": " + std::to_string(spans.spans().size());
    if (!cfg.spans_path.empty()) {
      if (FILE* f = std::fopen(cfg.spans_path.c_str(), "w")) {
        const std::string json = spans.ChromeJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
      }
    }
  }

  const bool correct = outcome.failed == 0;
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  // max_supported_tier is what the CPU offers, read from cpuid; it is not a
  // claim about the tier the kernels ran at (the benchmark never binds them).
  std::string report_line =
      "{\"workload\": \"" + cfg.workload + "\", \"seed\": " + std::to_string(cfg.seed) +
      ", \"trace\": " + (cfg.trace ? "1" : "0") + ", \"correct\": " + (correct ? "true" : "false") +
      ", \"problems\": " + ProblemsJson(outcome) + ", \"digest\": \"" + report.digest +
      "\", \"modelled\": " + MetricsJson(report.modelled) +
      ", \"end_to_end\": " + MetricsJson(report.end_to_end) + ", " + report.details +
      (breakdown.empty() ? "" : ", " + breakdown) + ", \"wall_s\": " + Num(wall_s) +
      ", \"metadata\": {\"build_type\": \"" MEDES_PERFBENCH_BUILD_TYPE "\", \"compiler\": \"" +
      std::string(__VERSION__) + "\", \"threads\": " + std::to_string(cfg.threads) +
      ", \"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"max_supported_tier\": \"" + kernels::TierName(kernels::MaxSupportedTier()) +
      "\", \"host\": \"" + host + "\"}}";
  std::printf("%s\n", report_line.c_str());

  const std::vector<Metric>& metrics =
      cfg.trace ? CompletePerLayer(report.per_layer) : report.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", outcome.attempted, outcome.failed,
              MetricsJson(metrics).c_str());
  return correct ? 0 : 1;
}
