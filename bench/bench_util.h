// Shared helpers for the programs in bench/.
//
// `paper_claims` regenerates every table and figure of the paper's
// evaluation (Section 7), one claim per artifact; `campaign` runs the
// multi-node BENCH campaigns (cluster_scale, restore_latency,
// trace_attribution), one per process, each writing one BENCH JSON; the
// other programs are microbenchmarks. Output convention for a claim: a header
// naming the experiment, the parameters used, then rows mirroring the paper's
// axes, with the paper's reported values quoted alongside where applicable.
// EXPERIMENTS.md records the paper-vs-measured comparison for each.
#ifndef MEDES_BENCH_BENCH_UTIL_H_
#define MEDES_BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/kernels/cpu_features.h"
#include "medes.h"

namespace medes::bench {

inline void Header(const std::string& title, const std::string& subtitle) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", subtitle.c_str());
  std::printf("==============================================================================\n");
}

inline void Section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
}

// The evaluation cluster: 20 CloudLab nodes, one of which is the controller
// (Section 7.1) => 19 workers. The paper caps per-node memory in software at
// 2 GB to oversubscribe the cluster (Section 7.2); the workload generator is
// calibrated so the full workload demands ~21 GB unconstrained, which
// oversubscribes the 40:30:20 pressure pools exactly as in Section 7.4.
inline PlatformOptions EvalOptions(PolicyKind policy, double node_memory_mb = 2048) {
  PlatformOptions options = MakePlatformOptions(policy);
  options.cluster.num_nodes = 19;
  options.cluster.node_memory_mb = node_memory_mb;
  options.cluster.bytes_per_mb = 8192;
  options.medes.idle_period = 30 * kSecond;
  options.medes.keep_dedup = 15 * kMinute;
  options.fixed_keep_alive = 10 * kMinute;
  // Loose enough that dedup pays off while the bound still binds; the tight
  // alpha = 2.5 from Section 7.3 is used by fig9_memory explicitly.
  options.medes.alpha = 20.0;
  return options;
}

// The full multi-function workload (Section 7.1): every FunctionBench
// function driven by an Azure-like arrival pattern, magnified 5x.
inline std::vector<TraceEvent> FullWorkload(SimDuration duration, uint64_t seed = 0xa22e) {
  TraceOptions topts;
  topts.duration = duration;
  topts.rate_scale = 5.0;
  topts.seed = seed;
  return GenerateTrace(DefaultAzurePatterns(), topts);
}

// The smaller representative workload of Section 7.5 ({LinAlg, FeatureGen,
// ModelTrain}), used for the microbenchmarks and sensitivity analyses. The
// bursty functions' OFF periods are stretched so inter-burst gaps straddle
// the keep-alive horizon — the regime where keep-alive tuning (Fig. 12) and
// the keep-dedup period (Fig. 15) actually bind.
inline std::vector<TraceEvent> RepresentativeWorkload(SimDuration duration,
                                                      uint64_t seed = 0xa22e) {
  TraceOptions topts;
  topts.duration = duration;
  topts.rate_scale = 5.0;
  topts.seed = seed;
  auto patterns = PatternsForFunctions({"LinAlg", "FeatureGen", "ModelTrain"});
  for (ArrivalPattern& p : patterns) {
    if (p.kind == ArrivalKind::kBursty) {
      p.mean_off = SimDuration{
          static_cast<int64_t>(2.5 * static_cast<double>(p.mean_off.value()))};
    }
  }
  return GenerateTrace(patterns, topts);
}

// Representative runs need a smaller cluster so memory effects show: three
// functions on the full 38 GB pool would never feel pressure. 4 x 3 GB sits
// between the 10- and 20-minute keep-alive demands, so keep-alive tuning and
// the dedup knobs actually bind.
inline PlatformOptions RepresentativeOptions(PolicyKind policy, double node_memory_mb = 3072) {
  PlatformOptions options = EvalOptions(policy, node_memory_mb);
  options.cluster.num_nodes = 4;
  return options;
}

// A two-node dedup rig with no memory pressure, for measuring single dedup and
// restore ops: base sandboxes go on node 0 and the sandboxes being deduped on
// node 1, so every base read is a remote RDMA read, as in the paper's testbed.
// `bytes_per_mb` is the image scale, and it sets the modelled op costs.
struct AgentRig {
  explicit AgentRig(size_t bytes_per_mb, DedupAgentOptions agent_opts = {})
      : cluster([bytes_per_mb] {
          ClusterOptions c;
          c.num_nodes = 2;
          c.node_memory_mb = 1e9;
          c.bytes_per_mb = bytes_per_mb;
          return c;
        }()),
        fabric({}, [this](const PageLocation& loc) { return cluster.ReadBasePage(loc); }),
        agent(cluster, registry, fabric, agent_opts) {}
  // The fabric's page reader and the agent hold this rig's address.
  AgentRig(const AgentRig&) = delete;
  AgentRig& operator=(const AgentRig&) = delete;

  Sandbox& Warm(const FunctionProfile& profile, NodeId node) {
    Sandbox& sb = cluster.Spawn(profile, node, SimTime{});
    cluster.MarkWarm(sb, SimTime{});
    return sb;
  }

  // One warm base sandbox per FunctionBench function, on node 0.
  void DesignateBases() {
    for (const auto& p : FunctionBenchProfiles()) {
      agent.DesignateBase(Warm(p, NodeId{0}));
    }
  }

  // Image bytes -> represented MB.
  double Mb(uint64_t bytes) const {
    return static_cast<double>(bytes) / static_cast<double>(cluster.options().bytes_per_mb);
  }

  Cluster cluster;
  FingerprintRegistry registry;
  RdmaFabric fabric;
  DedupAgent agent;
};

// The per-function dedup-start breakdown of Fig. 8 (Section 7.2.1): per
// function, designate a same-function base, dedup a second sandbox and
// restore it eagerly, then lazily with a *trained* working set.
// `paper_claims --only fig8_breakdown` prints it; `campaign restore_latency`
// writes it as its `per_function` array.
struct FunctionRow {
  const char* name = "";
  RestoreOpResult eager;
  RestoreOpResult lazy;  // trained working set
  SimDuration cold_start;
};

// One dedup -> restore -> run cycle; returns the restore result.
inline RestoreOpResult Cycle(Cluster& cluster, DedupAgent& agent, Sandbox& sb, SimTime now) {
  agent.DedupOp(sb, now);
  RestoreOpResult r = agent.RestoreOp(sb, now + SimDuration{1}, /*verify=*/true);
  if (r.background_pending) {
    (void)agent.CompleteBackgroundRestore(sb, now + SimDuration{2});
  }
  cluster.MarkRunning(sb, now + SimDuration{3});
  cluster.MarkWarm(sb, now + SimDuration{4});
  return r;
}

inline std::vector<FunctionRow> PerFunctionBreakdown() {
  DedupAgentOptions eager_opts;
  eager_opts.restore_mode = RestoreMode::kEager;
  AgentRig rig(65536, eager_opts);
  DedupAgent lazy_agent(rig.cluster, rig.registry, rig.fabric, {});  // default: lazy
  rig.DesignateBases();

  std::vector<FunctionRow> rows;
  for (const auto& p : FunctionBenchProfiles()) {
    FunctionRow row;
    row.name = p.name.c_str();
    row.cold_start = p.cold_start;
    // Remote node: real RDMA reads, as in the paper's testbed.
    Sandbox& sb = rig.Warm(p, NodeId{1});
    row.eager = Cycle(rig.cluster, rig.agent, sb, SimTime{10});
    // Lazy cycle 1 trains the working set (unprofiled = full prefetch);
    // cycle 2 is the steady-state lazy restore.
    (void)Cycle(rig.cluster, lazy_agent, sb, SimTime{20});
    row.lazy = Cycle(rig.cluster, lazy_agent, sb, SimTime{30});
    rows.push_back(row);
  }
  return rows;
}

// ---------------------------------------------------------------------------
// JSON output
//
// Benchmarks that CI ingests emit one JSON document through this builder
// instead of hand-rolled printf JSON: it tracks nesting and commas, escapes
// strings, and always leads with a common metadata block so every artifact
// self-describes the configuration that produced it.
// ---------------------------------------------------------------------------

class JsonWriter {
 public:
  JsonWriter& BeginObject(std::string_view key = {}) { return Open('{', key); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray(std::string_view key = {}) { return Open('[', key); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Field(std::string_view key, std::string_view value) {
    Prefix(key);
    AppendEscaped(value);
    return *this;
  }
  JsonWriter& Field(std::string_view key, const char* value) {
    return Field(key, std::string_view(value));
  }
  JsonWriter& Field(std::string_view key, bool value) {
    Prefix(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonWriter& Field(std::string_view key, double value, int precision = 2) {
    Prefix(key);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    out_ += buf;
    return *this;
  }
  template <typename T>
    requires std::is_integral_v<T>
  JsonWriter& Field(std::string_view key, T value) {
    Prefix(key);
    char buf[32];
    if constexpr (std::is_signed_v<T>) {
      std::snprintf(buf, sizeof(buf), "%" PRId64, static_cast<int64_t>(value));
    } else {
      std::snprintf(buf, sizeof(buf), "%" PRIu64, static_cast<uint64_t>(value));
    }
    out_ += buf;
    return *this;
  }
  // Bare array element (no key).
  template <typename T>
  JsonWriter& Value(T value) {
    return Field({}, value);
  }
  JsonWriter& Value(double value, int precision) { return Field({}, value, precision); }
  // Appends the members `body` wrote at its top level (a writer used without
  // an enclosing BeginObject) to the object open here.
  JsonWriter& Members(const JsonWriter& body) {
    if (!body.out_.empty()) {
      Prefix({});
      out_ += body.out_;
    }
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket, std::string_view key) {
    Prefix(key);
    out_ += bracket;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }
  void Prefix(std::string_view key) {
    if (need_comma_) {
      out_ += ',';
    }
    need_comma_ = true;
    if (!key.empty()) {
      AppendEscaped(key);
      out_ += ':';
    }
  }
  void AppendEscaped(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        default:
          out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool need_comma_ = false;
};

inline const char* SanitizerName() {
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

// Process-wide wall clock, anchored at the first call (static init order is
// irrelevant: benches call WallSeconds via WriteMetadata at the end of main).
inline double WallSeconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Arms the WallSeconds anchor; call first thing in main so wall_seconds
// covers the whole run, not just the stretch since the first metadata write.
inline void StartWallClock() { (void)WallSeconds(); }

// The common metadata block every bench JSON leads with: which benchmark,
// which thread/sanitizer configuration, the kernel tier that ran and
// whether SHA-NI chunk hashing was on (cpuid decides both, so active_tier
// always equals max_supported_tier), whether observability was live while it ran (obs skews timings,
// so artifacts must say so), and how much wall time / simulation-event
// throughput the process accumulated, and its peak RSS.
inline void WriteMetadata(JsonWriter& w, std::string_view bench_name) {
  const char* threads_env = std::getenv("MEDES_THREADS");
  const double wall_s = WallSeconds();
  const uint64_t fired = TotalSimEventsFired();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  w.BeginObject("metadata")
      .Field("bench", bench_name)
      .Field("medes_threads", threads_env != nullptr ? threads_env : "default")
      .Field("active_tier", kernels::TierName(kernels::MaxSupportedTier()))
      .Field("sha_ni_active", kernels::DetectCpuFeatures().sha_ni)
      .Field("max_supported_tier", kernels::TierName(kernels::MaxSupportedTier()))
      .Field("sanitizer", SanitizerName())
      .Field("trace_enabled", obs::TraceEnabled())
      .Field("metrics_enabled", obs::MetricsEnabled())
      .Field("wall_seconds", wall_s, 3)
      .Field("sim_events_fired", fired)
      .Field("sim_events_per_sec", wall_s > 0 ? static_cast<double>(fired) / wall_s : 0.0, 1)
      .Field("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, 1)  // ru_maxrss: KiB
      .EndObject();
}

inline bool WriteTextFile(const std::string& path, const std::string& content) {
  if (!obs::WriteFile(path, content)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  // stderr: several benches pipe pure JSON through stdout.
  std::fprintf(stderr, "(written to %s)\n", path.c_str());
  return true;
}

// Where an observability artifact named `file` lands: in MEDES_OBS_DIR when
// set, else in the current directory.
inline std::string ObsPath(std::string_view file) {
  const char* dir_env = std::getenv("MEDES_OBS_DIR");
  return (dir_env != nullptr ? std::string(dir_env) + "/" : std::string()) + std::string(file);
}

// Drains the observability singletons into files next to the bench output
// when tracing/metrics are enabled (MEDES_TRACE / MEDES_METRICS):
//   <bench>_trace.json   Chrome trace-event JSON (load in Perfetto)
//   <bench>_metrics.json metrics snapshot as JSON
// Both land where ObsPath puts them.
inline void ExportObservability(std::string_view bench_name) {
  const std::string name(bench_name);
  if (obs::TraceEnabled()) {
    WriteTextFile(ObsPath(name + "_trace.json"),
                  obs::ChromeTraceJson(obs::Tracer::Default().Drain()));
  }
  if (obs::MetricsEnabled()) {
    WriteTextFile(ObsPath(name + "_metrics.json"),
                  obs::MetricsJson(obs::MetricsRegistry::Default().Snapshot()));
  }
}

inline uint64_t TotalDedupStarts(const RunMetrics& m) {
  uint64_t total = 0;
  for (const auto& f : m.per_function) {
    total += f.dedup_starts;
  }
  return total;
}

inline double TotalSavedMb(const RunMetrics& m) {
  double total = 0;
  for (const auto& f : m.per_function) {
    total += f.total_saved_mb;
  }
  return total;
}

}  // namespace medes::bench

#endif  // MEDES_BENCH_BENCH_UTIL_H_
