// Shared helpers for the paper-reproduction benchmarks.
//
// Every binary in bench/ regenerates one table or figure from the paper's
// evaluation (Section 7). Output convention: a header naming the experiment,
// the parameters used, then rows mirroring the paper's axes, with the paper's
// reported values quoted alongside where applicable. EXPERIMENTS.md records
// the paper-vs-measured comparison for each.
#ifndef MEDES_BENCH_BENCH_UTIL_H_
#define MEDES_BENCH_BENCH_UTIL_H_

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
// which thread/sanitizer configuration, the kernel tier that ran (and
// whether SHA-NI chunk hashing was on) beside the highest tier the CPU
// supports, whether observability was live while it ran (obs skews timings,
// so artifacts must say so), and how much wall time / simulation-event
// throughput the process accumulated.
inline void WriteMetadata(JsonWriter& w, std::string_view bench_name) {
  const char* threads_env = std::getenv("MEDES_THREADS");
  const double wall_s = WallSeconds();
  const uint64_t fired = TotalSimEventsFired();
  w.BeginObject("metadata")
      .Field("bench", bench_name)
      .Field("medes_threads", threads_env != nullptr ? threads_env : "default")
      .Field("active_tier", kernels::TierName(kernels::ActiveTier()))
      .Field("sha_ni_active", kernels::ShaNiActive())
      .Field("max_supported_tier", kernels::TierName(kernels::MaxSupportedTier()))
      .Field("sanitizer", SanitizerName())
      .Field("trace_enabled", obs::TraceEnabled())
      .Field("metrics_enabled", obs::MetricsEnabled())
      .Field("wall_seconds", wall_s, 3)
      .Field("sim_events_fired", fired)
      .Field("sim_events_per_sec", wall_s > 0 ? static_cast<double>(fired) / wall_s : 0.0, 1)
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

// Drains the observability singletons into files next to the bench output
// when tracing/metrics are enabled (MEDES_TRACE / MEDES_METRICS):
//   <dir>/<bench>_trace.json   Chrome trace-event JSON (load in Perfetto)
//   <dir>/<bench>.prom         Prometheus text exposition
//   <dir>/<bench>_metrics.json metrics snapshot as JSON
// <dir> comes from MEDES_OBS_DIR (default: current directory).
inline void ExportObservability(std::string_view bench_name) {
  const char* dir_env = std::getenv("MEDES_OBS_DIR");
  const std::string prefix =
      (dir_env != nullptr ? std::string(dir_env) + "/" : std::string()) + std::string(bench_name);
  if (obs::TraceEnabled()) {
    WriteTextFile(prefix + "_trace.json", obs::ChromeTraceJson(obs::Tracer::Default().Drain()));
  }
  if (obs::MetricsEnabled()) {
    const auto snapshot = obs::MetricsRegistry::Default().Snapshot();
    WriteTextFile(prefix + ".prom", obs::PrometheusText(snapshot));
    WriteTextFile(prefix + "_metrics.json", obs::MetricsJson(snapshot));
  }
}

inline uint64_t TotalDedupStarts(const RunMetrics& m) {
  uint64_t total = 0;
  for (const auto& f : m.per_function) {
    total += f.dedup_starts;
  }
  return total;
}

inline uint64_t TotalWarmStarts(const RunMetrics& m) {
  uint64_t total = 0;
  for (const auto& f : m.per_function) {
    total += f.warm_starts;
  }
  return total;
}

}  // namespace medes::bench

#endif  // MEDES_BENCH_BENCH_UTIL_H_
