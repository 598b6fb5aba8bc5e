// Tracing layer: RAII spans with deterministic simulation-time timestamps,
// buffered per thread and drained into a process-wide sink for Chrome
// trace-event export (obs/export.h).
//
// A Span is a fixed-size POD: name and category are string literals, the
// timestamp and duration are simulation time (common/time.h), `lane` selects
// the Chrome-trace "thread" row (we use it for node ids and pipeline lanes),
// and up to kMaxSpanArgs integer arguments ride along as trace args.
//
// Usage:
//
//   obs::ScopedSpan span("restore/base_read", "restore", now, node_id);
//   span.AddArg("pages", num_pages);
//   ... compute modelled cost ...
//   span.SetSimDuration(read_cost);   // else duration stays 0
//
// The span is recorded on scope exit iff TraceEnabled() was true at
// construction.
//
// Recording appends to a per-thread buffer under a leaf-ranked mutex; full
// buffers are flushed wholesale onto a lock-free chunk stack, so the hot path
// never contends on a global lock. Tracer::Drain() collects everything and
// sorts canonically by content, erasing buffer/flush interleaving — in the
// simulator spans carry sim-time stamps and are emitted by the serial event
// loop, so the drained sequence is bit-identical at any MEDES_THREADS.
#ifndef MEDES_OBS_TRACE_H_
#define MEDES_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/time.h"
#include "obs/obs.h"
#include "obs/trace_context.h"

namespace medes::obs {

inline constexpr size_t kMaxSpanArgs = 4;

// Sentinel duration marking an instant event ("i" phase in Chrome trace)
// rather than a complete span ("X" phase).
inline constexpr SimDuration kInstantDuration{-1};

struct SpanArg {
  const char* key = "";
  int64_t value = 0;
};

struct Span {
  const char* name = "";
  const char* category = "";
  SimTime ts;                        // sim-time start (us)
  SimDuration dur;                   // sim-time duration (us); kInstantDuration = instant
  int32_t lane = 0;                  // Chrome-trace tid row (node id / pipeline lane)
  uint32_t num_args = 0;
  std::array<SpanArg, kMaxSpanArgs> args = {};
  // Causal identity (obs/trace_context.h); all zero for untraced spans.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

struct ThreadSpanBuffer;

// Process-wide span sink. Thread-safe; spans are buffered per recording
// thread and only surface via Drain().
class Tracer {
 public:
  static Tracer& Default();

  // Appends one span (no enablement check — ScopedSpan gates on construction;
  // direct callers check TraceEnabled() themselves).
  void Record(const Span& span);

  // Removes and returns every recorded span, sorted canonically by content
  // (ts, lane, name, category, dur, args, trace/span/parent ids) so the
  // result is independent of buffer and flush interleaving.
  std::vector<Span> Drain();

  // Discards all recorded spans.
  void Clear();

 private:
  friend struct ThreadSpanBuffer;

  Tracer() = default;

  struct Chunk {
    std::vector<Span> spans;
    Chunk* next = nullptr;
  };

  void RegisterBuffer(ThreadSpanBuffer* buffer) EXCLUDES(registry_mu_);
  void UnregisterBuffer(ThreadSpanBuffer* buffer) EXCLUDES(registry_mu_);
  void PushChunk(std::vector<Span> spans);

  Mutex registry_mu_;
  std::vector<ThreadSpanBuffer*> buffers_ GUARDED_BY(registry_mu_);

  // Lock-free stack of flushed chunks; Drain exchanges the head.
  std::atomic<Chunk*> chunks_{nullptr};
};

// Per-thread span buffer (implementation detail of Tracer; public only so the
// thread_local in trace.cc can name it).
struct ThreadSpanBuffer {
  static constexpr size_t kFlushThreshold = 256;

  ThreadSpanBuffer();
  ~ThreadSpanBuffer();

  void Append(const Span& span) EXCLUDES(mu);

  // The tree's one nested lock pair: Tracer::Drain and UnregisterBuffer take
  // a buffer's lock while holding the registry lock.
  Mutex mu ACQUIRED_AFTER(Tracer::registry_mu_);
  std::vector<Span> spans GUARDED_BY(mu);
};

// RAII span. Records on destruction iff tracing was enabled at construction
// (and, for the context-carrying constructor, the context was not dropped by
// sampling).
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category, SimTime sim_start, int32_t lane = 0)
      : enabled_(TraceEnabled()) {
    if (!enabled_) {
      return;
    }
    Init(name, category, sim_start, lane);
  }

  // Context-carrying form: the span adopts `ctx`'s identity. A sampled
  // context stamps trace/span/parent ids; an untraced (default) context
  // records without ids; a sampling-dropped context suppresses the span.
  ScopedSpan(const char* name, const char* category, SimTime sim_start, int32_t lane,
             const TraceContext& ctx)
      : enabled_(TraceEnabled() && !ctx.dropped()) {
    if (!enabled_) {
      return;
    }
    Init(name, category, sim_start, lane);
    span_.trace_id = ctx.trace_id;
    span_.span_id = ctx.span_id;
    span_.parent_span_id = ctx.parent_span_id;
  }

  ~ScopedSpan() {
    if (!enabled_) {
      return;
    }
    Tracer::Default().Record(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Sets the modelled duration (defaults to 0 if never called).
  void SetSimDuration(SimDuration dur) {
    if (enabled_) {
      span_.dur = dur;
    }
  }
  // Marks this span as an instant event.
  void SetInstant() {
    if (enabled_) {
      span_.dur = kInstantDuration;
    }
  }
  // Attaches an integer argument (silently dropped past kMaxSpanArgs).
  void AddArg(const char* key, int64_t value) {
    if (enabled_ && span_.num_args < kMaxSpanArgs) {
      span_.args[span_.num_args++] = SpanArg{key, value};
    }
  }

  bool enabled() const { return enabled_; }

 private:
  void Init(const char* name, const char* category, SimTime sim_start, int32_t lane) {
    span_.name = name;
    span_.category = category;
    span_.ts = sim_start;
    span_.lane = lane;
  }

  Span span_;
  bool enabled_ = false;
};

// Records a standalone instant event (no RAII scope needed).
void RecordInstant(const char* name, const char* category, SimTime ts, int32_t lane = 0);

// Context-carrying instant: stamps ids from a sampled context, suppressed
// for a sampling-dropped one.
void RecordInstant(const char* name, const char* category, SimTime ts, int32_t lane,
                   const TraceContext& ctx);

}  // namespace medes::obs

#endif  // MEDES_OBS_TRACE_H_
