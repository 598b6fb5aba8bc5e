#include "obs/trace.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

namespace medes::obs {

namespace {

// Canonical content order: erases buffer/flush interleaving so Drain() is
// deterministic whenever the recorded set is.
bool SpanLess(const Span& a, const Span& b) {
  if (a.ts != b.ts) {
    return a.ts < b.ts;
  }
  if (a.lane != b.lane) {
    return a.lane < b.lane;
  }
  if (const int c = std::strcmp(a.name, b.name); c != 0) {
    return c < 0;
  }
  if (const int c = std::strcmp(a.category, b.category); c != 0) {
    return c < 0;
  }
  if (a.dur != b.dur) {
    return a.dur < b.dur;
  }
  if (a.num_args != b.num_args) {
    return a.num_args < b.num_args;
  }
  for (uint32_t i = 0; i < a.num_args; ++i) {
    if (const int c = std::strcmp(a.args[i].key, b.args[i].key); c != 0) {
      return c < 0;
    }
    if (a.args[i].value != b.args[i].value) {
      return a.args[i].value < b.args[i].value;
    }
  }
  if (a.trace_id != b.trace_id) {
    return a.trace_id < b.trace_id;
  }
  if (a.span_id != b.span_id) {
    return a.span_id < b.span_id;
  }
  return a.parent_span_id < b.parent_span_id;
}

ThreadSpanBuffer& LocalBuffer() {
  static thread_local ThreadSpanBuffer buffer;
  return buffer;
}

}  // namespace

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();  // intentionally leaked
  return *tracer;
}

void Tracer::Record(const Span& span) { LocalBuffer().Append(span); }

void Tracer::RegisterBuffer(ThreadSpanBuffer* buffer) {
  MutexLock lock(registry_mu_);
  buffers_.push_back(buffer);
}

void Tracer::UnregisterBuffer(ThreadSpanBuffer* buffer) {
  std::vector<Span> remaining;
  {
    MutexLock lock(registry_mu_);
    buffers_.erase(std::remove(buffers_.begin(), buffers_.end(), buffer), buffers_.end());
    MutexLock buffer_lock(buffer->mu);
    remaining = std::move(buffer->spans);
    buffer->spans.clear();
  }
  if (!remaining.empty()) {
    PushChunk(std::move(remaining));
  }
}

void Tracer::PushChunk(std::vector<Span> spans) {
  auto* chunk = new Chunk{std::move(spans), nullptr};
  Chunk* head = chunks_.load(std::memory_order_relaxed);
  do {
    chunk->next = head;
  } while (!chunks_.compare_exchange_weak(head, chunk, std::memory_order_release,
                                          std::memory_order_relaxed));
}

std::vector<Span> Tracer::Drain() {
  std::vector<Span> out;
  // Steal the live threads' partial buffers first, so their contents cannot
  // race past the chunk-stack exchange below as a fresh flush.
  {
    MutexLock lock(registry_mu_);
    for (ThreadSpanBuffer* buffer : buffers_) {
      MutexLock buffer_lock(buffer->mu);
      out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
      buffer->spans.clear();
    }
  }
  Chunk* head = chunks_.exchange(nullptr, std::memory_order_acquire);
  while (head != nullptr) {
    out.insert(out.end(), head->spans.begin(), head->spans.end());
    Chunk* next = head->next;
    delete head;
    head = next;
  }
  std::sort(out.begin(), out.end(), SpanLess);
  return out;
}

void Tracer::Clear() { Drain(); }

ThreadSpanBuffer::ThreadSpanBuffer() { Tracer::Default().RegisterBuffer(this); }

ThreadSpanBuffer::~ThreadSpanBuffer() { Tracer::Default().UnregisterBuffer(this); }

void ThreadSpanBuffer::Append(const Span& span) {
  std::vector<Span> full;
  {
    MutexLock lock(mu);
    spans.push_back(span);
    if (spans.size() < kFlushThreshold) {
      return;
    }
    full = std::move(spans);
    spans.clear();
    spans.reserve(kFlushThreshold);
  }
  Tracer::Default().PushChunk(std::move(full));
}

void RecordInstant(const char* name, const char* category, SimTime ts, int32_t lane) {
  if (!TraceEnabled()) {
    return;
  }
  Span span;
  span.name = name;
  span.category = category;
  span.ts = ts;
  span.lane = lane;
  span.dur = kInstantDuration;
  Tracer::Default().Record(span);
}

void RecordInstant(const char* name, const char* category, SimTime ts, int32_t lane,
                   const TraceContext& ctx) {
  if (!TraceEnabled() || ctx.dropped()) {
    return;
  }
  Span span;
  span.name = name;
  span.category = category;
  span.ts = ts;
  span.lane = lane;
  span.dur = kInstantDuration;
  span.trace_id = ctx.trace_id;
  span.span_id = ctx.span_id;
  span.parent_span_id = ctx.parent_span_id;
  Tracer::Default().Record(span);
}

}  // namespace medes::obs
