// Per-request causal trace identity (Dapper-style), propagated from the
// platform's arrival handler through the dedup agent, registry, RDMA fabric
// and transport so every span of one invocation shares a trace id and links
// to its parent span.
//
// A TraceContext is three 64-bit values: the trace id (minted once per
// request from the platform's serial request sequence), the current span id,
// and the parent span id. Child contexts are derived with Child(name,
// ordinal) — a pure mix of (trace id, parent span id, name hash, ordinal) —
// so ids are reproducible at any thread count: two runs that record the same
// spans assign them the same ids, byte for byte.
//
// Contexts are tri-state:
//   - sampled   (trace_id != 0): spans record and carry ids.
//   - untraced  (all zero, the default): legacy call sites with no caller
//     context; spans record exactly as before this layer existed, without
//     ids. Child() of an untraced context is untraced.
//   - dropped   (trace_id == 0, span_id != 0): the request was minted but
//     lost the sampling draw; every downstream span is suppressed so
//     million-request campaigns stay cheap under MEDES_TRACE_SAMPLE=1/N.
//
// Sampling is head-based and deterministic: the keep/drop decision is a pure
// function of the trace id (itself a pure function of the request sequence
// number), never of thread timing, so the sampled span set is bit-identical
// across MEDES_THREADS settings and across runs.
#ifndef MEDES_OBS_TRACE_CONTEXT_H_
#define MEDES_OBS_TRACE_CONTEXT_H_

#include <cstdint>

#include "common/time.h"
#include "obs/obs.h"

namespace medes::obs {

namespace internal {

// SplitMix64 finalizer (same constants as common/rng.h): a strong 64-bit
// mixer, constexpr so id derivation is a compile-time-checkable pure function.
constexpr uint64_t MixTraceBits(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a over the span name: names are string literals, so hashing the
// characters (not the pointer) keeps ids stable across builds and TUs.
constexpr uint64_t HashSpanName(const char* s) {
  uint64_t h = 0xcbf29ce484222325ull;
  while (*s != '\0') {
    h ^= static_cast<unsigned char>(*s++);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Ids are masked to 63 bits so they export as non-negative JSON integers.
inline constexpr uint64_t kSpanIdMask = 0x7fffffffffffffffull;

}  // namespace internal

struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;

  bool sampled() const { return trace_id != 0; }
  bool dropped() const { return trace_id == 0 && span_id != 0; }

  static TraceContext Dropped() { return TraceContext{0, 1, 0}; }

  // Derives the context for a child span. `ordinal` disambiguates siblings
  // that share a name (batch index, read index); it must be a
  // deterministic function of the work item, never of scheduling order.
  TraceContext Child(const char* name, uint64_t ordinal = 0) const {
    if (trace_id == 0) {
      return *this;  // untraced stays untraced; dropped stays dropped
    }
    uint64_t id = internal::MixTraceBits(trace_id ^ (span_id * 0x9e3779b97f4a7c15ull) ^
                                         internal::HashSpanName(name) ^
                                         ordinal * 0xff51afd7ed558ccdull) &
                  internal::kSpanIdMask;
    if (id == 0) {
      id = 1;
    }
    return TraceContext{trace_id, id, span_id};
  }
};

// Trace envelope for a transport message: the PARENT context of the message
// span (the callee derives the per-message child), the modelled send time in
// the caller's timeline, and a caller-chosen ordinal disambiguating multiple
// messages under the same parent. Layers that fan one logical request into
// several wire messages (per-owner-node RDMA batches) fold their own index
// into `ordinal` before forwarding.
struct MessageTrace {
  TraceContext ctx;
  SimTime at{};
  uint64_t ordinal = 0;
};

// Mints the root context for request number `seq`. The trace id is a
// SplitMix64 mix of the sequence number; the root span id equals the trace
// id. Returns an untraced context when tracing is off, and a Dropped()
// context when the id loses the 1-in-TraceSampleEvery() draw.
inline TraceContext MintTraceContext(uint64_t seq) {
  if (!TraceEnabled()) {
    return TraceContext{};
  }
  uint64_t id = internal::MixTraceBits(seq ^ 0x6d65646573ull) & internal::kSpanIdMask;
  if (id == 0) {
    id = 1;
  }
  const uint32_t every = TraceSampleEvery();
  if (every > 1 && internal::MixTraceBits(id) % every != 0) {
    return TraceContext::Dropped();
  }
  return TraceContext{id, id, 0};
}

}  // namespace medes::obs

#endif  // MEDES_OBS_TRACE_CONTEXT_H_
