// Critical-path analysis over sampled trace spans.
//
// Reconstructs each sampled request's span tree from the trace/span/parent
// ids the causal-tracing layer stamps (obs/trace_context.h), then attributes
// every microsecond of a root span's interval to exactly one stage:
//
//   - children are visited in (ts, span_id) order and clipped to the portion
//     of the parent's window not already covered by an earlier sibling (a
//     left-to-right sweep), so sibling overlap — parallel fan-out like
//     per-owner-node RDMA batches — is never double-counted;
//   - time not covered by any child is the parent's *self* time;
//   - the per-stage self times of one trace therefore sum exactly to the
//     root span's duration, which is what lets the bench gate assert that
//     attribution fractions sum to ~1 of the measured latency.
//
// Everything here is a pure function of the span set: given the same spans
// (bit-identical across MEDES_THREADS by the tracing determinism contract),
// trees, attributions, and summaries are bit-identical too.
#ifndef MEDES_OBS_CRITICAL_PATH_H_
#define MEDES_OBS_CRITICAL_PATH_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace medes::obs {

struct TraceNode {
  size_t span = 0;  // index into the span vector passed to BuildTraceTrees
  std::vector<size_t> children;  // node indexes, (ts, span_id)-ordered
};

struct TraceTree {
  uint64_t trace_id = 0;
  size_t root = 0;  // node index
  std::vector<TraceNode> nodes;
  // Spans whose parent_span_id did not resolve to a recorded span (or extra
  // parentless spans besides the root): attached under the root and counted.
  size_t unresolved_parents = 0;
};

// Groups spans carrying a nonzero trace id into one tree per trace, ordered
// by ascending trace id. The root is the span whose id equals the trace id
// (minting makes the root span id the trace id); a trace missing it falls
// back to its earliest parentless span. Untraced spans (trace_id == 0) are
// ignored.
[[nodiscard]] std::vector<TraceTree> BuildTraceTrees(const std::vector<Span>& spans);

// First node (in (ts, span_id) order) whose span name equals `name`, or
// nullopt. Used to re-root attribution at an interior op (e.g. "restore_op").
[[nodiscard]] std::optional<size_t> FindNode(const std::vector<Span>& spans,
                                            const TraceTree& tree, const char* name);

struct StageSelf {
  std::string stage;   // span name
  int64_t self_us = 0; // exclusive time attributed to this stage
};

struct TraceAttribution {
  uint64_t trace_id = 0;
  int64_t total_us = 0;            // the attributed root's duration
  std::vector<StageSelf> stages;   // merged per stage name, name-sorted
};

// Attributes the interval of `node`'s span across its subtree (see file
// comment). The per-stage self times sum exactly to `total_us`.
[[nodiscard]] TraceAttribution AttributeSubtree(const std::vector<Span>& spans,
                                                const TraceTree& tree, size_t node);

// AttributeSubtree at the tree's root.
[[nodiscard]] TraceAttribution AttributeTrace(const std::vector<Span>& spans,
                                              const TraceTree& tree);

struct StageStats {
  std::string stage;
  uint64_t traces = 0;   // traces in which the stage appeared
  int64_t total_us = 0;  // summed self time across traces
  int64_t p50_us = 0;    // nearest-rank percentiles of per-trace self time
  int64_t p99_us = 0;
  double fraction = 0.0;  // total_us / sum of all traces' totals
};

struct AttributionSummary {
  uint64_t traces = 0;
  int64_t total_us = 0;  // sum of per-trace totals
  int64_t p50_total_us = 0;
  int64_t p99_total_us = 0;
  std::vector<StageStats> stages;    // name-sorted
  // Indexes into the summarized attribution vector: slowest first (total
  // duration descending, trace id ascending on ties), at most `top_k`.
  std::vector<size_t> top_slowest;
};

// Aggregates per-trace attributions: per-stage totals, nearest-rank P50/P99
// over per-trace self times, fractions of the grand total, and the top-k
// slowest traces.
[[nodiscard]] AttributionSummary Summarize(const std::vector<TraceAttribution>& attributions,
                                           size_t top_k);

}  // namespace medes::obs

#endif  // MEDES_OBS_CRITICAL_PATH_H_
