// Unit tests for causal trace identity (obs/trace_context.h) and the
// critical-path analyzer (obs/critical_path.h): tree reconstruction from
// span ids, the left-to-right attribution sweep and its sum-to-root
// invariant, and the summary aggregation `campaign trace_attribution` reports.
#include "obs/critical_path.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace medes::obs {
namespace {

Span MakeSpan(const char* name, int64_t ts, int64_t dur, uint64_t trace_id, uint64_t span_id,
              uint64_t parent_span_id) {
  Span s;
  s.name = name;
  s.category = "test";
  s.ts = SimTime{ts};
  s.dur = SimDuration{dur};
  s.trace_id = trace_id;
  s.span_id = span_id;
  s.parent_span_id = parent_span_id;
  return s;
}

int64_t SelfOf(const TraceAttribution& attr, const std::string& stage) {
  for (const StageSelf& s : attr.stages) {
    if (s.stage == stage) {
      return s.self_us;
    }
  }
  return -1;
}

int64_t AttributedTotal(const TraceAttribution& attr) {
  int64_t total = 0;
  for (const StageSelf& s : attr.stages) {
    total += s.self_us;
  }
  return total;
}

// ---------------------------------------------------------------------------
// TraceContext derivation
// ---------------------------------------------------------------------------

TEST(TraceContextTest, ChildDerivationIsPureAndDistinct) {
  const TraceContext root{42, 42, 0};
  const TraceContext a = root.Child("stage_a");
  EXPECT_EQ(a.trace_id, 42u);
  EXPECT_EQ(a.parent_span_id, 42u);
  EXPECT_NE(a.span_id, 0u);
  // Pure: same inputs, same id. Distinct: name and ordinal both matter.
  EXPECT_EQ(root.Child("stage_a").span_id, a.span_id);
  EXPECT_NE(root.Child("stage_b").span_id, a.span_id);
  EXPECT_NE(root.Child("stage_a", 1).span_id, a.span_id);
  // Grandchildren chain the parent link.
  const TraceContext grandchild = a.Child("stage_c");
  EXPECT_EQ(grandchild.parent_span_id, a.span_id);
}

TEST(TraceContextTest, UntracedAndDroppedPropagate) {
  const TraceContext untraced;
  EXPECT_FALSE(untraced.sampled());
  EXPECT_FALSE(untraced.dropped());
  EXPECT_FALSE(untraced.Child("x").sampled());

  const TraceContext dropped = TraceContext::Dropped();
  EXPECT_FALSE(dropped.sampled());
  EXPECT_TRUE(dropped.dropped());
  EXPECT_TRUE(dropped.Child("x").dropped());
}

TEST(TraceContextTest, MintingIsDeterministicAndSampled) {
  SetTraceEnabled(true);
  SetTraceSampleEvery(1);
  const TraceContext a = MintTraceContext(7);
  const TraceContext b = MintTraceContext(7);
  EXPECT_TRUE(a.sampled());
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, a.trace_id);  // root span id is the trace id
  EXPECT_EQ(a.parent_span_id, 0u);
  EXPECT_NE(MintTraceContext(8).trace_id, a.trace_id);
  SetTraceEnabled(false);
  EXPECT_FALSE(MintTraceContext(7).sampled());
}

TEST(TraceContextTest, HeadSamplingIsDeterministicPerSequence) {
  SetTraceEnabled(true);
  SetTraceSampleEvery(4);
  size_t kept = 0;
  for (uint64_t seq = 0; seq < 4000; ++seq) {
    const TraceContext ctx = MintTraceContext(seq);
    EXPECT_TRUE(ctx.sampled() || ctx.dropped());
    EXPECT_EQ(ctx.sampled(), MintTraceContext(seq).sampled()) << seq;
    kept += ctx.sampled() ? 1 : 0;
  }
  // The draw is a hash mod N: expect roughly 1/4, generously bounded.
  EXPECT_GT(kept, 800u);
  EXPECT_LT(kept, 1200u);
  SetTraceSampleEvery(1);
  SetTraceEnabled(false);
}

TEST(TraceContextTest, DroppedContextSuppressesSpans) {
  SetTraceEnabled(true);
  Tracer::Default().Clear();
  {
    ScopedSpan kept("cp/kept", "test", SimTime{1}, 0, TraceContext{9, 9, 0});
    ScopedSpan untraced("cp/untraced", "test", SimTime{2}, 0, TraceContext{});
    ScopedSpan suppressed("cp/suppressed", "test", SimTime{3}, 0, TraceContext::Dropped());
  }
  const auto spans = Tracer::Default().Drain();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "cp/kept");
  EXPECT_EQ(spans[0].trace_id, 9u);
  EXPECT_STREQ(spans[1].name, "cp/untraced");
  EXPECT_EQ(spans[1].trace_id, 0u);
  SetTraceEnabled(false);
}

// ---------------------------------------------------------------------------
// Tree reconstruction
// ---------------------------------------------------------------------------

TEST(CriticalPathTest, BuildsOneTreePerTraceWithCanonicalRoots) {
  const std::vector<Span> spans = {
      MakeSpan("child", 10, 5, 2, 21, 2),
      MakeSpan("root_b", 0, 50, 7, 7, 0),
      MakeSpan("root_a", 0, 100, 2, 2, 0),
      MakeSpan("untraced", 0, 9, 0, 0, 0),  // ignored
  };
  const auto trees = BuildTraceTrees(spans);
  ASSERT_EQ(trees.size(), 2u);  // ascending trace id
  EXPECT_EQ(trees[0].trace_id, 2u);
  EXPECT_EQ(trees[1].trace_id, 7u);
  EXPECT_STREQ(spans[trees[0].nodes[trees[0].root].span].name, "root_a");
  EXPECT_STREQ(spans[trees[1].nodes[trees[1].root].span].name, "root_b");
  ASSERT_EQ(trees[0].nodes[trees[0].root].children.size(), 1u);
  EXPECT_EQ(trees[0].unresolved_parents, 0u);
  EXPECT_EQ(trees[1].unresolved_parents, 0u);
}

TEST(CriticalPathTest, ChildrenAreTimeOrderedWithinParents) {
  const std::vector<Span> spans = {
      MakeSpan("late", 30, 5, 1, 12, 1),
      MakeSpan("early", 5, 5, 1, 11, 1),
      MakeSpan("root", 0, 100, 1, 1, 0),
  };
  const auto trees = BuildTraceTrees(spans);
  ASSERT_EQ(trees.size(), 1u);
  const auto& children = trees[0].nodes[trees[0].root].children;
  ASSERT_EQ(children.size(), 2u);
  EXPECT_STREQ(spans[trees[0].nodes[children[0]].span].name, "early");
  EXPECT_STREQ(spans[trees[0].nodes[children[1]].span].name, "late");
}

TEST(CriticalPathTest, UnresolvedParentsAttachToRootAndAreCounted) {
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 100, 1, 1, 0),
      MakeSpan("orphan", 10, 5, 1, 33, 999),  // parent never recorded
  };
  const auto trees = BuildTraceTrees(spans);
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].unresolved_parents, 1u);
  EXPECT_EQ(trees[0].nodes[trees[0].root].children.size(), 1u);
}

TEST(CriticalPathTest, FindNodeReturnsEarliestMatch) {
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 100, 1, 1, 0),
      MakeSpan("op", 40, 5, 1, 12, 1),
      MakeSpan("op", 10, 5, 1, 11, 1),
  };
  const auto trees = BuildTraceTrees(spans);
  ASSERT_EQ(trees.size(), 1u);
  const auto node = FindNode(spans, trees[0], "op");
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(spans[trees[0].nodes[*node].span].ts, SimTime{10});
  EXPECT_FALSE(FindNode(spans, trees[0], "missing").has_value());
}

// ---------------------------------------------------------------------------
// Attribution sweep
// ---------------------------------------------------------------------------

TEST(CriticalPathTest, AttributionSumsExactlyToRootDuration) {
  // root [0,100): child_a [10,40), child_b [50,70) with grandchild [55,65).
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 100, 1, 1, 0),
      MakeSpan("child_a", 10, 30, 1, 11, 1),
      MakeSpan("child_b", 50, 20, 1, 12, 1),
      MakeSpan("grandchild", 55, 10, 1, 13, 12),
  };
  const auto trees = BuildTraceTrees(spans);
  ASSERT_EQ(trees.size(), 1u);
  const TraceAttribution attr = AttributeTrace(spans, trees[0]);
  EXPECT_EQ(attr.total_us, 100);
  EXPECT_EQ(AttributedTotal(attr), attr.total_us);  // the invariant
  EXPECT_EQ(SelfOf(attr, "root"), 50);        // 100 - 30 - 20
  EXPECT_EQ(SelfOf(attr, "child_a"), 30);
  EXPECT_EQ(SelfOf(attr, "child_b"), 10);     // 20 - grandchild's 10
  EXPECT_EQ(SelfOf(attr, "grandchild"), 10);
}

TEST(CriticalPathTest, OverlappingSiblingsAreNotDoubleCounted) {
  // Parallel fan-out: both children start at 10; the sweep credits the
  // first (by span id) with [10,60) and clips the second to [60,80).
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 100, 1, 1, 0),
      MakeSpan("fan_a", 10, 50, 1, 11, 1),
      MakeSpan("fan_b", 10, 70, 1, 12, 1),
  };
  const auto trees = BuildTraceTrees(spans);
  const TraceAttribution attr = AttributeTrace(spans, trees[0]);
  EXPECT_EQ(AttributedTotal(attr), 100);
  EXPECT_EQ(SelfOf(attr, "fan_a"), 50);
  EXPECT_EQ(SelfOf(attr, "fan_b"), 20);  // clipped to the uncovered tail
  EXPECT_EQ(SelfOf(attr, "root"), 30);
}

TEST(CriticalPathTest, ChildrenAreClippedToTheParentWindow) {
  // The child claims [90,130) but the root ends at 100.
  const std::vector<Span> spans = {
      MakeSpan("root", 0, 100, 1, 1, 0),
      MakeSpan("runaway", 90, 40, 1, 11, 1),
  };
  const auto trees = BuildTraceTrees(spans);
  const TraceAttribution attr = AttributeTrace(spans, trees[0]);
  EXPECT_EQ(AttributedTotal(attr), 100);
  EXPECT_EQ(SelfOf(attr, "runaway"), 10);
  EXPECT_EQ(SelfOf(attr, "root"), 90);
}

TEST(CriticalPathTest, InstantsOccupyNoTime) {
  std::vector<Span> spans = {
      MakeSpan("root", 0, 100, 1, 1, 0),
      MakeSpan("mark", 50, 0, 1, 11, 1),
  };
  spans[1].dur = kInstantDuration;
  const auto trees = BuildTraceTrees(spans);
  const TraceAttribution attr = AttributeTrace(spans, trees[0]);
  EXPECT_EQ(AttributedTotal(attr), 100);
  EXPECT_EQ(SelfOf(attr, "root"), 100);
  EXPECT_EQ(SelfOf(attr, "mark"), -1);  // never visited: zero-width window
}

TEST(CriticalPathTest, SubtreeAttributionReRootsAtAnInteriorOp) {
  const std::vector<Span> spans = {
      MakeSpan("request", 0, 1000, 1, 1, 0),
      MakeSpan("restore_op", 100, 200, 1, 11, 1),
      MakeSpan("restore/ws_fetch", 100, 50, 1, 12, 11),
  };
  const auto trees = BuildTraceTrees(spans);
  const auto node = FindNode(spans, trees[0], "restore_op");
  ASSERT_TRUE(node.has_value());
  const TraceAttribution attr = AttributeSubtree(spans, trees[0], *node);
  EXPECT_EQ(attr.total_us, 200);
  EXPECT_EQ(AttributedTotal(attr), 200);
  EXPECT_EQ(SelfOf(attr, "restore/ws_fetch"), 50);
  EXPECT_EQ(SelfOf(attr, "restore_op"), 150);
  EXPECT_EQ(SelfOf(attr, "request"), -1);  // outside the subtree
}

// ---------------------------------------------------------------------------
// Summaries
// ---------------------------------------------------------------------------

TEST(CriticalPathTest, SummarizeAggregatesStagesAndRanksSlowest) {
  std::vector<TraceAttribution> attrs(3);
  attrs[0] = {101, 100, {{"net", 40}, {"work", 60}}};
  attrs[1] = {102, 300, {{"net", 100}, {"work", 200}}};
  attrs[2] = {103, 200, {{"work", 200}}};
  const AttributionSummary summary = Summarize(attrs, 2);
  EXPECT_EQ(summary.traces, 3u);
  EXPECT_EQ(summary.total_us, 600);
  EXPECT_EQ(summary.p50_total_us, 200);
  EXPECT_EQ(summary.p99_total_us, 300);
  ASSERT_EQ(summary.stages.size(), 2u);  // name-sorted
  EXPECT_EQ(summary.stages[0].stage, "net");
  EXPECT_EQ(summary.stages[0].traces, 2u);
  EXPECT_EQ(summary.stages[0].total_us, 140);
  EXPECT_EQ(summary.stages[1].stage, "work");
  EXPECT_EQ(summary.stages[1].p99_us, 200);
  double fraction_sum = 0;
  for (const StageStats& s : summary.stages) {
    fraction_sum += s.fraction;
  }
  EXPECT_DOUBLE_EQ(fraction_sum, 1.0);
  // Slowest-first, capped at top_k.
  ASSERT_EQ(summary.top_slowest.size(), 2u);
  EXPECT_EQ(attrs[summary.top_slowest[0]].trace_id, 102u);
  EXPECT_EQ(attrs[summary.top_slowest[1]].trace_id, 103u);
}

TEST(CriticalPathTest, SummarizeOfNothingIsEmpty) {
  const AttributionSummary summary = Summarize({}, 10);
  EXPECT_EQ(summary.traces, 0u);
  EXPECT_EQ(summary.total_us, 0);
  EXPECT_TRUE(summary.stages.empty());
  EXPECT_TRUE(summary.top_slowest.empty());
}

}  // namespace
}  // namespace medes::obs
