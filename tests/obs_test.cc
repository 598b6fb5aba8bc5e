// Unit tests for the observability subsystem: flags, instruments, the span
// tracer, and the Chrome-trace / metrics-JSON exporters.
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace medes::obs {
namespace {

// Every test runs with both knobs on and leaves global state empty.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    SetTraceEnabled(true);
    MetricsRegistry::Default().ResetValues();
    Tracer::Default().Clear();
  }
  void TearDown() override {
    MetricsRegistry::Default().ResetValues();
    Tracer::Default().Clear();
    SetMetricsEnabled(false);
    SetTraceEnabled(false);
  }
};

TEST_F(ObsTest, CounterRespectsEnableFlag) {
  Counter& c = MetricsRegistry::Default().GetCounter("obs_test_counter_total");
  c.Add(2);
  EXPECT_EQ(c.Value(), 2u);
  SetMetricsEnabled(false);
  c.Add(5);
  EXPECT_EQ(c.Value(), 2u);
  SetMetricsEnabled(true);
  c.Add(1);
  EXPECT_EQ(c.Value(), 3u);
}

TEST_F(ObsTest, RegistryReturnsSameInstrumentForSameNameAndLabel) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  Counter& a = registry.GetCounter("obs_test_dup_total", "k", "v1");
  Counter& b = registry.GetCounter("obs_test_dup_total", "k", "v1");
  Counter& other = registry.GetCounter("obs_test_dup_total", "k", "v2");
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
}

TEST_F(ObsTest, HistogramBucketsAndSum) {
  Histogram& h = MetricsRegistry::Default().GetHistogram("obs_test_hist_us");
  h.Record(0);   // bucket 0
  h.Record(1);   // bucket 1
  h.Record(3);   // bucket 2
  h.Record(3);   // bucket 2
  const HistogramValue v = h.Value();
  EXPECT_EQ(v.buckets[0], 1u);
  EXPECT_EQ(v.buckets[1], 1u);
  EXPECT_EQ(v.buckets[2], 2u);
  EXPECT_EQ(v.count, 4u);
  EXPECT_EQ(v.sum, 7);
}

TEST_F(ObsTest, SnapshotIsSortedByNameAndLabel) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  // Register deliberately out of order. The registry is process-wide, so
  // only this test's own series are checked: run as one binary, the earlier
  // tests' series are registered too.
  registry.GetCounter("obs_test_sort_z_total").Add(1);
  registry.GetCounter("obs_test_sort_a_total", "k", "v2").Add(1);
  registry.GetCounter("obs_test_sort_a_total", "k", "v1").Add(1);
  const auto snaps = MetricsRegistry::Default().Snapshot();
  std::vector<std::pair<std::string, std::string>> keys;
  for (const auto& s : snaps) {
    if (s.name.starts_with("obs_test_sort_")) {
      keys.emplace_back(s.name, s.label_value);
    }
  }
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], (std::pair<std::string, std::string>{"obs_test_sort_a_total", "v1"}));
  EXPECT_EQ(keys[1], (std::pair<std::string, std::string>{"obs_test_sort_a_total", "v2"}));
  EXPECT_EQ(keys[2], (std::pair<std::string, std::string>{"obs_test_sort_z_total", ""}));
}

TEST_F(ObsTest, ResetValuesKeepsRegistrations) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  Counter& c = registry.GetCounter("obs_test_reset_total");
  c.Add(9);
  const size_t instruments = registry.NumSeries();
  registry.ResetValues();
  EXPECT_EQ(c.Value(), 0u);
  EXPECT_EQ(registry.NumSeries(), instruments);
  // Same address after reset: cached references stay valid.
  EXPECT_EQ(&registry.GetCounter("obs_test_reset_total"), &c);
}

TEST_F(ObsTest, ScopedSpanRecordsOnDestruction) {
  {
    ScopedSpan span("unit/span", "test", SimTime{100}, 7);
    span.SetSimDuration(SimDuration{25});
    span.AddArg("pages", 42);
  }
  auto spans = Tracer::Default().Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "unit/span");
  EXPECT_STREQ(spans[0].category, "test");
  EXPECT_EQ(spans[0].ts, SimTime{100});
  EXPECT_EQ(spans[0].dur, SimDuration{25});
  EXPECT_EQ(spans[0].lane, 7);
  ASSERT_EQ(spans[0].num_args, 1u);
  EXPECT_STREQ(spans[0].args[0].key, "pages");
  EXPECT_EQ(spans[0].args[0].value, 42);
}

TEST_F(ObsTest, SpanNotRecordedWhenTracingDisabled) {
  SetTraceEnabled(false);
  {
    ScopedSpan span("unit/disabled", "test", SimTime{});
    span.SetSimDuration(SimDuration{1});
  }
  SetTraceEnabled(true);
  EXPECT_TRUE(Tracer::Default().Drain().empty());
}

TEST_F(ObsTest, DrainSortsByTimestampAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 300;  // crosses the flush threshold
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan span("unit/mt", "test", SimTime{i * kThreads + t}, t);
        span.SetSimDuration(SimDuration{1});
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  auto spans = Tracer::Default().Drain();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads * kSpansPerThread));
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].ts, spans[i].ts);
  }
  EXPECT_TRUE(Tracer::Default().Drain().empty());  // drain consumed everything
}

TEST_F(ObsTest, ChromeTraceJsonShape) {
  {
    ScopedSpan span("unit/json", "test", SimTime{10}, 2);
    span.SetSimDuration(SimDuration{5});
    span.AddArg("n", 3);
  }
  RecordInstant("unit/mark", "test", SimTime{11}, 2);
  const std::string json = ChromeTraceJson(Tracer::Default().Drain());
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit/json\",\"cat\":\"test\",\"ph\":\"X\",\"ts\":10,"
                      "\"dur\":5,\"pid\":0,\"tid\":2,\"args\":{\"n\":3}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit/mark\",\"cat\":\"test\",\"ph\":\"i\",\"ts\":11,"
                      "\"pid\":0,\"tid\":2,\"s\":\"t\""),
            std::string::npos);
}

// The `"buckets":[...]` array MetricsJson writes for a histogram whose only
// non-empty bucket is `bucket`, holding `count` observations.
std::string OneBucketArray(size_t bucket, uint64_t count) {
  std::string out = "\"buckets\":[";
  for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
    out += (b > 0 ? "," : "") + std::to_string(b == bucket ? count : 0);
  }
  return out + "]";
}

TEST_F(ObsTest, MetricsJsonShape) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.GetCounter("obs_test_json_total").Add(7);
  const std::string json = MetricsJson(registry.Snapshot());
  EXPECT_NE(json.find("{\"name\":\"obs_test_json_total\",\"kind\":\"counter\",\"value\":7}"),
            std::string::npos);
}

TEST_F(ObsTest, MetricsJsonLabelGaugeAndHistogramShape) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  registry.GetCounter("obs_test_json_labelled_total", "type", "x").Add(4);
  registry.GetGauge("obs_test_json_level").Set(-2);
  registry.GetHistogram("obs_test_json_us").Record(3);
  const std::string json = MetricsJson(registry.Snapshot());
  EXPECT_NE(json.find("{\"name\":\"obs_test_json_labelled_total\",\"kind\":\"counter\","
                      "\"type\":\"x\",\"value\":4}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"obs_test_json_level\",\"kind\":\"gauge\",\"value\":-2}"),
            std::string::npos);
  // Per-bucket counts: value 3 lands in the bit-width-2 bucket.
  EXPECT_NE(json.find("{\"name\":\"obs_test_json_us\",\"kind\":\"histogram\",\"count\":1,"
                      "\"sum\":3," +
                      OneBucketArray(2, 1) + "}"),
            std::string::npos);
}

std::vector<MetricSnapshot> SnapshotOf(const std::string& name) {
  std::vector<MetricSnapshot> out;
  for (auto& snap : MetricsRegistry::Default().Snapshot()) {
    if (snap.name == name) {
      out.push_back(snap);
    }
  }
  return out;
}

TEST_F(ObsTest, MetricsJsonEmptyRegistry) { EXPECT_EQ(MetricsJson({}), "[\n]\n"); }

TEST_F(ObsTest, MetricsJsonSingleBucketHistogram) {
  Histogram& h = MetricsRegistry::Default().GetHistogram("obs_test_edge_single_us");
  h.Record(0);  // only the first bucket is occupied
  EXPECT_EQ(MetricsJson(SnapshotOf("obs_test_edge_single_us")),
            "[\n{\"name\":\"obs_test_edge_single_us\",\"kind\":\"histogram\",\"count\":1,"
            "\"sum\":0," +
                OneBucketArray(0, 1) + "}\n]\n");
}

TEST_F(ObsTest, MetricsJsonOverflowOnlyObservations) {
  Histogram& h = MetricsRegistry::Default().GetHistogram("obs_test_edge_inf_us");
  const int64_t huge = int64_t{1} << (Histogram::kNumBuckets + 2);
  h.Record(huge);
  h.Record(huge);  // every finite bucket stays 0; only the overflow bucket advances
  EXPECT_EQ(MetricsJson(SnapshotOf("obs_test_edge_inf_us")),
            "[\n{\"name\":\"obs_test_edge_inf_us\",\"kind\":\"histogram\",\"count\":2,"
            "\"sum\":" +
                std::to_string(2 * huge) + "," + OneBucketArray(Histogram::kNumBuckets - 1, 2) +
                "}\n]\n");
}

// ---------------------------------------------------------------------------
// File-sink seam: exporters never touch the filesystem directly; every write
// goes through the installed FileSink (default: obs::WriteArtifactFile).
// ---------------------------------------------------------------------------

std::string* g_sink_path = nullptr;
std::string* g_sink_content = nullptr;

bool CaptureSink(const std::string& path, std::string_view content) {
  *g_sink_path = path;
  *g_sink_content = std::string(content);
  return true;
}

bool RejectSink(const std::string&, std::string_view) { return false; }

TEST_F(ObsTest, FileSinkSeamCapturesWrites) {
  std::string path;
  std::string content;
  g_sink_path = &path;
  g_sink_content = &content;
  SetFileSink(&CaptureSink);
  EXPECT_TRUE(WriteFile("capture/me.json", "payload"));
  SetFileSink(&RejectSink);
  EXPECT_FALSE(WriteFile("reject/me.json", "x"));
  SetFileSink(nullptr);  // restore the default artifact sink
  EXPECT_EQ(path, "capture/me.json");
  EXPECT_EQ(content, "payload");
}

}  // namespace
}  // namespace medes::obs
