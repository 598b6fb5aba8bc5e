#include "platform/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "platform/platform.h"

namespace medes {
namespace {

RunMetrics MakeMetrics() {
  RunMetrics m;
  m.per_function.resize(10);
  return m;
}

// One request of `function` whose end-to-end latency is `ms` milliseconds.
RequestRecord E2eRecord(FunctionId function, int ms) {
  RequestRecord r;
  r.function = function;
  r.e2e = ms * kMillisecond;
  return r;
}

TEST(MetricsTest, EmptyRunIsSafe) {
  RunMetrics m = MakeMetrics();
  EXPECT_EQ(m.TotalColdStarts(), 0u);
  EXPECT_EQ(m.TotalRequests(), 0u);
  EXPECT_DOUBLE_EQ(m.MeanMemoryMb(), 0.0);
  EXPECT_DOUBLE_EQ(m.MedianMemoryMb(), 0.0);
  EXPECT_DOUBLE_EQ(m.MeanSandboxesInMemory(), 0.0);
}

TEST(MetricsTest, ColdStartAggregation) {
  RunMetrics m = MakeMetrics();
  m.per_function[0].cold_starts = 3;
  m.per_function[4].cold_starts = 7;
  EXPECT_EQ(m.TotalColdStarts(), 10u);
}

TEST(MetricsTest, MemoryTimelineStatistics) {
  RunMetrics m = MakeMetrics();
  for (double v : {10.0, 20.0, 90.0}) {
    MemorySample s;
    s.used_mb = v;
    s.sandboxes = static_cast<uint64_t>(v);
    m.memory_timeline.push_back(s);
  }
  EXPECT_DOUBLE_EQ(m.MeanMemoryMb(), 40.0);
  EXPECT_DOUBLE_EQ(m.MedianMemoryMb(), 20.0);
  EXPECT_DOUBLE_EQ(m.MeanSandboxesInMemory(), 40.0);
}

TEST(MetricsTest, FunctionPercentile) {
  RunMetrics m = MakeMetrics();
  for (int i = 1; i <= 100; ++i) {
    m.requests.push_back(E2eRecord(2, i));
  }
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(2, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(2, 0.999), 100.0);
}

TEST(MetricsTest, ImprovementFactorsMatchedStreams) {
  RunMetrics a = MakeMetrics(), b = MakeMetrics();
  for (int i = 0; i < 5; ++i) {
    RequestRecord r;
    r.function = 0;
    r.arrival = SimTime{i};
    r.e2e = SimDuration{100};
    a.requests.push_back(r);
    r.e2e = SimDuration{250};
    b.requests.push_back(r);
  }
  auto factors = ImprovementFactors(a, b);
  ASSERT_EQ(factors.size(), 5u);
  for (double f : factors) {
    EXPECT_DOUBLE_EQ(f, 2.5);
  }
}

TEST(MetricsTest, FunctionPercentileExtremesAndEmpty) {
  RunMetrics m = MakeMetrics();
  // Empty recorder: percentile is defined as 0 at any p.
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 1.0), 0.0);
  for (int i = 1; i <= 100; ++i) {
    m.requests.push_back(E2eRecord(3, i));
  }
  // p=0 pins to the minimum sample, p=1 to the maximum.
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 1.0), 100.0);
}

// The per-function percentile is derived from `requests`; on real runs it
// must equal a plain sort-and-pick nearest-rank reference.
TEST(MetricsTest, FunctionPercentileMatchesSortedReference) {
  TraceOptions topts;
  topts.duration = 5 * kMinute;
  topts.rate_scale = 2.0;
  const auto trace = GenerateTrace(DefaultAzurePatterns(), topts);
  for (PolicyKind policy : {PolicyKind::kMedes, PolicyKind::kFixedKeepAlive}) {
    PlatformOptions opts = MakePlatformOptions(policy);
    opts.cluster.num_nodes = 4;
    opts.cluster.node_memory_mb = 1024;
    opts.cluster.bytes_per_mb = 4096;
    opts.medes.idle_period = 30 * kSecond;
    opts.medes.alpha = 8.0;
    const RunMetrics m = ServerlessPlatform(opts).Run(trace);
    ASSERT_FALSE(m.requests.empty());
    for (size_t f = 0; f < m.per_function.size(); ++f) {
      const auto id = static_cast<FunctionId>(f);
      std::vector<double> sorted;
      for (const RequestRecord& r : m.requests) {
        if (r.function == id) {
          sorted.push_back(ToMillis(r.e2e));
        }
      }
      std::sort(sorted.begin(), sorted.end());
      for (double p : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0}) {
        double expected = 0.0;
        if (!sorted.empty()) {
          const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size())));
          expected = sorted[rank > 0 ? rank - 1 : 0];
        }
        EXPECT_EQ(m.FunctionE2ePercentileMs(id, p), expected)
            << ToString(policy) << " function " << f << " p " << p;
      }
    }
    EXPECT_THROW(m.FunctionE2ePercentileMs(static_cast<FunctionId>(m.per_function.size()), 0.5),
                 std::out_of_range);
  }
}

TEST(MetricsTest, ImprovementFactorsRejectLengthMismatch) {
  RunMetrics a = MakeMetrics(), b = MakeMetrics();
  RequestRecord r;
  r.function = 0;
  r.arrival = SimTime{1};
  r.e2e = SimDuration{10};
  a.requests.push_back(r);
  a.requests.push_back(r);
  b.requests.push_back(r);  // one run has more requests than the other
  EXPECT_THROW(ImprovementFactors(a, b), std::invalid_argument);
  EXPECT_THROW(ImprovementFactors(b, a), std::invalid_argument);
}

TEST(MetricsTest, ImprovementFactorsSkipZeroLatencyRequests) {
  RunMetrics a = MakeMetrics(), b = MakeMetrics();
  RequestRecord r;
  r.function = 0;
  r.arrival = SimTime{1};
  r.e2e = SimDuration{0};  // degenerate record: excluded rather than dividing by zero
  a.requests.push_back(r);
  r.e2e = SimDuration{50};
  b.requests.push_back(r);
  EXPECT_TRUE(ImprovementFactors(a, b).empty());
}

TEST(MetricsTest, StartTypeToStringRoundTrip) {
  for (StartType type : {StartType::kWarm, StartType::kDedup, StartType::kCold}) {
    const auto parsed = StartTypeFromString(ToString(type));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(StartTypeFromString("lukewarm").has_value());
  EXPECT_FALSE(StartTypeFromString("").has_value());
  EXPECT_FALSE(StartTypeFromString("Warm").has_value());
}

TEST(MetricsTest, ImprovementFactorsRejectMisalignment) {
  RunMetrics a = MakeMetrics(), b = MakeMetrics();
  RequestRecord r;
  r.function = 0;
  r.arrival = SimTime{1};
  r.e2e = SimDuration{10};
  a.requests.push_back(r);
  r.arrival = SimTime{2};  // different arrival time => different trace
  b.requests.push_back(r);
  EXPECT_THROW(ImprovementFactors(a, b), std::invalid_argument);
  b.requests.push_back(r);
  EXPECT_THROW(ImprovementFactors(a, b), std::invalid_argument);
}

TEST(MetricsTest, FunctionMetricsTotals) {
  FunctionMetrics f;
  f.warm_starts = 5;
  f.dedup_starts = 3;
  f.cold_starts = 2;
  EXPECT_EQ(f.TotalRequests(), 10u);
}

}  // namespace
}  // namespace medes
