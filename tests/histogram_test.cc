#include "common/histogram.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace medes {
namespace {

TEST(SampleRecorderTest, EmptyIsSafe) {
  SampleRecorder r;
  EXPECT_TRUE(r.Empty());
  EXPECT_EQ(r.Count(), 0u);
  EXPECT_EQ(r.Mean(), 0.0);
  EXPECT_EQ(r.Percentile(0.99), 0.0);
  EXPECT_EQ(r.Min(), 0.0);
  EXPECT_EQ(r.Max(), 0.0);
}

TEST(SampleRecorderTest, BasicStats) {
  SampleRecorder r;
  for (double v : {4.0, 1.0, 3.0, 2.0, 5.0}) {
    r.Record(v);
  }
  EXPECT_EQ(r.Count(), 5u);
  EXPECT_DOUBLE_EQ(r.Sum(), 15.0);
  EXPECT_DOUBLE_EQ(r.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(r.Min(), 1.0);
  EXPECT_DOUBLE_EQ(r.Max(), 5.0);
  EXPECT_DOUBLE_EQ(r.Median(), 3.0);
}

TEST(SampleRecorderTest, NearestRankPercentiles) {
  SampleRecorder r;
  for (int i = 1; i <= 100; ++i) {
    r.Record(i);
  }
  EXPECT_DOUBLE_EQ(r.Percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.Percentile(0.01), 1.0);
  EXPECT_DOUBLE_EQ(r.Percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(r.Percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(r.Percentile(1.0), 100.0);
}

TEST(SampleRecorderTest, PercentileAfterMoreRecords) {
  // The lazy sort cache must be invalidated by new samples.
  SampleRecorder r;
  r.Record(1.0);
  EXPECT_DOUBLE_EQ(r.Percentile(1.0), 1.0);
  r.Record(10.0);
  EXPECT_DOUBLE_EQ(r.Percentile(1.0), 10.0);
}

TEST(SampleRecorderTest, PercentileClampsP) {
  SampleRecorder r;
  r.Record(7.0);
  EXPECT_DOUBLE_EQ(r.Percentile(-1.0), 7.0);
  EXPECT_DOUBLE_EQ(r.Percentile(2.0), 7.0);
}

}  // namespace
}  // namespace medes
