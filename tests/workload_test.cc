#include "workload/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/hash.h"

namespace medes {
namespace {

TEST(WorkloadTest, TraceIsSortedAndBounded) {
  TraceOptions opts;
  opts.duration = 10 * kMinute;
  auto trace = GenerateTrace(DefaultAzurePatterns(), opts);
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.time < b.time;
                             }));
  for (const TraceEvent& e : trace) {
    EXPECT_GE(e.time, SimTime{});
    EXPECT_LT(e.time, SimTime{} + opts.duration);
    EXPECT_GE(e.function, 0);
    EXPECT_LT(e.function, 10);
  }
}

TEST(WorkloadTest, Deterministic) {
  TraceOptions opts;
  opts.duration = 5 * kMinute;
  auto a = GenerateTrace(DefaultAzurePatterns(), opts);
  auto b = GenerateTrace(DefaultAzurePatterns(), opts);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].function, b[i].function);
  }
}

TEST(WorkloadTest, SeedChangesTrace) {
  TraceOptions a_opts, b_opts;
  a_opts.duration = b_opts.duration = 5 * kMinute;
  b_opts.seed = a_opts.seed + 1;
  auto a = GenerateTrace(DefaultAzurePatterns(), a_opts);
  auto b = GenerateTrace(DefaultAzurePatterns(), b_opts);
  EXPECT_NE(a.size(), b.size());
}

TEST(WorkloadTest, RateScaleIncreasesVolume) {
  TraceOptions small, large;
  small.duration = large.duration = 10 * kMinute;
  small.rate_scale = 1.0;
  large.rate_scale = 5.0;
  auto a = GenerateTrace(DefaultAzurePatterns(), small);
  auto b = GenerateTrace(DefaultAzurePatterns(), large);
  EXPECT_GT(b.size(), 3 * a.size());
}

TEST(WorkloadTest, PoissonRateRoughlyHonoured) {
  ArrivalPattern p;
  p.function = 0;
  p.kind = ArrivalKind::kPoisson;
  p.rate_per_s = 1.0;
  TraceOptions opts;
  opts.duration = kHour;
  opts.rate_scale = 1.0;
  auto trace = GenerateTrace({p}, opts);
  EXPECT_NEAR(static_cast<double>(trace.size()), 3600.0, 250.0);
}

TEST(WorkloadTest, PeriodicProducesRegularSpacing) {
  ArrivalPattern p;
  p.function = 1;
  p.kind = ArrivalKind::kPeriodic;
  p.rate_per_s = 1.0 / 60.0;
  p.jitter_fraction = 0.0;
  TraceOptions opts;
  opts.duration = kHour;
  opts.rate_scale = 1.0;
  auto trace = GenerateTrace({p}, opts);
  ASSERT_GE(trace.size(), 58u);
  for (size_t i = 1; i < trace.size(); ++i) {
    SimDuration gap = trace[i].time - trace[i - 1].time;
    EXPECT_NEAR(ToSeconds(gap), 60.0, 0.5);
  }
}

TEST(WorkloadTest, PeriodicScalingAddsStreams) {
  ArrivalPattern p;
  p.function = 1;
  p.kind = ArrivalKind::kPeriodic;
  p.rate_per_s = 1.0 / 60.0;
  TraceOptions one, five;
  one.duration = five.duration = kHour;
  one.rate_scale = 1.0;
  five.rate_scale = 5.0;
  auto a = GenerateTrace({p}, one);
  auto b = GenerateTrace({p}, five);
  EXPECT_NEAR(static_cast<double>(b.size()), 5.0 * static_cast<double>(a.size()),
              0.2 * static_cast<double>(b.size()));
}

TEST(WorkloadTest, BurstyHasQuietPeriods) {
  ArrivalPattern p;
  p.function = 2;
  p.kind = ArrivalKind::kBursty;
  p.rate_per_s = 1.0;
  p.mean_on = 30 * kSecond;
  p.mean_off = 300 * kSecond;
  TraceOptions opts;
  opts.duration = kHour;
  opts.rate_scale = 1.0;
  auto trace = GenerateTrace({p}, opts);
  ASSERT_GT(trace.size(), 5u);
  // There must exist gaps far longer than the ON-phase inter-arrival time.
  SimDuration max_gap;
  for (size_t i = 1; i < trace.size(); ++i) {
    max_gap = std::max(max_gap, trace[i].time - trace[i - 1].time);
  }
  EXPECT_GT(max_gap, kMinute);
}

// The merged runs must come out sorted by (time, function), the order an
// append-then-global-sort generator emits. TraceEvent is only (time,
// function), so sorting the generated trace by that key is the full oracle:
// if any run were merged out of place, re-sorting would change the sequence.
TEST(WorkloadTest, MergeMatchesGlobalSortOracle) {
  TraceOptions opts;
  opts.duration = 20 * kMinute;
  opts.rate_scale = 5.0;
  auto trace = GenerateTrace(DefaultAzurePatterns(), opts);
  ASSERT_FALSE(trace.empty());
  auto sorted = trace;
  std::sort(sorted.begin(), sorted.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.time != b.time ? a.time < b.time : a.function < b.function;
  });
  for (size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(trace[i].time, sorted[i].time) << "index " << i;
    ASSERT_EQ(trace[i].function, sorted[i].function) << "index " << i;
  }
}

// max_events keeps the *earliest* arrivals: the capped trace must be exactly
// the prefix of the uncapped one.
TEST(WorkloadTest, MaxEventsCapTruncatesEarliest) {
  TraceOptions opts;
  opts.duration = 10 * kMinute;
  auto full = GenerateTrace(DefaultAzurePatterns(), opts);
  ASSERT_GT(full.size(), 200u);

  opts.max_events = 200;
  auto capped = GenerateTrace(DefaultAzurePatterns(), opts);
  ASSERT_EQ(capped.size(), 200u);
  for (size_t i = 0; i < capped.size(); ++i) {
    EXPECT_EQ(capped[i].time, full[i].time);
    EXPECT_EQ(capped[i].function, full[i].function);
  }
}

// Order-sensitive digest of a trace's (time, function) sequence and length.
uint64_t TraceDigest(const std::vector<TraceEvent>& trace) {
  uint64_t h = HashCombine(kFnvOffsetBasis, trace.size());
  for (const TraceEvent& e : trace) {
    h = HashCombine(h, static_cast<uint64_t>(e.time.value()));
    h = HashCombine(h, static_cast<uint64_t>(e.function));
  }
  return h;
}

// Pins the generator's output, element for element, to digests recorded from
// the k-way-merge generator this one replaced: the default mix at the
// paper's 5x magnification and at the 100-node perfbench scale (26 periodic
// streams), three seeds each; a subset listed out of id order; and the
// max_events cut.
TEST(WorkloadTest, OutputMatchesRecordedDigests) {
  struct Case {
    uint64_t seed;
    double rate_scale;
    uint64_t digest;
  };
  const Case cases[] = {
      {0xa22e, 5.0, 0xca8aa9bb909c13f7ull}, {0xa22e, 5.0 * 100 / 19, 0x29531921a023ea37ull},
      {1, 5.0, 0x8614371fa35a8309ull},      {1, 5.0 * 100 / 19, 0xaaf7a55b7a657dc5ull},
      {2, 5.0, 0xe5a8daa5e2771f4full},      {2, 5.0 * 100 / 19, 0x7eac2a3c00116928ull},
  };
  for (const Case& c : cases) {
    TraceOptions opts;
    opts.duration = 15 * kMinute;
    opts.seed = c.seed;
    opts.rate_scale = c.rate_scale;
    EXPECT_EQ(TraceDigest(GenerateTrace(DefaultAzurePatterns(), opts)), c.digest)
        << "seed " << c.seed << " rate_scale " << c.rate_scale;
  }

  TraceOptions subset;
  EXPECT_EQ(TraceDigest(GenerateTrace(
                PatternsForFunctions({"ModelTrain", "LinAlg", "FeatureGen"}), subset)),
            0xad5873bf7a3ff9a8ull);

  TraceOptions capped;
  capped.duration = 10 * kMinute;
  capped.max_events = 500;
  EXPECT_EQ(TraceDigest(GenerateTrace(DefaultAzurePatterns(), capped)), 0x2d2cb3411eef94adull);
}

// Each of these inputs once hung, exhausted memory or returned an unsorted
// trace; all are rejected up front now.
TEST(WorkloadTest, BurstyWithZeroMeansRejected) {
  ArrivalPattern p;
  p.function = 2;
  p.kind = ArrivalKind::kBursty;
  p.mean_on = SimDuration{};
  p.mean_off = SimDuration{};
  EXPECT_THROW(GenerateTrace({p}, TraceOptions{}), std::invalid_argument);
  p.mean_off = 240 * kSecond;
  EXPECT_THROW(GenerateTrace({p}, TraceOptions{}), std::invalid_argument);
}

TEST(WorkloadTest, NegativePeriodicRateRejected) {
  ArrivalPattern p;
  p.function = 1;
  p.kind = ArrivalKind::kPeriodic;
  p.rate_per_s = -1;
  EXPECT_THROW(GenerateTrace({p}, TraceOptions{}), std::invalid_argument);
  p.rate_per_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(GenerateTrace({p}, TraceOptions{}), std::invalid_argument);
  p.kind = ArrivalKind::kPoisson;
  p.rate_per_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(GenerateTrace({p}, TraceOptions{}), std::invalid_argument);
}

TEST(WorkloadTest, PeriodicJitterOutsideUnitIntervalRejected) {
  ArrivalPattern p;
  p.function = 1;
  p.kind = ArrivalKind::kPeriodic;
  p.rate_per_s = 1.0;
  p.jitter_fraction = 1.5;
  EXPECT_THROW(GenerateTrace({p}, TraceOptions{}), std::invalid_argument);
  p.jitter_fraction = 1.0;
  EXPECT_THROW(GenerateTrace({p}, TraceOptions{}), std::invalid_argument);
  p.jitter_fraction = -0.1;
  EXPECT_THROW(GenerateTrace({p}, TraceOptions{}), std::invalid_argument);
}

TEST(WorkloadTest, BadOptionsRejected) {
  TraceOptions negative_duration;
  negative_duration.duration = SimDuration{-1};
  EXPECT_THROW(GenerateTrace(DefaultAzurePatterns(), negative_duration), std::invalid_argument);
  TraceOptions negative_scale;
  negative_scale.rate_scale = -5.0;
  EXPECT_THROW(GenerateTrace(DefaultAzurePatterns(), negative_scale), std::invalid_argument);
  TraceOptions nan_scale;
  nan_scale.rate_scale = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(GenerateTrace(DefaultAzurePatterns(), nan_scale), std::invalid_argument);
  // A periodic pattern runs int(rate_scale) timer streams; a scale whose
  // count does not fit an int is rejected rather than converted.
  ArrivalPattern timer;
  timer.function = 1;
  timer.kind = ArrivalKind::kPeriodic;
  TraceOptions huge_scale;
  huge_scale.rate_scale = 2147483648.0;  // 2^31
  EXPECT_THROW(GenerateTrace({timer}, huge_scale), std::invalid_argument);
  huge_scale.rate_scale = 1e300;
  EXPECT_THROW(GenerateTrace({timer}, huge_scale), std::invalid_argument);

  // The edges of the valid range still generate. At zero scale only the
  // periodic pattern emits (its one stream is never scaled below one), and a
  // zero duration emits nothing.
  TraceOptions zero_scale;
  zero_scale.rate_scale = 0;
  const auto timers = GenerateTrace(DefaultAzurePatterns(), zero_scale);
  ASSERT_FALSE(timers.empty());
  for (const TraceEvent& e : timers) {
    EXPECT_EQ(e.function, ProfileByName("LinAlg").id);
  }
  TraceOptions zero_duration;
  zero_duration.duration = SimDuration{};
  EXPECT_TRUE(GenerateTrace(DefaultAzurePatterns(), zero_duration).empty());
}

TEST(WorkloadTest, PatternsForFunctionsSubset) {
  auto subset = PatternsForFunctions({"LinAlg", "FeatureGen", "ModelTrain"});
  ASSERT_EQ(subset.size(), 3u);
  EXPECT_EQ(subset[0].function, ProfileByName("LinAlg").id);
  EXPECT_EQ(subset[2].function, ProfileByName("ModelTrain").id);
  EXPECT_THROW(PatternsForFunctions({"Nope"}), std::out_of_range);
}

TEST(WorkloadTest, CountPerFunction) {
  TraceOptions opts;
  opts.duration = 10 * kMinute;
  auto trace = GenerateTrace(DefaultAzurePatterns(), opts);
  auto counts = CountPerFunction(trace);
  size_t total = 0;
  for (size_t c : counts) {
    total += c;
  }
  EXPECT_EQ(total, trace.size());
  EXPECT_EQ(counts.size(), 10u);
}

TEST(WorkloadTest, AllTenFunctionsAppearInLongTrace) {
  TraceOptions opts;
  opts.duration = kHour;
  auto counts = CountPerFunction(GenerateTrace(DefaultAzurePatterns(), opts));
  for (size_t f = 0; f < counts.size(); ++f) {
    EXPECT_GT(counts[f], 0u) << "function " << f;
  }
}

}  // namespace
}  // namespace medes
