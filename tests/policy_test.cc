#include "policy/medes_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <random>
#include <vector>

#include "policy/keep_alive.h"

namespace medes {
namespace {

MedesPolicyInputs TypicalInputs() {
  MedesPolicyInputs in;
  in.total_sandboxes = 10;
  in.lambda_max = 2.0;
  in.reuse_warm_s = 0.5;
  in.reuse_dedup_s = 0.8;
  in.warm_mb = 32;
  in.dedup_mb = 12;
  in.restore_overhead_mb = 6;
  in.warm_start_s = 0.01;
  in.dedup_start_s = 0.2;
  return in;
}

TEST(MedesPolicyMathTest, AverageStartupLatencyBounds) {
  auto in = TypicalInputs();
  // All warm -> sW; all dedup -> sD; mixtures in between.
  EXPECT_DOUBLE_EQ(AverageStartupLatency(in, 10, 0), in.warm_start_s);
  EXPECT_DOUBLE_EQ(AverageStartupLatency(in, 0, 10), in.dedup_start_s);
  double mid = AverageStartupLatency(in, 5, 5);
  EXPECT_GT(mid, in.warm_start_s);
  EXPECT_LT(mid, in.dedup_start_s);
  // Monotone in W.
  EXPECT_LT(AverageStartupLatency(in, 8, 2), AverageStartupLatency(in, 2, 8));
}

TEST(MedesPolicyMathTest, MemoryFootprint) {
  auto in = TypicalInputs();
  EXPECT_DOUBLE_EQ(MemoryFootprintMb(in, 10, 0), 320.0);
  EXPECT_DOUBLE_EQ(MemoryFootprintMb(in, 0, 10), 180.0);
  EXPECT_DOUBLE_EQ(MemoryFootprintMb(in, 4, 6), 4 * 32.0 + 6 * 18.0);
}

TEST(MedesPolicyMathTest, ServiceableRate) {
  auto in = TypicalInputs();
  EXPECT_DOUBLE_EQ(ServiceableRate(in, 10, 0), 20.0);
  EXPECT_NEAR(ServiceableRate(in, 0, 10), 12.5, 1e-9);
}

TEST(SolveLatencyTest, LooseTargetDedupsEverything) {
  auto in = TypicalInputs();
  // alpha so large any split passes the latency bound -> min memory = all dedup.
  auto t = SolveLatencyObjective(in, 1000.0);
  ASSERT_TRUE(t.feasible);
  EXPECT_EQ(t.warm, 0);
  EXPECT_EQ(t.dedup, 10);
}

TEST(SolveLatencyTest, TightTargetKeepsWarm) {
  auto in = TypicalInputs();
  // alpha = 1 means S <= sW, only achievable with zero dedup starts.
  auto t = SolveLatencyObjective(in, 1.0);
  ASSERT_TRUE(t.feasible);
  EXPECT_EQ(t.dedup, 0);
  EXPECT_EQ(t.warm, 10);
}

TEST(SolveLatencyTest, IntermediateTargetMixes) {
  auto in = TypicalInputs();
  // Permit a mild latency inflation -> some dedups allowed.
  auto t = SolveLatencyObjective(in, 5.0);
  ASSERT_TRUE(t.feasible);
  EXPECT_GT(t.dedup, 0);
  EXPECT_GT(t.warm, 0);
  double s = AverageStartupLatency(in, t.warm, t.dedup);
  EXPECT_LE(s, 5.0 * in.warm_start_s + 1e-12);
  // It picked the max dedup satisfying the bound: one more dedup violates it.
  EXPECT_GT(AverageStartupLatency(in, t.warm - 1, t.dedup + 1), 5.0 * in.warm_start_s);
}

TEST(SolveLatencyTest, RateConstraintBlocksFullDedup) {
  auto in = TypicalInputs();
  in.lambda_max = 15.0;  // all-dedup serves only 12.5 req/s
  auto t = SolveLatencyObjective(in, 1000.0);
  ASSERT_TRUE(t.feasible);
  EXPECT_GE(ServiceableRate(in, t.warm, t.dedup), 15.0);
  EXPECT_GT(t.warm, 0);
}

TEST(SolveLatencyTest, InfeasibleWhenRateTooHigh) {
  auto in = TypicalInputs();
  in.lambda_max = 100.0;  // even all-warm only serves 20 req/s
  auto t = SolveLatencyObjective(in, 1000.0);
  EXPECT_FALSE(t.feasible);
}

TEST(SolveLatencyTest, ZeroSandboxesFeasibleOnlyAtZeroRate) {
  auto in = TypicalInputs();
  in.total_sandboxes = 0;
  in.lambda_max = 0.0;
  auto t = SolveLatencyObjective(in, 10.0);
  // W = D = 0 satisfies the rate constraint vacuously, but S is infinite;
  // the policy must not claim a latency-feasible split.
  EXPECT_FALSE(t.feasible);
}

TEST(SolveMemoryTest, GenerousCapKeepsAllWarm) {
  auto in = TypicalInputs();
  auto t = SolveMemoryObjective(in, 10000.0);
  ASSERT_TRUE(t.feasible);
  EXPECT_EQ(t.warm, 10);
}

TEST(SolveMemoryTest, TightCapForcesDedup) {
  auto in = TypicalInputs();
  auto t = SolveMemoryObjective(in, 200.0);  // all-warm needs 320
  ASSERT_TRUE(t.feasible);
  EXPECT_LE(MemoryFootprintMb(in, t.warm, t.dedup), 200.0);
  EXPECT_GT(t.dedup, 0);
  // Best latency under the cap: one more warm would blow the budget.
  EXPECT_GT(MemoryFootprintMb(in, t.warm + 1, t.dedup - 1), 200.0);
}

TEST(SolveMemoryTest, ImpossibleCapInfeasible) {
  auto in = TypicalInputs();
  auto t = SolveMemoryObjective(in, 100.0);  // even all-dedup needs 180
  EXPECT_FALSE(t.feasible);
}

TEST(SolveCombinedTest, BothConstraintsBind) {
  auto in = TypicalInputs();
  // Loose on both -> all dedup (min memory).
  auto loose = SolveCombinedObjective(in, 1000.0, 10000.0);
  ASSERT_TRUE(loose.feasible);
  EXPECT_EQ(loose.dedup, 10);
  // Tight latency forbids dedup even though the cap allows it.
  auto tight_latency = SolveCombinedObjective(in, 1.0, 10000.0);
  ASSERT_TRUE(tight_latency.feasible);
  EXPECT_EQ(tight_latency.dedup, 0);
  // Cap below all-warm with loose latency -> dedup to fit.
  auto tight_cap = SolveCombinedObjective(in, 1000.0, 250.0);
  ASSERT_TRUE(tight_cap.feasible);
  EXPECT_LE(MemoryFootprintMb(in, tight_cap.warm, tight_cap.dedup), 250.0);
  // Contradictory constraints -> infeasible.
  auto impossible = SolveCombinedObjective(in, 1.0, 250.0);
  EXPECT_FALSE(impossible.feasible);
}

TEST(SolveCombinedTest, SubsumesP1WhenCapIsLoose) {
  auto in = TypicalInputs();
  for (double alpha : {1.0, 2.5, 5.0, 20.0}) {
    auto p1 = SolveLatencyObjective(in, alpha);
    auto combined = SolveCombinedObjective(in, alpha, 1e18);
    EXPECT_EQ(p1.feasible, combined.feasible) << alpha;
    if (p1.feasible) {
      EXPECT_EQ(p1.warm, combined.warm) << alpha;
      EXPECT_EQ(p1.dedup, combined.dedup) << alpha;
    }
  }
}

TEST(AdaptiveKeepAliveTest, DefaultUntilEnoughSamples) {
  AdaptiveKeepAlive ka;
  EXPECT_EQ(ka.KeepAlive(), 10 * kMinute);
  for (int i = 0; i < 4; ++i) {
    ka.RecordArrival(SimTime{} + i * kSecond);
  }
  EXPECT_EQ(ka.KeepAlive(), 10 * kMinute) << "still below min_samples";
}

TEST(AdaptiveKeepAliveTest, TracksSteadyInterArrivals) {
  AdaptiveKeepAlive ka;
  for (int i = 0; i < 20; ++i) {
    ka.RecordArrival(SimTime{} + i * 10 * kSecond);
  }
  // p90 of IATs is 10 s; window = 11 s, clamped to >= 30 s.
  EXPECT_EQ(ka.KeepAlive(), 30 * kSecond);
}

TEST(AdaptiveKeepAliveTest, ClampsToMaxWindow) {
  AdaptiveKeepAlive ka;
  for (int i = 0; i < 20; ++i) {
    ka.RecordArrival(SimTime{} + i * kHour);
  }
  EXPECT_EQ(ka.KeepAlive(), 10 * kMinute);
}

TEST(AdaptiveKeepAliveTest, HistoryIsBounded) {
  AdaptiveKeepAliveOptions opts;
  opts.max_samples = 10;
  AdaptiveKeepAlive ka(opts);
  for (int i = 0; i < 100; ++i) {
    ka.RecordArrival(SimTime{} + i * kSecond);
  }
  EXPECT_EQ(ka.NumSamples(), 10u);
}

// KeepAlive selects the coverage rank with nth_element; it must return what
// the sort-based rule returns: sort the window, take element
// ceil(p * n) - 1, scale by the margin, clamp. Gaps come from a small set so
// the windows hold many equal IATs, and the window is wide so clamping does
// not hide a wrong rank.
TEST(AdaptiveKeepAliveTest, RankSelectionMatchesSortedRule) {
  std::mt19937_64 rng(0x1a7);
  for (double coverage : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    for (size_t max_samples : {size_t{9}, size_t{64}, size_t{512}}) {
      AdaptiveKeepAliveOptions opts;
      opts.coverage_percentile = coverage;
      opts.max_samples = max_samples;
      opts.min_window = SimDuration{};
      opts.max_window = 1000 * kHour;
      AdaptiveKeepAlive ka(opts);
      std::deque<SimDuration> window;
      SimTime now;
      ka.RecordArrival(now);
      for (int step = 0; step < 1500; ++step) {
        const SimDuration gap = (1 + static_cast<int64_t>(rng() % 6)) * kSecond;
        now += gap;
        ka.RecordArrival(now);
        window.push_back(gap);
        if (window.size() > max_samples) {
          window.pop_front();
        }
        SimDuration want = opts.default_window;
        if (window.size() >= opts.min_samples) {
          std::vector<SimDuration> sorted(window.begin(), window.end());
          std::sort(sorted.begin(), sorted.end());
          size_t rank = static_cast<size_t>(
              std::ceil(coverage * static_cast<double>(sorted.size())));
          rank = std::min(rank > 0 ? rank - 1 : 0, sorted.size() - 1);
          want = std::clamp(
              SimDuration{static_cast<int64_t>(static_cast<double>(sorted[rank].value()) *
                                               opts.margin)},
              opts.min_window, opts.max_window);
        }
        ASSERT_EQ(ka.KeepAlive(), want)
            << "coverage " << coverage << " max_samples " << max_samples << " step " << step;
      }
    }
  }
}

TEST(RateTrackerTest, MaxAndMeanRates) {
  RateTracker tracker(10 * kSecond, 6);  // 1-minute window
  // 5 arrivals in the first 10 s bucket.
  for (int i = 0; i < 5; ++i) {
    tracker.RecordArrival(SimTime{} + i * kSecond);
  }
  // 1 arrival in the next bucket.
  tracker.RecordArrival(SimTime{} + 15 * kSecond);
  EXPECT_DOUBLE_EQ(tracker.MaxRate(SimTime{} + 20 * kSecond), 0.5);
  EXPECT_DOUBLE_EQ(tracker.MeanRate(SimTime{} + 20 * kSecond), 6.0 / 60.0);
}

TEST(RateTrackerTest, OldBucketsExpire) {
  RateTracker tracker(10 * kSecond, 3);
  for (int i = 0; i < 9; ++i) {
    tracker.RecordArrival(SimTime{} + kSecond);
  }
  EXPECT_GT(tracker.MaxRate(SimTime{} + 2 * kSecond), 0.0);
  EXPECT_DOUBLE_EQ(tracker.MaxRate(SimTime{} + 10 * kMinute), 0.0);
}

TEST(RateTrackerTest, EmptyTrackerIsZero) {
  RateTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.MaxRate(SimTime{}), 0.0);
  EXPECT_DOUBLE_EQ(tracker.MeanRate(SimTime{}), 0.0);
}

TEST(FixedKeepAliveTest, ReturnsConfiguredPeriod) {
  FixedKeepAlive ka(5 * kMinute);
  EXPECT_EQ(ka.KeepAlive(), 5 * kMinute);
  EXPECT_EQ(FixedKeepAlive().KeepAlive(), 10 * kMinute);
}

// Property sweep: for every alpha the solver's answer respects all
// constraints it claims to satisfy.
class AlphaSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweepTest, SolutionsRespectConstraints) {
  auto in = TypicalInputs();
  auto t = SolveLatencyObjective(in, GetParam());
  if (t.feasible) {
    EXPECT_EQ(t.warm + t.dedup, in.total_sandboxes);
    EXPECT_GE(ServiceableRate(in, t.warm, t.dedup), in.lambda_max);
    EXPECT_LE(AverageStartupLatency(in, t.warm, t.dedup),
              GetParam() * in.warm_start_s + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweepTest,
                         ::testing::Values(1.0, 1.5, 2.0, 2.5, 5.0, 10.0, 100.0));

}  // namespace
}  // namespace medes
