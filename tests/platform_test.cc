#include "platform/platform.h"

#include <gtest/gtest.h>

#include "common/hash.h"

namespace medes {
namespace {

PlatformOptions FastOptions(PolicyKind policy) {
  PlatformOptions opts = MakePlatformOptions(policy);
  opts.cluster.num_nodes = 4;
  opts.cluster.node_memory_mb = 1024;
  opts.cluster.bytes_per_mb = 4096;  // small images: fast tests
  opts.medes.idle_period = 30 * kSecond;
  opts.medes.alpha = 8.0;  // loose enough that dedup pays off at small scale
  return opts;
}

std::vector<TraceEvent> ShortTrace(SimDuration duration = 5 * kMinute) {
  TraceOptions topts;
  topts.duration = duration;
  topts.rate_scale = 2.0;
  return GenerateTrace(DefaultAzurePatterns(), topts);
}

TEST(PlatformTest, FixedKeepAliveServesAllRequests) {
  auto trace = ShortTrace();
  ServerlessPlatform platform(FastOptions(PolicyKind::kFixedKeepAlive));
  RunMetrics m = platform.Run(trace);
  EXPECT_EQ(m.TotalRequests(), trace.size());
  EXPECT_GT(m.TotalColdStarts(), 0u);
  // No dedup machinery under the baseline.
  EXPECT_EQ(m.dedup_ops, 0u);
  EXPECT_EQ(m.restores, 0u);
  for (const auto& f : m.per_function) {
    EXPECT_EQ(f.dedup_starts, 0u);
  }
}

TEST(PlatformTest, RequestsAccountedConsistently) {
  auto trace = ShortTrace();
  ServerlessPlatform platform(FastOptions(PolicyKind::kFixedKeepAlive));
  RunMetrics m = platform.Run(trace);
  uint64_t by_type = 0;
  for (const auto& f : m.per_function) {
    by_type += f.TotalRequests();
  }
  EXPECT_EQ(by_type, m.TotalRequests());
  // Every request has a positive end-to-end latency >= its startup latency.
  for (const auto& r : m.requests) {
    EXPECT_GT(r.e2e, SimDuration{});
    EXPECT_GE(r.e2e, r.startup);
  }
}

TEST(PlatformTest, MedesPerformsDedupsAndRestores) {
  auto trace = ShortTrace(8 * kMinute);
  ServerlessPlatform platform(FastOptions(PolicyKind::kMedes));
  RunMetrics m = platform.Run(trace);
  EXPECT_GT(m.dedup_ops, 0u);
  EXPECT_GT(m.base_designations, 0u);
  EXPECT_EQ(m.TotalRequests(), trace.size());
  EXPECT_GT(m.registry.num_keys, 0u);
}

TEST(PlatformTest, MedesRestoresVerifyByteExact) {
  // End-to-end: restores reconstruct the exact original memory images.
  PlatformOptions opts = FastOptions(PolicyKind::kMedes);
  opts.verify_restores = true;
  opts.medes.idle_period = 10 * kSecond;  // dedup aggressively
  TraceOptions topts;
  topts.duration = 4 * kMinute;
  topts.rate_scale = 2.0;
  auto trace = GenerateTrace(PatternsForFunctions({"Vanilla", "LinAlg"}), topts);
  ServerlessPlatform platform(opts);
  RunMetrics m = platform.Run(trace);  // throws on any reconstruction mismatch
  EXPECT_EQ(m.TotalRequests(), trace.size());
}

TEST(PlatformTest, WarmStartsDominateHotFunctions) {
  auto trace = ShortTrace();
  ServerlessPlatform platform(FastOptions(PolicyKind::kFixedKeepAlive));
  RunMetrics m = platform.Run(trace);
  // Vanilla is a steady Poisson source: after the first cold start, requests
  // should overwhelmingly be warm.
  const auto& vanilla = m.per_function[0];
  ASSERT_GT(vanilla.TotalRequests(), 20u);
  EXPECT_GT(vanilla.warm_starts, vanilla.cold_starts);
}

// A repeat run and a run at four pipeline threads both reproduce a serial
// reference run: same start decisions, same dedup work, same latencies.
TEST(PlatformTest, DeterministicAcrossRuns) {
  auto trace = ShortTrace();
  auto run = [&trace](size_t threads) {
    PlatformOptions options = FastOptions(PolicyKind::kMedes);
    options.agent.num_threads = threads;
    return ServerlessPlatform(options).Run(trace);
  };
  const RunMetrics a = run(1);
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const RunMetrics b = run(threads);
    EXPECT_EQ(a.TotalColdStarts(), b.TotalColdStarts());
    EXPECT_EQ(a.dedup_ops, b.dedup_ops);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.sandboxes_spawned, b.sandboxes_spawned);
    EXPECT_EQ(a.sandboxes_deduped, b.sandboxes_deduped);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.base_designations, b.base_designations);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (size_t i = 0; i < a.requests.size(); ++i) {
      ASSERT_EQ(a.requests[i].e2e, b.requests[i].e2e) << "request " << i;
      ASSERT_EQ(a.requests[i].start, b.requests[i].start) << "request " << i;
    }
  }
}

// Golden values for a fixed Medes run. Fire order, the streamed arrival feed
// and coalesced idle-expiry each move at least one of them, so a change to
// any of the three must re-derive these numbers deliberately.
TEST(PlatformTest, MedesShortTraceMatchesGoldenValues) {
  auto trace = ShortTrace(8 * kMinute);
  ServerlessPlatform platform(FastOptions(PolicyKind::kMedes));
  const RunMetrics m = platform.Run(trace);
  uint64_t warm = 0;
  uint64_t dedup = 0;
  uint64_t cold = 0;
  for (const FunctionMetrics& f : m.per_function) {
    warm += f.warm_starts;
    dedup += f.dedup_starts;
    cold += f.cold_starts;
  }
  EXPECT_EQ(warm, 14811u);
  EXPECT_EQ(dedup, 24u);
  EXPECT_EQ(cold, 582u);
  EXPECT_EQ(m.dedup_ops, 353u);
  EXPECT_EQ(m.restores, 24u);
  EXPECT_EQ(platform.sim().stats().fired, 47148u);
  EXPECT_EQ(m.transport.TotalBytes(), 3095432u);
}

// Order-sensitive hash of every request's arrival, latencies, function and
// start type: any change to which sandbox serves which request moves it.
uint64_t RequestStreamHash(const RunMetrics& m) {
  uint64_t h = 0;
  for (const RequestRecord& r : m.requests) {
    h = HashCombine(h, static_cast<uint64_t>(r.arrival.value()));
    h = HashCombine(h, static_cast<uint64_t>(r.startup.value()));
    h = HashCombine(h, static_cast<uint64_t>(r.e2e.value()));
    h = HashCombine(h, static_cast<uint64_t>(r.function));
    h = HashCombine(h, static_cast<uint64_t>(r.start));
  }
  return h;
}

struct StartCounts {
  uint64_t warm = 0;
  uint64_t dedup = 0;
  uint64_t cold = 0;
};

StartCounts CountStarts(const RunMetrics& m) {
  StartCounts c;
  for (const FunctionMetrics& f : m.per_function) {
    c.warm += f.warm_starts;
    c.dedup += f.dedup_starts;
    c.cold += f.cold_starts;
  }
  return c;
}

// Golden values for the keep-alive baselines. Warm-sandbox choice (most
// recently used, lowest id on a tie) and LRU eviction decide every start, so
// a change to either must re-derive these numbers deliberately.
TEST(PlatformTest, FixedKeepAliveShortTraceMatchesGoldenValues) {
  auto trace = ShortTrace(8 * kMinute);
  ServerlessPlatform platform(FastOptions(PolicyKind::kFixedKeepAlive));
  const RunMetrics m = platform.Run(trace);
  const StartCounts c = CountStarts(m);
  EXPECT_EQ(c.warm, 14816u);
  EXPECT_EQ(c.dedup, 0u);
  EXPECT_EQ(c.cold, 601u);
  EXPECT_EQ(m.sandboxes_spawned, 601u);
  EXPECT_EQ(m.evictions, 455u);
  EXPECT_EQ(platform.sim().stats().fired, 31088u);
  EXPECT_EQ(RequestStreamHash(m), 16380321898527846165ull);
}

TEST(PlatformTest, AdaptiveKeepAliveShortTraceMatchesGoldenValues) {
  auto trace = ShortTrace(8 * kMinute);
  ServerlessPlatform platform(FastOptions(PolicyKind::kAdaptiveKeepAlive));
  const RunMetrics m = platform.Run(trace);
  const StartCounts c = CountStarts(m);
  EXPECT_EQ(c.warm, 14750u);
  EXPECT_EQ(c.dedup, 0u);
  EXPECT_EQ(c.cold, 667u);
  EXPECT_EQ(m.sandboxes_spawned, 667u);
  EXPECT_EQ(m.evictions, 319u);
  EXPECT_EQ(platform.sim().stats().fired, 31290u);
  EXPECT_EQ(RequestStreamHash(m), 211825630430056172ull);
}

TEST(PlatformTest, RunTwiceRejected) {
  ServerlessPlatform platform(FastOptions(PolicyKind::kFixedKeepAlive));
  auto trace = ShortTrace(kMinute);
  platform.Run(trace);
  EXPECT_THROW(platform.Run(trace), std::logic_error);
}

TEST(PlatformTest, MemoryTimelineRespectsClusterLimit) {
  PlatformOptions opts = FastOptions(PolicyKind::kFixedKeepAlive);
  // Light load: running sandboxes alone never exceed the pool, so the limit
  // must hold strictly (overcommit is only legal when demand from *running*
  // sandboxes exceeds the pool).
  TraceOptions topts;
  topts.duration = 5 * kMinute;
  topts.rate_scale = 0.25;
  auto trace = GenerateTrace(DefaultAzurePatterns(), topts);
  ServerlessPlatform platform(opts);
  RunMetrics m = platform.Run(trace);
  ASSERT_FALSE(m.memory_timeline.empty());
  EXPECT_EQ(m.overcommit_events, 0u);
  const double limit = opts.cluster.node_memory_mb * opts.cluster.num_nodes;
  for (const auto& s : m.memory_timeline) {
    EXPECT_LE(s.used_mb, limit) << "at t=" << s.time;
  }
}

TEST(PlatformTest, CatalyzerEmulationShortensColdStarts) {
  auto trace = ShortTrace();
  PlatformOptions base = FastOptions(PolicyKind::kFixedKeepAlive);
  PlatformOptions cat = FastOptions(PolicyKind::kFixedKeepAlive);
  cat.emulate_catalyzer = true;
  RunMetrics m_base = ServerlessPlatform(base).Run(trace);
  RunMetrics m_cat = ServerlessPlatform(cat).Run(trace);
  // Cheaper starts free sandboxes sooner, so the catalyzer run never needs
  // more spawns than the baseline (modulo timing-shift noise).
  EXPECT_LE(m_cat.TotalColdStarts(), m_base.TotalColdStarts() + m_base.TotalColdStarts() / 10);
  double p_base = m_base.FunctionE2ePercentileMs(9, 0.999);
  double p_cat = m_cat.FunctionE2ePercentileMs(9, 0.999);
  EXPECT_LE(p_cat, p_base);
}

TEST(PlatformTest, AdaptivePolicyUsesLessMemoryThanFixed) {
  auto trace = ShortTrace(10 * kMinute);
  RunMetrics fixed = ServerlessPlatform(FastOptions(PolicyKind::kFixedKeepAlive)).Run(trace);
  RunMetrics adaptive =
      ServerlessPlatform(FastOptions(PolicyKind::kAdaptiveKeepAlive)).Run(trace);
  EXPECT_LT(adaptive.MeanMemoryMb(), fixed.MeanMemoryMb());
}

TEST(PlatformTest, ImprovementFactorsAlign) {
  auto trace = ShortTrace();
  RunMetrics medes = ServerlessPlatform(FastOptions(PolicyKind::kMedes)).Run(trace);
  RunMetrics fixed = ServerlessPlatform(FastOptions(PolicyKind::kFixedKeepAlive)).Run(trace);
  auto factors = ImprovementFactors(medes, fixed);
  EXPECT_EQ(factors.size(), trace.size());
  for (double f : factors) {
    EXPECT_GT(f, 0.0);
  }
}

TEST(PlatformTest, ImprovementFactorsRejectMismatchedTraces) {
  auto trace_a = ShortTrace(2 * kMinute);
  auto trace_b = ShortTrace(3 * kMinute);
  RunMetrics a = ServerlessPlatform(FastOptions(PolicyKind::kMedes)).Run(trace_a);
  RunMetrics b = ServerlessPlatform(FastOptions(PolicyKind::kFixedKeepAlive)).Run(trace_b);
  EXPECT_THROW(ImprovementFactors(a, b), std::invalid_argument);
}

TEST(PlatformTest, ToStringCoverage) {
  EXPECT_STREQ(ToString(PolicyKind::kMedes), "medes");
  EXPECT_STREQ(ToString(PolicyKind::kFixedKeepAlive), "fixed-keep-alive");
  EXPECT_STREQ(ToString(PolicyKind::kAdaptiveKeepAlive), "adaptive-keep-alive");
  EXPECT_STREQ(ToString(StartType::kWarm), "warm");
  EXPECT_STREQ(ToString(StartType::kDedup), "dedup");
  EXPECT_STREQ(ToString(StartType::kCold), "cold");
  EXPECT_STREQ(ToString(SandboxState::kWarm), "warm");
}

}  // namespace
}  // namespace medes
