#include "platform/platform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

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
// a change to either must re-derive these numbers deliberately. `fired`
// also counts keep-alive expiry events that lapse or re-arm: it pins the
// timer mechanism, not a modelled output.
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
  EXPECT_EQ(platform.sim().stats().fired, 31680u);
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
  EXPECT_EQ(platform.sim().stats().fired, 32399u);
  EXPECT_EQ(RequestStreamHash(m), 211825630430056172ull);
}

// Digest of everything a keep-alive run models: the request stream, the
// start counts, spawns, evictions and the whole memory timeline (bit
// patterns of its doubles included). Equal digests mean the runs purged the
// same sandboxes at the same instants in the same order.
uint64_t KeepAliveRunDigest(const RunMetrics& m) {
  const StartCounts c = CountStarts(m);
  uint64_t h = RequestStreamHash(m);
  for (uint64_t v : {c.warm, c.dedup, c.cold, m.sandboxes_spawned, m.evictions,
                     m.overcommit_events}) {
    h = HashCombine(h, v);
  }
  for (const MemorySample& s : m.memory_timeline) {
    h = HashCombine(h, static_cast<uint64_t>(s.time.value()));
    h = HashCombine(h, std::bit_cast<uint64_t>(s.used_mb));
    for (uint64_t v : {s.sandboxes, s.warm, s.dedup, s.bases}) {
      h = HashCombine(h, v);
    }
    for (double mb : s.idle_warm_mb_per_function) {
      h = HashCombine(h, std::bit_cast<uint64_t>(mb));
    }
  }
  return h;
}

// A keep-alive configuration of window `window`. The adaptive policy gets
// `window` as its default and longest window and a thirtieth of it as its
// shortest, so its window moves in both directions as arrivals come in.
PlatformOptions KeepAliveOptions(PolicyKind policy, SimDuration window) {
  PlatformOptions opts = FastOptions(policy);
  opts.fixed_keep_alive = window;
  opts.adaptive.default_window = window;
  opts.adaptive.max_window = window;
  opts.adaptive.min_window = window / 30;
  return opts;
}

// Bursts of simultaneous arrivals placed one warm start plus one execution
// before a shared instant, so a burst's warm completions coincide, and so do
// their keep-alive deadlines. Instants sit half a window apart: a deadline
// falls on the completions two bursts later. Copies per burst vary, so some
// arrivals start cold and finish at other instants.
std::vector<TraceEvent> CollidingTrace(SimDuration window) {
  std::vector<TraceEvent> trace;
  for (int64_t burst = 0; burst < 24; ++burst) {
    const SimTime instant = SimTime{} + 10 * kSecond + burst * (window / 2);
    for (FunctionId f : {0, 1, 6}) {
      const FunctionProfile& p = FunctionBenchProfiles().at(static_cast<size_t>(f));
      const int64_t copies = 1 + (burst + f) % 3;
      for (int64_t k = 0; k < copies; ++k) {
        trace.push_back(TraceEvent{instant - (p.warm_start + p.exec_time), f});
      }
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.time < b.time; });
  return trace;
}

// Two purges due at one instant on one node, for a 30 s window. ImagePro
// (26.4 MB) completes at 2.1 s, is reused, and completes again at 20 s just
// ahead of a cold AuthEnc (22.3 MB), so both expire at 50 s, ImagePro first;
// its first expiry event, due at 32.1 s, is still queued at 20 s. A Vanilla
// sandbox keeps the node's usage above zero, where subtracting 26.4 then
// 22.3 rounds differently from the reverse: the purge order shows in the
// sampled usage.
std::vector<TraceEvent> TiedPurgeTrace() {
  const SimTime done = SimTime{} + 20 * kSecond;
  return {{SimTime{}, 2},
          {done - FromMillis(1207), 2},  // warm: 7 ms start, 1.2 s execution
          {done - FromMillis(1050), 6},  // cold: 650 ms start, 400 ms execution
          {SimTime{} + 21 * kSecond, 0}};
}

// Exactness oracle for keep-alive expiry: digests recorded from the
// cancel-and-re-arm timer (each completion scheduled a purge and each warm
// reuse cancelled it). Any change to when or in which order the baselines
// purge a sandbox moves at least one of them.
TEST(PlatformTest, KeepAliveExpiryMatchesRecordedDigests) {
  struct Case {
    PolicyKind policy;
    // A generated 5-minute trace's seed; kColliding and kTiedPurges name the
    // hand-built traces above.
    uint64_t trace_seed;
    SimDuration window;
    uint64_t digest;
  };
  constexpr uint64_t kColliding = 0;
  constexpr uint64_t kTiedPurges = 100;
  const Case cases[] = {
      {PolicyKind::kFixedKeepAlive, 1, kSecond, 8241836045032893252ull},
      {PolicyKind::kFixedKeepAlive, 1, 30 * kSecond, 284428298059869798ull},
      {PolicyKind::kFixedKeepAlive, 1, 10 * kMinute, 9609634231470412233ull},
      {PolicyKind::kFixedKeepAlive, 2, kSecond, 13179058981259765611ull},
      {PolicyKind::kFixedKeepAlive, 2, 30 * kSecond, 4976863562293124906ull},
      {PolicyKind::kFixedKeepAlive, 2, 10 * kMinute, 12513894128120198858ull},
      {PolicyKind::kFixedKeepAlive, 3, kSecond, 10101733225396195422ull},
      {PolicyKind::kFixedKeepAlive, 3, 30 * kSecond, 8750986213276679580ull},
      {PolicyKind::kFixedKeepAlive, 3, 10 * kMinute, 15524665726556647079ull},
      {PolicyKind::kAdaptiveKeepAlive, 1, kSecond, 7834148170613329980ull},
      {PolicyKind::kAdaptiveKeepAlive, 1, 30 * kSecond, 563135769301374331ull},
      {PolicyKind::kAdaptiveKeepAlive, 1, 10 * kMinute, 5759370691735083462ull},
      {PolicyKind::kAdaptiveKeepAlive, 2, kSecond, 13240001559079417054ull},
      {PolicyKind::kAdaptiveKeepAlive, 2, 30 * kSecond, 13663313975529392741ull},
      {PolicyKind::kAdaptiveKeepAlive, 2, 10 * kMinute, 1446475447028437784ull},
      {PolicyKind::kAdaptiveKeepAlive, 3, kSecond, 15241484363228277783ull},
      {PolicyKind::kAdaptiveKeepAlive, 3, 30 * kSecond, 10569623348691264019ull},
      {PolicyKind::kAdaptiveKeepAlive, 3, 10 * kMinute, 11070330624179286229ull},
      {PolicyKind::kFixedKeepAlive, kColliding, kSecond, 1381083872929514693ull},
      {PolicyKind::kFixedKeepAlive, kColliding, 30 * kSecond, 3471292653616944946ull},
      {PolicyKind::kAdaptiveKeepAlive, kColliding, kSecond, 1558659275159833015ull},
      {PolicyKind::kAdaptiveKeepAlive, kColliding, 30 * kSecond, 2137761174576217632ull},
      {PolicyKind::kFixedKeepAlive, kTiedPurges, 30 * kSecond, 16252556243329282938ull},
      {PolicyKind::kAdaptiveKeepAlive, kTiedPurges, 30 * kSecond, 16252556243329282938ull},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(ToString(c.policy)) + " seed " + std::to_string(c.trace_seed) +
                 " window " + std::to_string(c.window.value()) + " us");
    PlatformOptions opts = KeepAliveOptions(c.policy, c.window);
    // Fine samples: a purge that moves by more than 100 ms moves the
    // timeline even where no later start decision notices.
    opts.memory_sample_interval = 100 * kMillisecond;
    std::vector<TraceEvent> trace;
    if (c.trace_seed == kColliding) {
      // Two small nodes: the bursts overflow them, so LRU eviction picks
      // among sandboxes whose last use ties.
      opts.cluster.num_nodes = 2;
      opts.cluster.node_memory_mb = 80;
      trace = CollidingTrace(c.window);
    } else if (c.trace_seed == kTiedPurges) {
      opts.cluster.num_nodes = 1;
      trace = TiedPurgeTrace();
    } else {
      TraceOptions topts;
      topts.duration = 5 * kMinute;
      topts.rate_scale = 2.0;
      topts.seed = c.trace_seed;
      trace = GenerateTrace(DefaultAzurePatterns(), topts);
    }
    const RunMetrics m = ServerlessPlatform(opts).Run(trace);
    ASSERT_EQ(m.TotalRequests(), trace.size());
    EXPECT_EQ(KeepAliveRunDigest(m), c.digest) << "spawns " << m.sandboxes_spawned
                                               << " evictions " << m.evictions;
  }
}

// An adaptive policy whose window is the last inter-arrival time, clamped to
// [1 s, 100 s], or `first_window` before the second arrival: a test sets
// every deadline through its arrival times.
PlatformOptions LastGapAdaptiveOptions(SimDuration first_window) {
  PlatformOptions opts = FastOptions(PolicyKind::kAdaptiveKeepAlive);
  opts.adaptive.coverage_percentile = 1.0;
  opts.adaptive.margin = 1.0;
  opts.adaptive.min_window = kSecond;
  opts.adaptive.max_window = 100 * kSecond;
  opts.adaptive.default_window = first_window;
  opts.adaptive.min_samples = 1;
  opts.adaptive.max_samples = 1;
  return opts;
}

// Runs `trace` of Vanilla requests (cold start 500 ms, warm start 6 ms,
// execution 150 ms) with probes that record, at each of `probe_times`,
// whether sandbox 1 exists. Probes are scheduled before Run, so at an equal
// instant they fire ahead of every platform timer. Returns the number of
// keep-alive expiry events the run scheduled.
uint64_t RunWithProbes(const PlatformOptions& opts, const std::vector<SimTime>& arrivals,
                       const std::vector<SimTime>& probe_times, std::vector<bool>& alive) {
  ServerlessPlatform platform(opts);
  for (SimTime t : probe_times) {
    platform.sim().Schedule(t, [&platform, &alive] {
      alive.push_back(platform.cluster().Find(SandboxId{1}) != nullptr);
    });
  }
  std::vector<TraceEvent> trace;
  for (SimTime t : arrivals) {
    trace.push_back(TraceEvent{t, 0});
  }
  const RunMetrics m = platform.Run(trace);
  EXPECT_EQ(m.sandboxes_spawned, 1u);
  EXPECT_EQ(m.TotalColdStarts(), 1u);
  // Everything else scheduled is an arrival, a completion or a sample.
  return platform.sim().stats().scheduled - probe_times.size() - 2 * trace.size() -
         m.memory_timeline.size();
}

// The window shrinks: the second completion's deadline falls before the
// event the first one queued. The purge lands on the earlier deadline, and
// the superseded event, when it fires, does nothing.
TEST(PlatformTest, AdaptiveShrinkingWindowPurgesAtEarlierDeadline) {
  // 0 s: cold; done at 0.65 s, window 100 s, event queued for 100.65 s.
  // 10 s: warm; done at 10.156 s, window 10 s: deadline 20.156 s.
  const SimTime deadline = SimTime{} + FromMillis(20156);
  std::vector<bool> alive;
  const uint64_t expiry_events =
      RunWithProbes(LastGapAdaptiveOptions(100 * kSecond), {SimTime{}, SimTime{} + 10 * kSecond},
                    {deadline, deadline + kMicrosecond, SimTime{} + FromMillis(100650) +
                                                            kMicrosecond},
                    alive);
  EXPECT_EQ(alive, (std::vector<bool>{true, false, false}));
  EXPECT_EQ(expiry_events, 2u);  // the superseded one and the one that purged
}

// A superseded event and the current one fall due at the same instant. Only
// the current one may act: had the other re-armed or purged too, the run
// would have scheduled a fourth expiry event.
TEST(PlatformTest, AdaptiveStaleAndCurrentExpiryShareAnInstant) {
  // 0 s: cold; done at 0.65 s, first window 29.706 s: event for 30.356 s.
  // 10 s: warm; done at 10.156 s, window 10 s: event for 20.156 s.
  // 20.1 s: warm, running until 20.256 s, so the 20.156 s event lapses.
  //   Done at 20.256 s, window 10.1 s: deadline 30.356 s, a new event.
  const SimTime instant = SimTime{} + FromMillis(30356);
  std::vector<bool> alive;
  const uint64_t expiry_events = RunWithProbes(
      LastGapAdaptiveOptions(FromMillis(29706)),
      {SimTime{}, SimTime{} + 10 * kSecond, SimTime{} + FromMillis(20100)},
      {SimTime{} + FromMillis(20156), instant, instant + kMicrosecond}, alive);
  EXPECT_EQ(alive, (std::vector<bool>{true, true, false}));
  EXPECT_EQ(expiry_events, 3u);
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
