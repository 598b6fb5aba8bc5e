// Working-set-aware lazy restore: the determinism contract (bit-identical
// final images, eager vs lazy, at any thread count), misprediction fault
// accounting, the degenerate working sets (empty and full-image), and the
// working-set table's serialization round-trip.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dedupagent/dedup_agent.h"
#include "memstate/working_set.h"
#include "workload/access_model.h"

namespace medes {
namespace {

ClusterOptions SmallCluster() {
  ClusterOptions opts;
  opts.num_nodes = 2;
  opts.node_memory_mb = 4096;
  opts.bytes_per_mb = 16384;
  return opts;
}

// A self-contained dedup environment with a configurable agent.
struct Env {
  explicit Env(DedupAgentOptions options = {}, RdmaOptions rdma = {})
      : cluster(SmallCluster()),
        fabric(rdma, [this](const PageLocation& loc) { return cluster.ReadBasePage(loc); }),
        agent(cluster, registry, fabric, options) {}

  Sandbox& WarmSandbox(const std::string& name, NodeId node, SimTime now = SimTime{}) {
    Sandbox& sb = cluster.Spawn(ProfileByName(name), node, now);
    cluster.MarkWarm(sb, now);
    return sb;
  }

  // Designates a same-function base and dedups a victim on the other node.
  Sandbox& DedupedVictim(const std::string& name) {
    Sandbox& base = WarmSandbox(name, NodeId{0});
    agent.DesignateBase(base);
    Sandbox& victim = WarmSandbox(name, NodeId{1}, SimTime{1});
    agent.DedupOp(victim, SimTime{2});
    return victim;
  }

  Cluster cluster;
  FingerprintRegistry registry;
  RdmaFabric fabric;
  DedupAgent agent;
};

DedupAgentOptions WithThreads(size_t n, RestoreMode mode = RestoreMode::kLazy) {
  DedupAgentOptions options;
  options.num_threads = n;
  options.restore_mode = mode;
  return options;
}

// Restores a victim to a fully materialized image, driving the background
// phase if the restore deferred pages; returns true when verification (inline
// or deferred digest) succeeded.
bool RestoreFully(Env& env, Sandbox& sb, SimTime now) {
  RestoreOpResult r = env.agent.RestoreOp(sb, now, /*verify=*/true);
  if (r.background_pending) {
    return env.agent.CompleteBackgroundRestore(sb, now + SimDuration{1}).verified;
  }
  return r.verified;
}

// ---- Bit-identical images, eager vs lazy, across thread counts -----------

TEST(LazyRestoreTest, EagerAndLazyProduceIdenticalImagesAcrossThreadCounts) {
  // Every environment is seeded identically, so BuildImage produces the same
  // original bytes in each; verify=true proves each mode reconstructed its
  // image byte-exactly (eager: memcmp, lazy: pinned SHA-1 digest) — so the
  // final memory images are bit-identical between modes and thread counts.
  for (size_t threads : {size_t{1}, size_t{4}, size_t{0}}) {  // 0 = MEDES_THREADS/hw
    Env eager(WithThreads(threads, RestoreMode::kEager));
    Env lazy(WithThreads(threads, RestoreMode::kLazy));
    for (const char* fn : {"Vanilla", "RNNModel"}) {
      Sandbox& ve = eager.DedupedVictim(fn);
      Sandbox& vl = lazy.DedupedVictim(fn);
      ASSERT_EQ(ve.id, vl.id) << "environments diverged";
      // Two cycles: the first trains the lazy working set, the second runs
      // the trained (partial-prefetch) path.
      for (int cycle = 0; cycle < 2; ++cycle) {
        const SimTime now{10 + cycle * 10};
        EXPECT_TRUE(RestoreFully(eager, ve, now)) << fn << " cycle " << cycle;
        EXPECT_TRUE(RestoreFully(lazy, vl, now)) << fn << " cycle " << cycle;
        eager.cluster.MarkRunning(ve, now + SimDuration{2});
        eager.cluster.MarkWarm(ve, now + SimDuration{3});
        lazy.cluster.MarkRunning(vl, now + SimDuration{2});
        lazy.cluster.MarkWarm(vl, now + SimDuration{3});
        ASSERT_EQ(ve.generation, vl.generation);
        eager.agent.DedupOp(ve, now + SimDuration{4});
        lazy.agent.DedupOp(vl, now + SimDuration{4});
      }
      EXPECT_TRUE(RestoreFully(eager, ve, SimTime{100})) << fn;
      EXPECT_TRUE(RestoreFully(lazy, vl, SimTime{100})) << fn;
    }
  }
}

// ---- Trained path: prefetch shrinks, the rest is deferred ----------------

TEST(LazyRestoreTest, TrainedRestoreDefersBackgroundPagesAndSpeedsUpCriticalPath) {
  Env env;
  Sandbox& sb = env.DedupedVictim("LinAlg");
  const size_t num_pages = sb.checkpoint->NumPages();
  RestoreOpResult first = env.agent.RestoreOp(sb, SimTime{10}, /*verify=*/true);
  // Unprofiled: full prefetch, nothing deferred, verified inline.
  EXPECT_EQ(first.ws_predicted_pages, num_pages);
  EXPECT_EQ(first.ws_fault_pages, 0u);
  EXPECT_FALSE(first.background_pending);
  EXPECT_TRUE(first.verified);
  EXPECT_EQ(first.fault_time, SimDuration{});

  env.cluster.MarkRunning(sb, SimTime{11});
  env.cluster.MarkWarm(sb, SimTime{12});
  env.agent.DedupOp(sb, SimTime{13});

  RestoreOpResult second = env.agent.RestoreOp(sb, SimTime{20}, /*verify=*/true);
  EXPECT_EQ(second.mode, RestoreMode::kLazy);
  EXPECT_LT(second.ws_predicted_pages, num_pages) << "trained prediction should be partial";
  EXPECT_GT(second.background_pages, 0u);
  EXPECT_TRUE(second.background_pending);
  EXPECT_EQ(second.ws_touched_pages, second.ws_hit_pages + second.ws_fault_pages);
  EXPECT_LT(second.critical_path_time, first.critical_path_time);
  // Deferred pages keep their base refs until the background phase runs.
  EXPECT_FALSE(sb.patches.empty());
  EXPECT_TRUE(env.agent.HasPendingBackgroundRestore(sb.id));
  BackgroundRestoreResult bg = env.agent.CompleteBackgroundRestore(sb, SimTime{21});
  EXPECT_EQ(bg.pages, second.background_pages);
  EXPECT_TRUE(bg.verified);
  EXPECT_TRUE(sb.patches.empty());
  EXPECT_FALSE(sb.checkpoint.has_value());
  EXPECT_FALSE(env.agent.HasPendingBackgroundRestore(sb.id));

  DedupAgentStats stats = env.agent.stats();
  EXPECT_EQ(stats.lazy_restores, 2u);
  EXPECT_EQ(stats.background_completions, 1u);
  EXPECT_EQ(stats.background_pages, bg.pages);
}

// ---- Misprediction accounting --------------------------------------------

TEST(LazyRestoreTest, MispredictedPagesAreChargedAsFaults) {
  Env env;
  Sandbox& sb = env.DedupedVictim("ImagePro");
  const size_t num_pages = sb.checkpoint->NumPages();
  // Seed a deliberately empty working set: every post-resume touch is a
  // misprediction and must be charged the demand-fault path.
  env.agent.working_sets().Record(sb.function, std::vector<PageIndex>{}, num_pages);

  const std::vector<PageIndex> touched =
      PostResumeAccessTrace(env.cluster.ProfileOf(sb), num_pages, sb.generation + 1);
  ASSERT_FALSE(touched.empty());

  RestoreOpResult r = env.agent.RestoreOp(sb, SimTime{10}, /*verify=*/true);
  EXPECT_EQ(r.ws_predicted_pages, 0u);
  EXPECT_EQ(r.ws_hit_pages, 0u);
  EXPECT_EQ(r.ws_touched_pages, touched.size());
  EXPECT_EQ(r.ws_fault_pages, touched.size());
  EXPECT_GT(r.fault_time, SimDuration{}) << "misprediction must not be free";
  EXPECT_EQ(r.total_time, r.critical_path_time + r.fault_time);
  EXPECT_EQ(env.agent.stats().ws_fault_pages, touched.size());

  ASSERT_TRUE(r.background_pending);
  EXPECT_TRUE(env.agent.CompleteBackgroundRestore(sb, SimTime{11}).verified);
}

// ---- Multi-base patches --------------------------------------------------

// Patch records with more than one base (Fig. 16's cardinality arms) decode
// against their base pages joined end to end; single-base records decode
// against the fabric's shared page. Both must reconstruct byte for byte on
// every restore path: eager, the lazy critical path, demand faults and the
// background phase, with and without the base-page cache.
TEST(LazyRestoreTest, MultiBasePatchesRestoreByteExactOnEveryPath) {
  auto multi_base_records = [](const Sandbox& sb) {
    size_t n = 0;
    for (const PatchRecord& record : sb.patches) {
      n += record.bases.size() > 1 ? 1 : 0;
    }
    return n;
  };
  for (size_t cache_pages : {size_t{0}, size_t{64}}) {
    for (RestoreMode mode : {RestoreMode::kEager, RestoreMode::kLazy}) {
      DedupAgentOptions options = WithThreads(4, mode);
      options.max_base_pages_per_page = 3;
      Env env(options, RdmaOptions{.page_cache_capacity = cache_pages});
      // Three same-function bases give pages up to three ranked candidates.
      for (int i = 0; i < 3; ++i) {
        env.agent.DesignateBase(env.WarmSandbox("LinAlg", NodeId{i % 2}));
      }
      Sandbox& sb = env.WarmSandbox("LinAlg", NodeId{1}, SimTime{1});
      env.agent.DedupOp(sb, SimTime{2});
      const size_t patched = sb.patches.size();
      ASSERT_GT(multi_base_records(sb), 0u) << ToString(mode);
      ASSERT_LT(multi_base_records(sb), patched) << "single-base records stay in the mix";

      RestoreOpResult first = env.agent.RestoreOp(sb, SimTime{10}, /*verify=*/true);
      EXPECT_TRUE(first.verified) << ToString(mode) << " cache " << cache_pages;
      EXPECT_FALSE(first.background_pending) << "eager, or an unprofiled lazy full prefetch";
      EXPECT_GT(first.base_pages_read, patched) << "every base of every record is read";

      if (mode == RestoreMode::kLazy) {
        // An empty working set sends touched pages down the demand-fault
        // path and defers the rest to the background phase.
        env.cluster.MarkRunning(sb, SimTime{11});
        env.cluster.MarkWarm(sb, SimTime{12});
        env.agent.DedupOp(sb, SimTime{13});
        ASSERT_GT(multi_base_records(sb), 0u);
        env.agent.working_sets().Record(sb.function, std::vector<PageIndex>{},
                                        sb.checkpoint->NumPages());
        RestoreOpResult second = env.agent.RestoreOp(sb, SimTime{20}, /*verify=*/true);
        EXPECT_GT(second.ws_fault_pages, 0u);
        ASSERT_TRUE(second.background_pending);
        EXPECT_GT(multi_base_records(sb), 0u) << "the background phase has multi-base records";
        BackgroundRestoreResult bg = env.agent.CompleteBackgroundRestore(sb, SimTime{21});
        EXPECT_TRUE(bg.verified) << "cache " << cache_pages;
        EXPECT_GT(bg.base_pages_read, bg.pages);
      }
    }
  }
}

// ---- Degenerate working sets ---------------------------------------------

TEST(LazyRestoreTest, FullImageWorkingSetBehavesLikeEagerRestore) {
  Env env;
  Sandbox& sb = env.DedupedVictim("Vanilla");
  const size_t num_pages = sb.checkpoint->NumPages();
  std::vector<PageIndex> all;
  all.reserve(num_pages);
  for (size_t i = 0; i < num_pages; ++i) {
    all.push_back(PageIndex{static_cast<uint32_t>(i)});
  }
  env.agent.working_sets().Record(sb.function, all, num_pages);

  RestoreOpResult r = env.agent.RestoreOp(sb, SimTime{10}, /*verify=*/true);
  EXPECT_EQ(r.ws_predicted_pages, num_pages);
  EXPECT_EQ(r.ws_fault_pages, 0u);
  EXPECT_EQ(r.background_pages, 0u);
  EXPECT_FALSE(r.background_pending);
  EXPECT_TRUE(r.verified) << "nothing deferred: verified inline like eager";
  EXPECT_EQ(r.fault_time, SimDuration{});
  EXPECT_TRUE(sb.patches.empty());
  EXPECT_FALSE(sb.checkpoint.has_value());
}

TEST(LazyRestoreTest, ZeroSizeWorkingSetDefersEverythingUntouched) {
  Env env;
  Sandbox& sb = env.DedupedVictim("AuthEnc");
  const size_t num_pages = sb.checkpoint->NumPages();
  const size_t patched = sb.patches.size();
  env.agent.working_sets().Record(sb.function, std::vector<PageIndex>{}, num_pages);

  RestoreOpResult r = env.agent.RestoreOp(sb, SimTime{10}, /*verify=*/true);
  EXPECT_EQ(r.ws_predicted_pages, 0u);
  EXPECT_EQ(r.ws_hit_pages, 0u);
  // Nothing prefetched: touched-but-patched pages demand-fault, every other
  // patched page is deferred — the sandbox keeps exactly those records.
  EXPECT_LT(r.background_pages, patched) << "touched patched pages fault in eagerly";
  EXPECT_EQ(sb.patches.size(), r.background_pages);
  ASSERT_TRUE(r.background_pending);
  BackgroundRestoreResult bg = env.agent.CompleteBackgroundRestore(sb, SimTime{11});
  EXPECT_EQ(bg.pages, r.background_pages);
  EXPECT_TRUE(bg.verified);
}

// ---- Working-set table serialization -------------------------------------

TEST(LazyRestoreTest, WorkingSetTableSerializationRoundTrips) {
  WorkingSetTable table;
  std::vector<PageIndex> touched_a{PageIndex{1}, PageIndex{5}, PageIndex{9}};
  std::vector<PageIndex> touched_b{PageIndex{0}, PageIndex{5}};
  table.Record(FunctionId{3}, touched_a, 16);
  table.Record(FunctionId{3}, touched_b, 16);
  table.Record(FunctionId{7}, touched_b, 8);

  const std::string bytes = table.Serialize();
  WorkingSetTable restored;
  ASSERT_TRUE(WorkingSetTable::Deserialize(bytes, restored));
  EXPECT_EQ(restored.NumFunctions(), 2u);
  EXPECT_EQ(restored.Observations(FunctionId{3}), 2u);
  EXPECT_EQ(restored.Observations(FunctionId{7}), 1u);
  EXPECT_EQ(restored.Predict(FunctionId{3}, 16), table.Predict(FunctionId{3}, 16));
  EXPECT_EQ(restored.Predict(FunctionId{7}, 8), table.Predict(FunctionId{7}, 8));
  EXPECT_EQ(restored.Predict(FunctionId{4}, 8), std::nullopt) << "unprofiled stays unprofiled";
  // Round-trip is stable: serialize(deserialize(bytes)) == bytes.
  EXPECT_EQ(restored.Serialize(), bytes);
}

TEST(LazyRestoreTest, WorkingSetTableRejectsMalformedBytes) {
  WorkingSetTable table;
  table.Record(FunctionId{1}, std::vector<PageIndex>{PageIndex{2}}, 4);
  const std::string bytes = table.Serialize();

  WorkingSetTable out;
  EXPECT_FALSE(WorkingSetTable::Deserialize("", out));
  EXPECT_FALSE(WorkingSetTable::Deserialize("nonsense", out));
  EXPECT_FALSE(WorkingSetTable::Deserialize(bytes.substr(0, bytes.size() - 1), out))
      << "truncated input";
  EXPECT_FALSE(WorkingSetTable::Deserialize(bytes + "x", out)) << "trailing garbage";
  EXPECT_TRUE(WorkingSetTable::Deserialize(bytes, out)) << "pristine bytes still parse";
}

// A table shared between agents warms predictions across "runs" — the
// campaign-warming use the platform exposes via DedupAgentOptions.
TEST(LazyRestoreTest, SharedWorkingSetTableWarmsSecondAgent) {
  auto shared = std::make_shared<WorkingSetTable>();
  DedupAgentOptions options;
  options.working_sets = shared;

  Env first(options);
  Sandbox& sb1 = first.DedupedVictim("MapReduce");
  RestoreOpResult r1 = first.agent.RestoreOp(sb1, SimTime{10}, /*verify=*/true);
  EXPECT_FALSE(r1.background_pending) << "cold table: full prefetch";

  Env second(options);  // same table: already trained
  Sandbox& sb2 = second.DedupedVictim("MapReduce");
  RestoreOpResult r2 = second.agent.RestoreOp(sb2, SimTime{10}, /*verify=*/true);
  EXPECT_LT(r2.ws_predicted_pages, sb2.checkpoint->NumPages());
  ASSERT_TRUE(r2.background_pending);
  EXPECT_TRUE(second.agent.CompleteBackgroundRestore(sb2, SimTime{11}).verified);
}

}  // namespace
}  // namespace medes
