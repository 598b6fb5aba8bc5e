#include "dedupagent/dedup_agent.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

namespace medes {
namespace {

ClusterOptions SmallCluster() {
  ClusterOptions opts;
  opts.num_nodes = 2;
  opts.node_memory_mb = 4096;
  opts.bytes_per_mb = 16384;
  return opts;
}

class DedupAgentTest : public ::testing::Test {
 protected:
  DedupAgentTest()
      : cluster_(SmallCluster()),
        fabric_({}, [this](const PageLocation& loc) { return cluster_.ReadBasePage(loc); }),
        agent_(cluster_, registry_, fabric_, {}) {}

  // Spawns a warm sandbox of `name` on `node`.
  Sandbox& WarmSandbox(const std::string& name, NodeId node, SimTime now = SimTime{}) {
    Sandbox& sb = cluster_.Spawn(ProfileByName(name), node, now);
    cluster_.MarkWarm(sb, now);
    return sb;
  }

  Cluster cluster_;
  FingerprintRegistry registry_;
  RdmaFabric fabric_;
  DedupAgent agent_;
};

TEST_F(DedupAgentTest, DesignateBasePopulatesRegistry) {
  Sandbox& base = WarmSandbox("Vanilla", NodeId{0});
  BaseSnapshot& snap = agent_.DesignateBase(base);
  EXPECT_EQ(snap.sandbox, base.id);
  EXPECT_TRUE(registry_.IsBaseSandbox(base.id));
  RegistryStats stats = registry_.stats();
  EXPECT_GT(stats.num_keys, 0u);
  EXPECT_GT(stats.num_entries, 0u);
}

TEST_F(DedupAgentTest, DedupAgainstSameFunctionBaseSavesMostMemory) {
  Sandbox& base = WarmSandbox("Vanilla", NodeId{0});
  agent_.DesignateBase(base);
  Sandbox& victim = WarmSandbox("Vanilla", NodeId{0});
  DedupOpResult result = agent_.DedupOp(victim, SimTime{10});
  EXPECT_EQ(victim.state, SandboxState::kDedup);
  EXPECT_GT(result.pages_deduped, result.pages_total / 10)
      << "clean pages of same-function sandboxes dedup";
  EXPECT_GT(result.saved_bytes, 0u);
  EXPECT_LT(cluster_.DedupFootprintMb(victim), cluster_.WarmFootprintMb(victim) * 0.85);
  // Patches reference the base sandbox -> refcount raised.
  EXPECT_GT(registry_.RefCount(base.id), 0);
  EXPECT_EQ(result.same_function_pages, result.pages_deduped);
  EXPECT_EQ(result.cross_function_pages, 0u);
}

TEST_F(DedupAgentTest, DedupWithEmptyRegistryKeepsPagesUnique) {
  Sandbox& sb = WarmSandbox("Vanilla", NodeId{0});
  DedupOpResult result = agent_.DedupOp(sb, SimTime{0});
  EXPECT_EQ(result.pages_deduped, 0u);
  EXPECT_EQ(result.pages_unique + result.pages_zero, result.pages_total);
  // Zero pages still save memory.
  EXPECT_EQ(result.saved_bytes, result.pages_zero * kPageSize);
}

TEST_F(DedupAgentTest, RestoreRoundTripsByteExact) {
  Sandbox& base = WarmSandbox("Vanilla", NodeId{0});
  agent_.DesignateBase(base);
  Sandbox& victim = WarmSandbox("Vanilla", NodeId{1});  // remote node
  agent_.DedupOp(victim, SimTime{10});
  RestoreOpResult result = agent_.RestoreOp(victim, SimTime{20}, /*verify=*/true);
  EXPECT_TRUE(result.verified);
  EXPECT_EQ(victim.state, SandboxState::kWarm);
  EXPECT_GT(result.base_pages_read, 0u);
  EXPECT_GT(result.remote_reads, 0u) << "base lives on another node";
  // All base references released.
  EXPECT_EQ(registry_.RefCount(base.id), 0);
  EXPECT_TRUE(victim.patches.empty());
}

TEST_F(DedupAgentTest, RestoreTimingComponentsPositiveAndOrdered) {
  Sandbox& base = WarmSandbox("LinAlg", NodeId{0});
  agent_.DesignateBase(base);
  Sandbox& victim = WarmSandbox("LinAlg", NodeId{1});
  agent_.DedupOp(victim, SimTime{0});
  RestoreOpResult r = agent_.RestoreOp(victim, SimTime{1});
  EXPECT_GT(r.read_base_time, SimDuration{});
  EXPECT_GT(r.compute_time, SimDuration{});
  EXPECT_GT(r.sandbox_restore_time, SimDuration{});
  EXPECT_EQ(r.total_time, r.read_base_time + r.compute_time + r.sandbox_restore_time);
  // Namespace work was pre-done at dedup time: the restore must be far
  // cheaper than cold start (paper Fig. 8).
  EXPECT_LT(r.total_time, ProfileByName("LinAlg").cold_start);
}

TEST_F(DedupAgentTest, NamespacePreparationSkipsPtreeCost) {
  Sandbox& base = WarmSandbox("Vanilla", NodeId{0});
  agent_.DesignateBase(base);
  Sandbox& victim = WarmSandbox("Vanilla", NodeId{0});
  agent_.DedupOp(victim, SimTime{0});
  ASSERT_TRUE(victim.namespaces_prepared);
  RestoreOpResult prepared = agent_.RestoreOp(victim, SimTime{1});
  // Re-dedup with preparation artificially cleared.
  cluster_.MarkRunning(victim, SimTime{2});
  cluster_.MarkWarm(victim, SimTime{3});
  agent_.DedupOp(victim, SimTime{4});
  victim.namespaces_prepared = false;
  RestoreOpResult unprepared = agent_.RestoreOp(victim, SimTime{5});
  EXPECT_GT(unprepared.sandbox_restore_time,
            prepared.sandbox_restore_time + 400 * kMillisecond);
}

TEST_F(DedupAgentTest, CrossFunctionDedupWorks) {
  // LinAlg base; ImagePro victim shares python_runtime + numpy.
  Sandbox& base = WarmSandbox("LinAlg", NodeId{0});
  agent_.DesignateBase(base);
  Sandbox& victim = WarmSandbox("ImagePro", NodeId{0});
  DedupOpResult result = agent_.DedupOp(victim, SimTime{0});
  EXPECT_GT(result.pages_deduped, 0u);
  EXPECT_GT(result.cross_function_pages, 0u);
  EXPECT_EQ(result.same_function_pages, 0u);
  RestoreOpResult restore = agent_.RestoreOp(victim, SimTime{1}, /*verify=*/true);
  EXPECT_TRUE(restore.verified);
}

TEST_F(DedupAgentTest, DedupOpRejectsNonWarm) {
  Sandbox& sb = cluster_.Spawn(ProfileByName("Vanilla"), NodeId{0}, SimTime{0});  // running
  EXPECT_THROW(agent_.DedupOp(sb, SimTime{0}), std::logic_error);
}

TEST_F(DedupAgentTest, RestoreOpRejectsNonDedup) {
  Sandbox& sb = WarmSandbox("Vanilla", NodeId{0});
  EXPECT_THROW(agent_.RestoreOp(sb, SimTime{0}), std::logic_error);
}

TEST_F(DedupAgentTest, DesignateBaseRejectsNonWarm) {
  Sandbox& sb = cluster_.Spawn(ProfileByName("Vanilla"), NodeId{0}, SimTime{0});
  EXPECT_THROW(agent_.DesignateBase(sb), std::logic_error);
}

TEST_F(DedupAgentTest, DedupTimeScalesWithImageSize) {
  Sandbox& base_small = WarmSandbox("Vanilla", NodeId{0});
  agent_.DesignateBase(base_small);
  Sandbox& base_large = WarmSandbox("ModelTrain", NodeId{0});
  agent_.DesignateBase(base_large);
  Sandbox& small = WarmSandbox("Vanilla", NodeId{0});
  Sandbox& large = WarmSandbox("ModelTrain", NodeId{0});
  DedupOpResult rs = agent_.DedupOp(small, SimTime{0});
  DedupOpResult rl = agent_.DedupOp(large, SimTime{0});
  EXPECT_GT(rl.total_time, rs.total_time);
  // Paper Section 7.7: total dedup time of seconds at full scale.
  EXPECT_GT(rl.total_time, 500 * kMillisecond);
  EXPECT_LT(rl.total_time, 30 * kSecond);
}

TEST_F(DedupAgentTest, SizeOnlyModeStillAccounts) {
  DedupAgentOptions opts;
  opts.keep_payloads = false;
  DedupAgent agent(cluster_, registry_, fabric_, opts);
  Sandbox& base = WarmSandbox("Vanilla", NodeId{0});
  agent.DesignateBase(base);
  Sandbox& victim = WarmSandbox("Vanilla", NodeId{0});
  DedupOpResult result = agent.DedupOp(victim, SimTime{0});
  EXPECT_GT(result.pages_deduped, 0u);
  EXPECT_TRUE(victim.checkpoint->payloads_dropped());
  double dedup_mb = cluster_.DedupFootprintMb(victim);
  EXPECT_LT(dedup_mb, cluster_.WarmFootprintMb(victim));
  // Restore works in size-only mode (no verification possible).
  RestoreOpResult restore = agent.RestoreOp(victim, SimTime{1});
  EXPECT_FALSE(restore.verified);
  EXPECT_EQ(victim.state, SandboxState::kWarm);
}

// The modelled outcome of each op, every field.
auto Fields(const DedupOpResult& r) {
  return std::tuple(r.pages_total, r.pages_deduped, r.pages_zero, r.pages_unique, r.patch_bytes,
                    r.saved_bytes, r.same_function_pages, r.cross_function_pages,
                    r.checkpoint_time, r.lookup_time, r.patch_time, r.total_time);
}
auto Fields(const RestoreOpResult& r) {
  return std::tuple(r.mode, r.base_pages_read, r.base_bytes_read, r.remote_reads,
                    r.read_base_time, r.compute_time, r.sandbox_restore_time,
                    r.critical_path_time, r.fault_time, r.total_time, r.ws_predicted_pages,
                    r.ws_touched_pages, r.ws_hit_pages, r.ws_fault_pages, r.background_pages,
                    r.background_pending, r.verified);
}
auto Fields(const BackgroundRestoreResult& r) {
  return std::tuple(r.pages, r.base_pages_read, r.base_bytes_read, r.remote_reads, r.total_time,
                    r.verified);
}

// A cluster with a lazy and an eager agent over one registry and fabric,
// both keeping or both dropping checkpoint payloads.
struct PayloadWorld {
  explicit PayloadWorld(bool keep_payloads)
      : cluster(SmallCluster()),
        fabric({}, [this](const PageLocation& loc) { return cluster.ReadBasePage(loc); }),
        lazy(cluster, registry, fabric, Options(keep_payloads, RestoreMode::kLazy)),
        eager(cluster, registry, fabric, Options(keep_payloads, RestoreMode::kEager)) {}

  static DedupAgentOptions Options(bool keep_payloads, RestoreMode mode) {
    DedupAgentOptions opts;
    opts.keep_payloads = keep_payloads;
    opts.restore_mode = mode;
    return opts;
  }

  Sandbox& Warm(const std::string& name, NodeId node, SimTime now) {
    Sandbox& sb = cluster.Spawn(ProfileByName(name), node, now);
    cluster.MarkWarm(sb, now);
    return sb;
  }

  // One invocation: the sandbox runs and goes warm again.
  void Invoke(Sandbox& sb, SimTime now) {
    cluster.MarkRunning(sb, now);
    cluster.MarkWarm(sb, now + SimDuration{1});
  }

  Cluster cluster;
  FingerprintRegistry registry;
  RdmaFabric fabric;
  DedupAgent lazy;
  DedupAgent eager;
};

// Checkpoint counters of both worlds' copies of a sandbox.
void ExpectSameCheckpoint(const Sandbox& kept, const Sandbox& dropped, const char* step) {
  SCOPED_TRACE(step);
  ASSERT_EQ(kept.checkpoint.has_value(), dropped.checkpoint.has_value());
  if (!kept.checkpoint.has_value()) {
    return;
  }
  EXPECT_FALSE(kept.checkpoint->payloads_dropped());
  EXPECT_TRUE(dropped.checkpoint->payloads_dropped());
  EXPECT_EQ(kept.checkpoint->ResidentBytes(), dropped.checkpoint->ResidentBytes());
  EXPECT_EQ(kept.checkpoint->PatchBytes(), dropped.checkpoint->PatchBytes());
  EXPECT_EQ(kept.checkpoint->NumPatched(), dropped.checkpoint->NumPatched());
}

// Dropping payloads changes what is stored, never what is counted: the same
// dedups, eager and lazy restores and background completion, with payloads
// kept and dropped, give equal op results and checkpoint counters.
TEST_F(DedupAgentTest, DroppedPayloadsCountAsKeptOnes) {
  PayloadWorld kept(true);
  PayloadWorld dropped(false);
  Sandbox* sb[2];
  for (int w = 0; w < 2; ++w) {
    PayloadWorld& world = w == 0 ? kept : dropped;
    world.lazy.DesignateBase(world.Warm("LinAlg", NodeId{0}, SimTime{0}));
    world.lazy.DesignateBase(world.Warm("Vanilla", NodeId{0}, SimTime{0}));
    sb[w] = &world.Warm("LinAlg", NodeId{1}, SimTime{1});
  }
  Sandbox& a = *sb[0];
  Sandbox& b = *sb[1];

  ASSERT_EQ(Fields(kept.lazy.DedupOp(a, SimTime{2})), Fields(dropped.lazy.DedupOp(b, SimTime{2})));
  EXPECT_GT(a.checkpoint->NumPatched(), 0u);
  ExpectSameCheckpoint(a, b, "first dedup");
  ASSERT_EQ(Fields(kept.eager.RestoreOp(a, SimTime{3})),
            Fields(dropped.eager.RestoreOp(b, SimTime{3})));
  ExpectSameCheckpoint(a, b, "eager restore");

  // An unprofiled function's first lazy restore fetches every page; the
  // next one is trained and leaves pages to the background phase.
  for (int round = 0; round < 2; ++round) {
    const SimTime t{10 + 10 * round};
    kept.Invoke(a, t);
    dropped.Invoke(b, t);
    ASSERT_EQ(Fields(kept.lazy.DedupOp(a, t + SimDuration{2})),
              Fields(dropped.lazy.DedupOp(b, t + SimDuration{2})));
    ExpectSameCheckpoint(a, b, "dedup before lazy restore");
    const RestoreOpResult restore = kept.lazy.RestoreOp(a, t + SimDuration{3});
    ASSERT_EQ(Fields(restore), Fields(dropped.lazy.RestoreOp(b, t + SimDuration{3})));
    ExpectSameCheckpoint(a, b, "lazy restore");
    if (round == 1) {
      EXPECT_TRUE(restore.background_pending);
    }
    if (restore.background_pending) {
      ASSERT_EQ(Fields(kept.lazy.CompleteBackgroundRestore(a, t + SimDuration{4})),
                Fields(dropped.lazy.CompleteBackgroundRestore(b, t + SimDuration{4})));
      ExpectSameCheckpoint(a, b, "background completion");
    }
  }
}

// A patch's base is its base pages laid end to end and must stay shorter
// than the encoder's 64 KiB limit; past it every page would count as unique.
TEST_F(DedupAgentTest, RejectsBaseCardinalityPastTheEncoderLimit) {
  DedupAgentOptions opts;
  opts.max_base_pages_per_page = kDeltaBaseLimit / kPageSize;
  EXPECT_THROW(DedupAgent(cluster_, registry_, fabric_, opts), std::invalid_argument);
  opts.max_base_pages_per_page = kDeltaBaseLimit / kPageSize - 1;
  DedupAgent agent(cluster_, registry_, fabric_, opts);
  Sandbox& base = WarmSandbox("Vanilla", NodeId{0});
  agent.DesignateBase(base);
  Sandbox& victim = WarmSandbox("Vanilla", NodeId{0});
  EXPECT_GT(agent.DedupOp(victim, SimTime{0}).pages_deduped, 0u);
}

TEST_F(DedupAgentTest, ScaleFactorReflectsImageScale) {
  EXPECT_DOUBLE_EQ(agent_.ScaleFactor(), static_cast<double>(1 << 20) / 16384.0);
}

}  // namespace
}  // namespace medes
