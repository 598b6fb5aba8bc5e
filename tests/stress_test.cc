// Randomised stress tests: long sequences of random operations must preserve
// the system's core invariants — incremental memory accounting equals
// recomputed accounting, registry refcounts return to zero, restores stay
// byte-exact, and the whole run is deterministic under a fixed seed.
#include <gtest/gtest.h>

#include "medes.h"

namespace medes {
namespace {

ClusterOptions StressCluster() {
  ClusterOptions opts;
  opts.num_nodes = 3;
  opts.node_memory_mb = 1e9;  // accounting-focused: no eviction interference
  opts.bytes_per_mb = 4096;
  return opts;
}

class StressRig {
 public:
  explicit StressRig(uint64_t seed)
      : cluster_(StressCluster()),
        fabric_({}, [this](const PageLocation& loc) { return cluster_.ReadBasePage(loc); }),
        agent_(cluster_, registry_, fabric_, {}),
        rng_(seed) {}

  // One random step; returns a tag describing what happened (for the
  // determinism check).
  int Step(SimTime now) {
    const uint64_t dice = rng_.Below(100);
    if (dice < 30 || cluster_.AllSandboxes().empty()) {
      const auto& profile =
          FunctionBenchProfiles()[rng_.Below(FunctionBenchProfiles().size())];
      Sandbox& sb = cluster_.Spawn(profile, NodeId{static_cast<int>(rng_.Below(3))}, now);
      cluster_.MarkWarm(sb, now);
      return 1;
    }
    auto ids = cluster_.AllSandboxes();
    Sandbox* sb = cluster_.Find(ids[rng_.Below(ids.size())]);
    if (dice < 45) {  // designate base (if eligible)
      if (sb->state == SandboxState::kWarm && cluster_.FindBaseSnapshot(sb->id) == nullptr) {
        agent_.DesignateBase(*sb);
        return 2;
      }
      return 0;
    }
    if (dice < 65) {  // dedup
      if (sb->state == SandboxState::kWarm && cluster_.FindBaseSnapshot(sb->id) == nullptr) {
        agent_.DedupOp(*sb, now);
        return 3;
      }
      return 0;
    }
    if (dice < 80) {  // restore (verified!)
      if (sb->state == SandboxState::kDedup) {
        RestoreOpResult r = agent_.RestoreOp(*sb, now, /*verify=*/true);
        // Drive any deferred background phase to completion immediately so
        // the rig's refcount/accounting invariants hold after every step.
        if (r.background_pending) {
          EXPECT_TRUE(agent_.CompleteBackgroundRestore(*sb, now).verified);
        } else {
          EXPECT_TRUE(r.verified);
        }
        return 4;
      }
      return 0;
    }
    if (dice < 90) {  // run + complete (bumps generation)
      if (sb->state == SandboxState::kWarm) {
        cluster_.MarkRunning(*sb, now);
        cluster_.MarkWarm(*sb, now + SimDuration{1});
        return 5;
      }
      return 0;
    }
    // purge
    if (sb->state == SandboxState::kDedup) {
      for (const PatchRecord& record : sb->patches) {
        for (const PageLocation& base : record.bases) {
          registry_.Unref(base.sandbox);
        }
      }
    }
    if (cluster_.FindBaseSnapshot(sb->id) == nullptr || registry_.RefCount(sb->id) == 0) {
      if (cluster_.FindBaseSnapshot(sb->id) != nullptr) {
        registry_.RemoveBaseSandbox(sb->id);
        cluster_.RemoveBaseSnapshot(sb->id);
      }
      cluster_.Purge(sb->id);
      return 6;
    }
    return 0;
  }

  void CheckAccounting() {
    for (int n = 0; n < cluster_.NumNodes(); ++n) {
      const NodeId node{n};
      ASSERT_NEAR(cluster_.node(node).used_mb, cluster_.RecomputeNodeUsedMb(node), 1e-6)
          << "node " << n;
    }
  }

  Cluster cluster_;
  FingerprintRegistry registry_;
  RdmaFabric fabric_;
  DedupAgent agent_;
  Rng rng_;
};

TEST(StressTest, RandomOpsPreserveAccounting) {
  StressRig rig(0xbeef);
  for (SimTime now; now < SimTime{400}; now += SimDuration{2}) {
    rig.Step(now);
    if (now.value() % 50 == 0) {
      rig.CheckAccounting();
    }
  }
  rig.CheckAccounting();
}

TEST(StressTest, AllRestoresByteExactUnderChurn) {
  StressRig rig(0xcafe);
  // Heavy dedup/restore cycling: the Step() mix already verifies every
  // restore byte-exact; this run just drives many of them.
  int restores = 0;
  for (SimTime now; now < SimTime{800}; now += SimDuration{2}) {
    restores += (rig.Step(now) == 4) ? 1 : 0;
  }
  EXPECT_GE(restores, 10) << "the mix should have exercised real restores";
}

TEST(StressTest, DeterministicUnderFixedSeed) {
  auto run = [](uint64_t seed) {
    StressRig rig(seed);
    std::vector<int> tags;
    for (SimTime now; now < SimTime{300}; now += SimDuration{2}) {
      tags.push_back(rig.Step(now));
    }
    return std::make_pair(tags, rig.cluster_.TotalUsedMb());
  };
  auto [tags_a, mem_a] = run(7);
  auto [tags_b, mem_b] = run(7);
  EXPECT_EQ(tags_a, tags_b);
  EXPECT_DOUBLE_EQ(mem_a, mem_b);
  auto [tags_c, mem_c] = run(8);
  EXPECT_NE(tags_a, tags_c);
}

TEST(StressTest, RefcountsReturnToZeroAfterFullDrain) {
  StressRig rig(0xd00d);
  std::vector<SandboxId> bases;
  // A base per function, then dedup/restore churn, then drain everything.
  for (const auto& p : FunctionBenchProfiles()) {
    Sandbox& sb = rig.cluster_.Spawn(p, NodeId{0}, SimTime{});
    rig.cluster_.MarkWarm(sb, SimTime{});
    rig.agent_.DesignateBase(sb);
    bases.push_back(sb.id);
  }
  std::vector<SandboxId> victims;
  for (int i = 0; i < 20; ++i) {
    const auto& p = FunctionBenchProfiles()[static_cast<size_t>(i) % 10];
    Sandbox& sb = rig.cluster_.Spawn(p, NodeId{1}, SimTime{});
    rig.cluster_.MarkWarm(sb, SimTime{});
    rig.agent_.DedupOp(sb, SimTime{1});
    victims.push_back(sb.id);
  }
  for (SandboxId id : victims) {
    Sandbox* sb = rig.cluster_.Find(id);
    RestoreOpResult r = rig.agent_.RestoreOp(*sb, SimTime{2}, /*verify=*/true);
    if (r.background_pending) {
      rig.agent_.CompleteBackgroundRestore(*sb, SimTime{3});
    }
  }
  for (SandboxId base : bases) {
    EXPECT_EQ(rig.registry_.RefCount(base), 0) << "base " << base;
  }
}

}  // namespace
}  // namespace medes
