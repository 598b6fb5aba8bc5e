#include "cluster/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <set>
#include <vector>

namespace medes {
namespace {

ClusterOptions SmallCluster() {
  ClusterOptions opts;
  opts.num_nodes = 3;
  opts.node_memory_mb = 512;
  opts.bytes_per_mb = 8192;
  return opts;
}

class ClusterTest : public ::testing::Test {
 protected:
  Cluster cluster_{SmallCluster()};
  const FunctionProfile& vanilla_ = ProfileByName("Vanilla");
  const FunctionProfile& rnn_ = ProfileByName("RNNModel");
};

TEST_F(ClusterTest, SpawnAccountsMemory) {
  Sandbox& sb = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  EXPECT_EQ(sb.state, SandboxState::kRunning);
  EXPECT_DOUBLE_EQ(cluster_.node(NodeId{0}).used_mb, vanilla_.memory_mb);
  EXPECT_DOUBLE_EQ(cluster_.RecomputeNodeUsedMb(NodeId{0}), vanilla_.memory_mb);
  EXPECT_EQ(cluster_.node(NodeId{0}).sandboxes.size(), 1u);
}

TEST_F(ClusterTest, PurgeReleasesMemory) {
  Sandbox& sb = cluster_.Spawn(vanilla_, NodeId{1}, SimTime{0});
  SandboxId id = sb.id;
  cluster_.Purge(id);
  EXPECT_DOUBLE_EQ(cluster_.node(NodeId{1}).used_mb, 0.0);
  EXPECT_EQ(cluster_.Find(id), nullptr);
  EXPECT_TRUE(cluster_.node(NodeId{1}).sandboxes.empty());
  EXPECT_THROW(cluster_.Purge(id), std::out_of_range);
}

TEST_F(ClusterTest, LifecycleTransitions) {
  Sandbox& sb = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  cluster_.MarkWarm(sb, SimTime{100});
  EXPECT_EQ(sb.state, SandboxState::kWarm);
  EXPECT_EQ(sb.idle_since, SimTime{100});
  cluster_.MarkRunning(sb, SimTime{200});
  EXPECT_EQ(sb.state, SandboxState::kRunning);
  EXPECT_EQ(sb.generation, 2u);
  EXPECT_EQ(sb.runs, 1u);
}

TEST_F(ClusterTest, MarkDedupRequiresCheckpoint) {
  Sandbox& sb = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  cluster_.MarkWarm(sb, SimTime{0});
  EXPECT_THROW(cluster_.MarkDedup(sb, SimTime{0}), std::logic_error);
}

TEST_F(ClusterTest, DedupAccountingUsesCheckpointSizes) {
  Sandbox& sb = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  cluster_.MarkWarm(sb, SimTime{0});
  MemoryImage image = cluster_.BuildImage(sb);
  sb.checkpoint = MemoryCheckpoint::Capture(image);
  // Patch away the first resident page to shrink the footprint.
  size_t page = 0;
  while (sb.checkpoint->SlotState(page) != PageSlotState::kResident) {
    ++page;
  }
  sb.checkpoint->ReplaceWithPatch(page, std::vector<uint8_t>(200, 1));
  cluster_.MarkDedup(sb, SimTime{10});
  EXPECT_EQ(sb.state, SandboxState::kDedup);
  double dedup_mb = cluster_.DedupFootprintMb(sb);
  EXPECT_LT(dedup_mb, vanilla_.memory_mb);
  EXPECT_NEAR(cluster_.node(NodeId{0}).used_mb, dedup_mb, 1e-9);
  EXPECT_NEAR(cluster_.RecomputeNodeUsedMb(NodeId{0}), cluster_.node(NodeId{0}).used_mb, 1e-9);
  // Restore flips accounting back.
  cluster_.MarkRestored(sb, SimTime{20});
  EXPECT_EQ(sb.state, SandboxState::kWarm);
  EXPECT_NEAR(cluster_.node(NodeId{0}).used_mb, vanilla_.memory_mb, 1e-9);
  EXPECT_FALSE(sb.checkpoint.has_value());
}

TEST_F(ClusterTest, MarkRunningOnDedupRejected) {
  Sandbox& sb = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  cluster_.MarkWarm(sb, SimTime{0});
  MemoryImage image = cluster_.BuildImage(sb);
  sb.checkpoint = MemoryCheckpoint::Capture(image);
  cluster_.MarkDedup(sb, SimTime{0});
  EXPECT_THROW(cluster_.MarkRunning(sb, SimTime{1}), std::logic_error);
}

TEST_F(ClusterTest, BaseSnapshotAccounting) {
  Sandbox& sb = cluster_.Spawn(rnn_, NodeId{2}, SimTime{0});
  cluster_.MarkWarm(sb, SimTime{0});
  MemoryImage image = cluster_.BuildImage(sb);
  cluster_.AddBaseSnapshot(sb, MemoryCheckpoint::Capture(image));
  EXPECT_NEAR(cluster_.node(NodeId{2}).used_mb, 2 * rnn_.memory_mb, 1e-9);
  EXPECT_EQ(cluster_.NumBaseSnapshots(rnn_.id), 1);
  EXPECT_THROW(cluster_.AddBaseSnapshot(sb, MemoryCheckpoint::Capture(image)), std::logic_error);
  cluster_.RemoveBaseSnapshot(sb.id);
  EXPECT_NEAR(cluster_.node(NodeId{2}).used_mb, rnn_.memory_mb, 1e-9);
  EXPECT_EQ(cluster_.NumBaseSnapshots(rnn_.id), 0);
}

TEST_F(ClusterTest, ReadBasePageReturnsBytes) {
  Sandbox& sb = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  cluster_.MarkWarm(sb, SimTime{0});
  MemoryImage image = cluster_.BuildImage(sb);
  cluster_.AddBaseSnapshot(sb, MemoryCheckpoint::Capture(image));
  auto page = cluster_.ReadBasePage({.node = NodeId{0}, .sandbox = sb.id, .page_index = PageIndex{0}});
  ASSERT_EQ(page.size(), kPageSize);
  EXPECT_TRUE(std::equal(page.begin(), page.end(), image.Page(0).begin()));
  // Unknown sandbox or out-of-range page -> empty.
  EXPECT_TRUE(cluster_.ReadBasePage({.node = NodeId{0}, .sandbox = SandboxId{9999}, .page_index = PageIndex{0}}).empty());
  EXPECT_TRUE(cluster_.ReadBasePage({.node = NodeId{0}, .sandbox = sb.id, .page_index = PageIndex{1u << 30}}).empty());
}

TEST_F(ClusterTest, ReadBasePageZeroSlot) {
  Sandbox& sb = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  cluster_.MarkWarm(sb, SimTime{0});
  MemoryImage image = cluster_.BuildImage(sb);
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image);
  ASSERT_GT(cp.NumZero(), 0u);
  uint32_t zero_page = 0;
  for (size_t p = 0; p < cp.NumPages(); ++p) {
    if (cp.SlotState(p) == PageSlotState::kZero) {
      zero_page = static_cast<uint32_t>(p);
      break;
    }
  }
  cluster_.AddBaseSnapshot(sb, std::move(cp));
  auto page = cluster_.ReadBasePage({.node = NodeId{0}, .sandbox = sb.id, .page_index = PageIndex{zero_page}});
  ASSERT_EQ(page.size(), kPageSize);
  EXPECT_TRUE(std::all_of(page.begin(), page.end(), [](uint8_t b) { return b == 0; }));
}

TEST_F(ClusterTest, SandboxesInFiltersByFunctionAndState) {
  Sandbox& a = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  Sandbox& b = cluster_.Spawn(vanilla_, NodeId{1}, SimTime{0});
  cluster_.Spawn(rnn_, NodeId{2}, SimTime{0});
  cluster_.MarkWarm(a, SimTime{0});
  cluster_.MarkWarm(b, SimTime{0});
  EXPECT_EQ(cluster_.SandboxesIn(vanilla_.id, SandboxState::kWarm).size(), 2u);
  EXPECT_EQ(cluster_.SandboxesIn(rnn_.id, SandboxState::kRunning).size(), 1u);
  EXPECT_TRUE(cluster_.SandboxesIn(rnn_.id, SandboxState::kDedup).empty());
}

// The incremental per-(function, state) counters must agree with the
// exhaustive scan at every point of a mixed lifecycle (the controller's
// hot-path reads go through CountIn; SandboxesIn is the oracle).
TEST_F(ClusterTest, CountInMatchesSandboxesInOracle) {
  auto check_all = [&] {
    for (FunctionId f : {vanilla_.id, rnn_.id}) {
      for (SandboxState s :
           {SandboxState::kRunning, SandboxState::kWarm, SandboxState::kDedup}) {
        EXPECT_EQ(static_cast<size_t>(cluster_.CountIn(f, s)), cluster_.SandboxesIn(f, s).size())
            << "function " << f << " state " << static_cast<int>(s);
      }
    }
  };
  check_all();
  Sandbox& a = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  Sandbox& b = cluster_.Spawn(vanilla_, NodeId{1}, SimTime{0});
  Sandbox& c = cluster_.Spawn(rnn_, NodeId{2}, SimTime{0});
  check_all();
  cluster_.MarkWarm(a, SimTime{0});
  cluster_.MarkWarm(b, SimTime{0});
  cluster_.MarkWarm(c, SimTime{0});
  check_all();
  cluster_.MarkRunning(b, SimTime{10});
  check_all();
  const SandboxId a_id = a.id;
  cluster_.Purge(a_id);
  check_all();
  EXPECT_EQ(cluster_.CountIn(vanilla_.id, SandboxState::kWarm), 0);
  EXPECT_EQ(cluster_.CountIn(vanilla_.id, SandboxState::kRunning), 1);
  EXPECT_EQ(cluster_.CountIn(rnn_.id, SandboxState::kWarm), 1);
}

// Differential test of the recency indexes, the counts and the id table.
// Random spawn / run / warm / dedup / restore / purge steps over several
// functions and nodes, with time standing still on most steps so many
// sandboxes share a timestamp, and restores re-entering the warm index with
// an old last_used. After every step, MostRecentWarm / MostRecentDedup must
// equal the linear-scan rule (largest time, lowest id on a tie), CountIn must
// equal the scan, and Find must be null exactly for ids that are not live.
TEST_F(ClusterTest, RandomLifecycleMatchesLinearScan) {
  Cluster& cluster = cluster_;
  const std::vector<FunctionProfile>& profiles = FunctionBenchProfiles();
  const std::vector<FunctionId> functions = {0, 1, 4, 9};
  // One checkpoint per function, copied into every sandbox it dedups.
  std::vector<MemoryCheckpoint> checkpoints;
  for (FunctionId f : functions) {
    Sandbox& sb = cluster.Spawn(profiles[static_cast<size_t>(f)], NodeId{0}, SimTime{});
    checkpoints.push_back(MemoryCheckpoint::Capture(cluster.BuildImage(sb)));
    cluster.Purge(sb.id);
  }

  // The rule the platform's pick used before the indexes: an ascending-id
  // scan that replaces the best only on a strictly larger time.
  auto scan_pick = [&](FunctionId f, SandboxState state) -> const Sandbox* {
    SimTime Sandbox::*const time =
        state == SandboxState::kWarm ? &Sandbox::last_used : &Sandbox::dedup_since;
    const Sandbox* best = nullptr;
    for (SandboxId id : cluster.SandboxesIn(f, state)) {
      const Sandbox* sb = cluster.Find(id);
      if (best == nullptr || sb->*time > best->*time) {
        best = sb;
      }
    }
    return best;
  };
  std::set<uint64_t> purged;
  uint64_t issued = 0;
  auto check = [&](int step) {
    for (FunctionId f : functions) {
      ASSERT_EQ(cluster.MostRecentWarm(f), scan_pick(f, SandboxState::kWarm))
          << "step " << step << " function " << f;
      ASSERT_EQ(cluster.MostRecentDedup(f), scan_pick(f, SandboxState::kDedup))
          << "step " << step << " function " << f;
      for (SandboxState s : {SandboxState::kRunning, SandboxState::kWarm, SandboxState::kDedup}) {
        ASSERT_EQ(static_cast<size_t>(cluster.CountIn(f, s)), cluster.SandboxesIn(f, s).size())
            << "step " << step << " function " << f << " state " << ToString(s);
      }
    }
    ASSERT_EQ(cluster.Find(kNoSandbox), nullptr);
    for (uint64_t id : purged) {
      ASSERT_EQ(cluster.Find(SandboxId{id}), nullptr) << "purged id " << id;
    }
    for (uint64_t id = issued + 1; id <= issued + 3; ++id) {
      ASSERT_EQ(cluster.Find(SandboxId{id}), nullptr) << "unissued id " << id;
    }
    ASSERT_EQ(cluster.Find(SandboxId{~uint64_t{0}}), nullptr);
    for (SandboxId id : cluster.AllSandboxes()) {
      ASSERT_NE(cluster.Find(id), nullptr);
      ASSERT_EQ(cluster.Find(id)->id, id);
    }
    for (int n = 0; n < cluster.NumNodes(); ++n) {
      ASSERT_NEAR(cluster.RecomputeNodeUsedMb(NodeId{n}), cluster.node(NodeId{n}).used_mb, 1e-6);
    }
  };

  issued = functions.size();
  for (uint64_t id = 1; id <= issued; ++id) {
    purged.insert(id);
  }
  std::mt19937_64 rng(0xc1a5);
  SimTime now{1};
  size_t restores_with_old_last_used = 0;
  for (int step = 0; step < 4000; ++step) {
    if (rng() % 10 < 3) {
      now += SimDuration{1 + static_cast<int64_t>(rng() % 3)};
    }
    const size_t fi = rng() % functions.size();
    const FunctionId f = functions[fi];
    const auto live = cluster.AllSandboxes();
    const uint64_t dice = rng() % 100;
    if (live.size() < 6 || dice < 15) {
      cluster.Spawn(profiles[static_cast<size_t>(f)], NodeId{static_cast<int>(rng() % 3)}, now);
      ++issued;
    } else if (dice < 40) {
      // A request, as the platform serves it: warm, else dedup, else none.
      if (Sandbox* sb = cluster.MostRecentWarm(f)) {
        cluster.MarkRunning(*sb, now);
      } else if (Sandbox* db = cluster.MostRecentDedup(f)) {
        if (db->last_used < now) {
          ++restores_with_old_last_used;
        }
        cluster.MarkRestored(*db, now, rng() % 2 == 0);
        cluster.MarkRunning(*db, now);
      }
    } else {
      Sandbox& sb = *cluster.Find(live[rng() % live.size()]);
      switch (sb.state) {
        case SandboxState::kRunning:
          if (dice < 85) {
            cluster.MarkWarm(sb, now);
          } else {
            EXPECT_THROW(cluster.MarkDedup(sb, now), std::logic_error);
          }
          break;
        case SandboxState::kWarm:
          if (dice < 60) {
            sb.checkpoint = checkpoints[static_cast<size_t>(
                std::find(functions.begin(), functions.end(), sb.function) - functions.begin())];
            cluster.MarkDedup(sb, now);
          } else if (dice < 75) {
            cluster.MarkRunning(sb, now);
          } else if (dice < 80) {
            EXPECT_THROW(cluster.MarkRestored(sb, now), std::logic_error);
          } else {
            purged.insert(sb.id.value());
            cluster.Purge(sb.id);
          }
          break;
        case SandboxState::kDedup:
          if (dice < 65) {
            if (sb.last_used < now) {
              ++restores_with_old_last_used;
            }
            cluster.MarkRestored(sb, now, dice < 55);
          } else if (dice < 75) {
            EXPECT_THROW(cluster.MarkRunning(sb, now), std::logic_error);
          } else {
            purged.insert(sb.id.value());
            cluster.Purge(sb.id);
          }
          break;
      }
    }
    check(step);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
  // The walk must have exercised what it is here for.
  EXPECT_GT(restores_with_old_last_used, 50u);
  EXPECT_GT(purged.size(), 100u);
}

TEST_F(ClusterTest, LeastUsedNode) {
  cluster_.Spawn(rnn_, NodeId{0}, SimTime{0});
  cluster_.Spawn(vanilla_, NodeId{1}, SimTime{0});
  EXPECT_EQ(cluster_.LeastUsedNode(), NodeId{2});
  cluster_.Spawn(rnn_, NodeId{2}, SimTime{0});
  EXPECT_EQ(cluster_.LeastUsedNode(), NodeId{1});
}

TEST_F(ClusterTest, BuildImageChangesWithGeneration) {
  Sandbox& sb = cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  MemoryImage g1 = cluster_.BuildImage(sb);
  cluster_.MarkWarm(sb, SimTime{0});
  cluster_.MarkRunning(sb, SimTime{1});  // generation bump
  MemoryImage g2 = cluster_.BuildImage(sb);
  ASSERT_EQ(g1.SizeBytes(), g2.SizeBytes());
  EXPECT_NE(std::memcmp(g1.bytes().data(), g2.bytes().data(), g1.SizeBytes()), 0);
}

TEST_F(ClusterTest, TotalsAggregate) {
  cluster_.Spawn(vanilla_, NodeId{0}, SimTime{0});
  cluster_.Spawn(rnn_, NodeId{1}, SimTime{0});
  EXPECT_NEAR(cluster_.TotalUsedMb(), vanilla_.memory_mb + rnn_.memory_mb, 1e-9);
  EXPECT_DOUBLE_EQ(cluster_.TotalLimitMb(), 3 * 512.0);
}

TEST(ClusterOptionsTest, RejectsZeroNodes) {
  ClusterOptions opts;
  opts.num_nodes = 0;
  EXPECT_THROW(Cluster{opts}, std::invalid_argument);
}

}  // namespace
}  // namespace medes
