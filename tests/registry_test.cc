#include "registry/fingerprint_registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace medes {
namespace {

PageFingerprint Fp(std::initializer_list<uint64_t> keys) {
  PageFingerprint fp;
  uint32_t offset = 0;
  for (uint64_t k : keys) {
    fp.chunks.push_back({k, offset});
    offset += 64;
  }
  return fp;
}

TEST(RegistryTest, EmptyLookupReturnsNothing) {
  FingerprintRegistry registry;
  EXPECT_FALSE(registry.FindBasePage(Fp({1, 2, 3}), NodeId{0}).has_value());
}

TEST(RegistryTest, ExactMatchWins) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2, 3, 4, 5}), Fp({6, 7, 8, 9, 10})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3, 4, 5}), NodeId{0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.sandbox, SandboxId{100});
  EXPECT_EQ(hit->location.page_index, PageIndex{0});
  EXPECT_EQ(hit->overlap, 5);
}

TEST(RegistryTest, MaxOverlapPreferred) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2, 3, 90, 91})});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{200}, {Fp({1, 2, 3, 4, 92})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3, 4, 5}), NodeId{0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.sandbox, SandboxId{200});
  EXPECT_EQ(hit->overlap, 4);
}

TEST(RegistryTest, TieBreaksPreferLocalNode) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{3}, SandboxId{100}, {Fp({1, 2, 3, 4, 5})});
  registry.InsertBaseSandbox(NodeId{7}, SandboxId{200}, {Fp({1, 2, 3, 4, 5})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3, 4, 5}), NodeId{7});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.node, NodeId{7});
}

TEST(RegistryTest, TieWithoutLocalIsDeterministic) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{3}, SandboxId{200}, {Fp({1, 2, 3})});
  registry.InsertBaseSandbox(NodeId{5}, SandboxId{100}, {Fp({1, 2, 3})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3}), NodeId{9});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.sandbox, SandboxId{100}) << "lowest sandbox id wins deterministic ties";
}

TEST(RegistryTest, ExcludeSandboxSkipsOwnPages) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2, 3, 4, 5})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3, 4, 5}), NodeId{0}, /*exclude_sandbox=*/SandboxId{100});
  EXPECT_FALSE(hit.has_value());
}

TEST(RegistryTest, RemoveBaseSandboxPurgesEntries) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2, 3})});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{200}, {Fp({3, 4, 5})});
  registry.RemoveBaseSandbox(SandboxId{100});
  auto hit = registry.FindBasePage(Fp({1, 2, 3}), NodeId{0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.sandbox, SandboxId{200});
  EXPECT_EQ(hit->overlap, 1);
  EXPECT_FALSE(registry.IsBaseSandbox(SandboxId{100}));
  EXPECT_TRUE(registry.IsBaseSandbox(SandboxId{200}));
}

TEST(RegistryTest, PerKeyLocationCap) {
  FingerprintRegistry registry({.max_locations_per_key = 2});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({42})});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{200}, {Fp({42})});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{300}, {Fp({42})});
  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.num_keys, 1u);
  EXPECT_EQ(stats.num_entries, 2u);
  EXPECT_THROW(FingerprintRegistry({.max_locations_per_key = 0}), std::invalid_argument);
}

TEST(RegistryTest, RefcountLifecycle) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1})});
  EXPECT_EQ(registry.RefCount(SandboxId{100}), 0);
  registry.Ref(SandboxId{100});
  registry.Ref(SandboxId{100});
  EXPECT_EQ(registry.RefCount(SandboxId{100}), 2);
  registry.Unref(SandboxId{100});
  EXPECT_EQ(registry.RefCount(SandboxId{100}), 1);
  registry.Unref(SandboxId{100});
  registry.Unref(SandboxId{100});  // extra unref is clamped
  EXPECT_EQ(registry.RefCount(SandboxId{100}), 0);
  // Refs on unknown sandboxes are ignored.
  registry.Ref(SandboxId{999});
  EXPECT_EQ(registry.RefCount(SandboxId{999}), 0);
}

TEST(RegistryTest, StatsTrackLookups) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2})});
  static_cast<void>(registry.FindBasePage(Fp({1, 9}), NodeId{0}));
  static_cast<void>(registry.FindBasePage(Fp({8, 9}), NodeId{0}));
  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.key_hits, 1u);
  EXPECT_GT(stats.ApproxMemoryBytes(), 0u);

  // A batch counts every page, and every stored key it probes.
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{200}, {Fp({10, 11, 12}), Fp({13, 14})});
  const std::vector<PageFingerprint> probes = {Fp({10, 11, 12}), Fp({13, 14, 99}), Fp({98})};
  EXPECT_EQ(registry.FindBasePagesBatch(probes, NodeId{1}, SandboxId{}, 4).size(), 3u);
  stats = registry.stats();
  EXPECT_EQ(stats.lookups, 5u);
  EXPECT_EQ(stats.key_hits, 6u);
}

TEST(RegistryTest, MultiplePagesSameSandbox) {
  FingerprintRegistry registry;
  std::vector<PageFingerprint> fps = {Fp({1, 2}), Fp({2, 3}), Fp({3, 4})};
  registry.InsertBaseSandbox(NodeId{1}, SandboxId{100}, fps);
  auto hit = registry.FindBasePage(Fp({3, 4}), NodeId{1});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.page_index, PageIndex{2});
}

TEST(RegistryTest, EmptyFingerprintPagesNotInserted) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {PageFingerprint{}, Fp({5})});
  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.num_entries, 1u);
}

// Reference model of the registry: per-key location lists capped at insert
// time (a removal frees room that later inserts fill in order), a std::map
// tally, and a full std::sort under the ranking order, truncated to k.
class ReferenceRegistry {
 public:
  explicit ReferenceRegistry(size_t cap) : cap_(cap) {}

  void Insert(NodeId node, SandboxId sandbox, const std::vector<PageFingerprint>& fps) {
    for (size_t page = 0; page < fps.size(); ++page) {
      for (const SampledChunk& chunk : fps[page].chunks) {
        auto& locations = table_[chunk.key];
        if (locations.size() < cap_) {
          refilled_ += full_keys_.contains(chunk.key) ? 1 : 0;
          locations.push_back({node, sandbox, PageIndex{static_cast<uint32_t>(page)}});
        } else {
          ++capped_;
          full_keys_.insert(chunk.key);
        }
      }
    }
  }

  void Remove(SandboxId sandbox) {
    for (auto it = table_.begin(); it != table_.end();) {
      std::erase_if(it->second, [&](const PageLocation& loc) { return loc.sandbox == sandbox; });
      it = it->second.empty() ? table_.erase(it) : std::next(it);
    }
  }

  std::vector<BasePageCandidate> Find(const PageFingerprint& fp, NodeId local_node,
                                      SandboxId exclude, size_t k) const {
    std::map<std::tuple<int32_t, uint64_t, uint32_t>, int> tally;
    for (const SampledChunk& chunk : fp.chunks) {
      auto it = table_.find(chunk.key);
      if (it == table_.end()) {
        continue;
      }
      for (const PageLocation& loc : it->second) {
        if (loc.sandbox != exclude) {
          ++tally[{loc.node.value(), loc.sandbox.value(), loc.page_index.value()}];
        }
      }
    }
    std::vector<BasePageCandidate> ranked;
    for (const auto& [key, overlap] : tally) {
      const auto& [node, sandbox, page] = key;
      ranked.push_back({{NodeId{node}, SandboxId{sandbox}, PageIndex{page}}, overlap});
    }
    std::sort(ranked.begin(), ranked.end(),
              [&](const BasePageCandidate& a, const BasePageCandidate& b) {
                if (a.overlap != b.overlap) {
                  return a.overlap > b.overlap;
                }
                const bool a_local = a.location.node == local_node;
                const bool b_local = b.location.node == local_node;
                if (a_local != b_local) {
                  return a_local;
                }
                if (a.location.sandbox != b.location.sandbox) {
                  return a.location.sandbox < b.location.sandbox;
                }
                return a.location.page_index < b.location.page_index;
              });
    if (ranked.size() > k) {
      ranked.resize(k);
    }
    return ranked;
  }

  size_t NumKeys() const { return table_.size(); }
  size_t NumEntries() const {
    size_t n = 0;
    for (const auto& [key, locations] : table_) {
      n += locations.size();
    }
    return n;
  }
  bool Holds(uint64_t key) const { return table_.contains(key); }
  size_t capped() const { return capped_; }
  // Locations stored under a key that had been full before: room a removal
  // freed, taken by a later insert.
  size_t refilled() const { return refilled_; }

 private:
  size_t cap_;
  std::map<uint64_t, std::vector<PageLocation>> table_;
  std::set<uint64_t> full_keys_;
  size_t capped_ = 0;
  size_t refilled_ = 0;
};

TEST(RegistryTest, RankingMatchesReferenceModel) {
  constexpr size_t kCap = 6;
  // 16 base sandboxes over 4 nodes, 6 pages of 5 keys each, drawn from 64
  // keys (6-bit keys, so the table's keys collide often and key 0 is one of
  // them): plenty of overlap ties, and popular keys reach the location cap.
  // Page 0 of every sandbox holds its first key twice, and page 1 holds
  // key 0.
  Rng rng(17);
  auto random_fp = [&rng] {
    PageFingerprint fp;
    for (uint32_t c = 0; c < 5; ++c) {
      fp.chunks.push_back({rng.Below(64), c * 64});
    }
    return fp;
  };
  std::vector<std::tuple<NodeId, SandboxId, std::vector<PageFingerprint>>> bases;
  for (uint64_t s = 0; s < 16; ++s) {
    std::vector<PageFingerprint> fps;
    for (int p = 0; p < 6; ++p) {
      fps.push_back(random_fp());
    }
    fps[0].chunks[1].key = fps[0].chunks[0].key;
    fps[1].chunks[2].key = 0;
    bases.emplace_back(NodeId{static_cast<int32_t>(s % 4)}, SandboxId{100 + s}, fps);
  }
  // Queries: fresh random pages, stored pages, and pages repeating a key.
  std::vector<PageFingerprint> queries;
  for (int q = 0; q < 40; ++q) {
    queries.push_back(random_fp());
  }
  for (const auto& [node, sandbox, fps] : bases) {
    queries.push_back(fps[0]);
    queries.push_back(fps[1]);
    queries.push_back(fps[3]);
  }
  for (int q = 0; q < 10; ++q) {
    PageFingerprint fp = random_fp();
    fp.chunks[2].key = fp.chunks[4].key;
    queries.push_back(fp);
  }

  ReferenceRegistry reference(kCap);
  FingerprintRegistry registry(RegistryOptions{.max_locations_per_key = kCap});
  size_t local_tie_breaks = 0;
  // Every lookup the registry (or a copy of it) answers equals the
  // reference's, and so do the table's size counters.
  auto expect_matches = [&](FingerprintRegistry& got_registry, const ReferenceRegistry& want_registry,
                            const char* phase) {
    SCOPED_TRACE(phase);
    const RegistryStats stats = got_registry.stats();
    EXPECT_EQ(stats.num_keys, want_registry.NumKeys());
    EXPECT_EQ(stats.num_entries, want_registry.NumEntries());
    for (size_t k : {size_t{1}, size_t{2}, size_t{4}, size_t{64}}) {
      for (SandboxId exclude : {kNoSandbox, SandboxId{100}, SandboxId{105}}) {
        for (int local = 0; local < 4; ++local) {
          const auto got = got_registry.FindBasePagesBatch(queries, NodeId{local}, exclude, k);
          ASSERT_EQ(got.size(), queries.size());
          for (size_t q = 0; q < queries.size(); ++q) {
            const auto want = want_registry.Find(queries[q], NodeId{local}, exclude, k);
            const auto full = want_registry.Find(queries[q], NodeId{local}, exclude, 64);
            if (full.size() >= 2 && full[0].overlap == full[1].overlap &&
                (full[0].location.node == NodeId{local}) !=
                    (full[1].location.node == NodeId{local})) {
              ++local_tie_breaks;
            }
            ASSERT_EQ(got[q].size(), want.size())
                << "k=" << k << " exclude=" << exclude << " local=" << local << " query " << q;
            for (size_t r = 0; r < want.size(); ++r) {
              EXPECT_EQ(got[q][r].location, want[r].location)
                  << "k=" << k << " query " << q << " rank " << r;
              EXPECT_EQ(got[q][r].overlap, want[r].overlap)
                  << "k=" << k << " query " << q << " rank " << r;
            }
          }
        }
      }
    }
  };
  auto insert = [&](size_t b) {
    const auto& [node, sandbox, fps] = bases[b];
    reference.Insert(node, sandbox, fps);
    registry.InsertBaseSandbox(node, sandbox, fps);
  };
  auto remove = [&](uint64_t sandbox) {
    reference.Remove(SandboxId{sandbox});
    registry.RemoveBaseSandbox(SandboxId{sandbox});
  };

  for (size_t b = 0; b < 12; ++b) {
    insert(b);
  }
  ASSERT_GT(reference.capped(), 0u) << "no key reached the location cap";
  ASSERT_TRUE(reference.Holds(0)) << "key 0 is not in the table";
  expect_matches(registry, reference, "inserted");

  // Removals interleaved with inserts: freed room under capped keys is
  // taken by the later inserts in their order, and a removed sandbox comes
  // back at the end of its keys' lists.
  remove(101);
  remove(105);
  insert(12);
  expect_matches(registry, reference, "two removed, one inserted");
  insert(5);
  remove(100);
  insert(13);
  insert(0);
  remove(110);
  insert(14);
  insert(15);
  ASSERT_GT(reference.refilled(), 0u) << "no removal freed room under a capped key";
  expect_matches(registry, reference, "removals and re-inserts");

  // A copy answers like the original, and the two stay independent.
  FingerprintRegistry copy(registry);
  const ReferenceRegistry copied_reference = reference;
  expect_matches(copy, copied_reference, "copy");
  remove(103);
  expect_matches(registry, reference, "original after a removal");
  registry.InsertBaseSandbox(std::get<0>(bases[3]), SandboxId{103}, std::get<2>(bases[3]));
  reference.Insert(std::get<0>(bases[3]), SandboxId{103}, std::get<2>(bases[3]));
  remove(104);
  remove(106);
  expect_matches(registry, reference, "original after more edits");
  expect_matches(copy, copied_reference, "copy after the original's edits");

  // Removing every sandbox empties the table.
  for (uint64_t s = 100; s < 116; ++s) {
    remove(s);
  }
  ASSERT_EQ(reference.NumKeys(), 0u);
  expect_matches(registry, reference, "all removed");
  EXPECT_GT(local_tie_breaks, 0u) << "no top-rank tie was decided by the local node";
}

// Bound to a transport, a registry whose controller link is cut from one
// worker degrades instead of failing: that worker's insert registers
// nothing and its lookups answer with no candidates, while other workers
// are served as before.
TEST(RegistryTest, CutControllerLinkDegradesToNoCandidates) {
  constexpr NodeId kController{4};
  auto transport = std::make_shared<Transport>();
  auto policy = std::make_shared<StaticFaultPolicy>();
  transport->InstallFaultPolicy(policy);
  FingerprintRegistry registry;
  registry.BindTransport(transport, kController);
  policy->PartitionLink(NodeId{3}, kController);

  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2, 3})});
  registry.InsertBaseSandbox(NodeId{3}, SandboxId{200}, {Fp({4, 5, 6})});
  EXPECT_TRUE(registry.IsBaseSandbox(SandboxId{100}));
  EXPECT_FALSE(registry.IsBaseSandbox(SandboxId{200})) << "a dropped insert registers nothing";

  SimDuration dropped_cost;
  const std::vector<PageFingerprint> probe = {Fp({1, 2, 3})};
  EXPECT_TRUE(
      registry.FindBasePagesBatch(probe, NodeId{3}, SandboxId{}, 1, &dropped_cost).front().empty());
  EXPECT_GT(dropped_cost, SimDuration{0}) << "the sender still pays for the lost attempt";
  SimDuration delivered_cost;
  EXPECT_EQ(registry.FindBasePagesBatch(probe, NodeId{1}, SandboxId{}, 1, &delivered_cost)
                .front()
                .size(),
            1u);
  EXPECT_EQ(delivered_cost - dropped_cost, RegistryOptions().lookup_per_page)
      << "only a delivered lookup charges the controller's per-page work";

  const TransportStats net = transport->stats();
  EXPECT_EQ(net.For(MessageType::kRegistryInsert).dropped, 1u);
  EXPECT_EQ(net.For(MessageType::kRegistryLookup).messages, 2u);
  EXPECT_EQ(net.For(MessageType::kRegistryLookup).dropped, 1u);
  EXPECT_EQ(registry.stats().lookups, 2u);
  EXPECT_EQ(registry.stats().key_hits, 3u);
}

// Random fingerprints: `pages` pages of 5 sampled chunks each.
std::vector<PageFingerprint> RandomFingerprints(size_t pages, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageFingerprint> fps(pages);
  for (auto& fp : fps) {
    for (int c = 0; c < 5; ++c) {
      fp.chunks.push_back({rng.Next(), static_cast<uint32_t>(c * 64)});
    }
  }
  return fps;
}

// The six registry series after one insert, one 4-page batch, one single
// lookup and one removal (counter values; the batch-cost histogram's sample
// count).
std::map<std::string, uint64_t> RegistrySeriesAfterOneOfEach(FingerprintRegistry& registry) {
  obs::MetricsRegistry::Default().ResetValues();
  obs::SetMetricsEnabled(true);
  const auto fps = RandomFingerprints(4, 1);  // 4 pages, 20 keys
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, fps);
  (void)registry.FindBasePagesBatch(fps, NodeId{1}, SandboxId{}, 4);
  (void)registry.FindBasePage(fps[0], NodeId{1});
  registry.RemoveBaseSandbox(SandboxId{100});
  obs::SetMetricsEnabled(false);
  std::map<std::string, uint64_t> out;
  for (const obs::MetricSnapshot& snap : obs::MetricsRegistry::Default().Snapshot()) {
    if (snap.name.starts_with("medes_registry_")) {
      out[snap.name] = snap.kind == obs::InstrumentKind::kHistogram
                           ? snap.histogram.count
                           : static_cast<uint64_t>(snap.value);
    }
  }
  return out;
}

// Each registry series is counted once per logical operation: a batch of
// four pages is four lookups but one batch and one batch-cost sample.
TEST(RegistryTest, SeriesCountEachOperationOnce) {
  FingerprintRegistry registry;
  const std::map<std::string, uint64_t> want = {
      {"medes_registry_inserts_total", 1},        {"medes_registry_insert_keys_total", 20},
      {"medes_registry_removes_total", 1},        {"medes_registry_lookups_total", 5},
      {"medes_registry_lookup_batches_total", 2}, {"medes_registry_batch_cost_us", 2},
  };
  EXPECT_EQ(RegistrySeriesAfterOneOfEach(registry), want);
}

}  // namespace
}  // namespace medes
