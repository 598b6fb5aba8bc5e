// Multi-threaded stress for the FingerprintRegistry's one reader/writer
// lock: concurrent inserts, batched lookups, refcount churn, and removals.
// Run under -fsanitize=thread (cmake -DMEDES_SANITIZE=thread) to verify the
// locking — the CI matrix does.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "registry/fingerprint_registry.h"

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

// Deterministic per-sandbox fingerprints: sandbox s page p holds keys
// {s*16+p, 1000+p} — a private key plus a popular cross-sandbox key.
std::vector<PageFingerprint> SandboxFingerprints(SandboxId s) {
  std::vector<PageFingerprint> fps;
  for (uint64_t p = 0; p < 8; ++p) {
    fps.push_back(Fp({s.value() * 16 + p, 1000 + p}));
  }
  return fps;
}

TEST(RegistryConcurrencyTest, ConcurrentInsertLookupRemove) {
  FingerprintRegistry registry({.max_locations_per_key = 64});
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kSandboxesPerWriter = 24;
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  // Writers: insert a run of sandboxes, then remove every odd one.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&registry, w] {
      const uint64_t base = 1 + static_cast<uint64_t>(w) * 1000;
      for (uint64_t s = base; s < base + kSandboxesPerWriter; ++s) {
        registry.InsertBaseSandbox(NodeId{w}, SandboxId{s}, SandboxFingerprints(SandboxId{s}));
        registry.Ref(SandboxId{s});
        registry.Unref(SandboxId{s});
      }
      for (uint64_t s = base; s < base + kSandboxesPerWriter; ++s) {
        if (s % 2 == 1) {
          registry.RemoveBaseSandbox(SandboxId{s});
        }
      }
    });
  }
  // Readers: hammer single and batched lookups while the table churns.
  std::atomic<uint64_t> results_seen{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&registry, &stop, &results_seen] {
      std::vector<PageFingerprint> batch;
      for (uint64_t p = 0; p < 8; ++p) {
        batch.push_back(Fp({1000 + p, 3 + p}));
      }
      // do-while: on a loaded single-core host the writers can finish (and
      // set `stop`) before a reader is first scheduled; every reader still
      // contributes at least one iteration so results_seen stays meaningful.
      do {
        auto single =
            registry.FindBasePagesBatch(std::span(&batch[0], 1), NodeId{0}, kNoSandbox, 4).front();
        auto many = registry.FindBasePagesBatch(batch, NodeId{0}, kNoSandbox, 4);
        results_seen.fetch_add(single.size() + many.size(), std::memory_order_relaxed);
        (void)registry.stats();
        (void)registry.IsBaseSandbox(SandboxId{1});
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int w = 0; w < kWriters; ++w) {
    threads[static_cast<size_t>(w)].join();
  }
  stop.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) {
    threads[t].join();
  }
  EXPECT_GT(results_seen.load(), 0u);

  // Quiesced state: exactly the even sandboxes remain, with their entries.
  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.num_base_sandboxes,
            static_cast<size_t>(kWriters) * (kSandboxesPerWriter / 2));
  for (int w = 0; w < kWriters; ++w) {
    const uint64_t base = 1 + static_cast<uint64_t>(w) * 1000;
    for (uint64_t s = base; s < base + kSandboxesPerWriter; ++s) {
      EXPECT_EQ(registry.IsBaseSandbox(SandboxId{s}), s % 2 == 0) << "sandbox " << s;
      const PageFingerprint probe = Fp({s * 16 + 0});
      auto hits = registry.FindBasePagesBatch(std::span(&probe, 1), NodeId{0}, kNoSandbox, 4).front();
      if (s % 2 == 0) {
        ASSERT_EQ(hits.size(), 1u) << "sandbox " << s;
        EXPECT_EQ(hits[0].location.sandbox, SandboxId{s});
      } else {
        EXPECT_TRUE(hits.empty()) << "removed sandbox " << s << " left entries behind";
      }
    }
  }
}

TEST(RegistryConcurrencyTest, BatchLookupMatchesSingleLookups) {
  FingerprintRegistry registry;
  for (uint64_t s = 1; s <= 20; ++s) {
    registry.InsertBaseSandbox(NodeId{static_cast<int32_t>(s % 3)}, SandboxId{s},
                               SandboxFingerprints(SandboxId{s}));
  }
  std::vector<PageFingerprint> queries;
  for (uint64_t p = 0; p < 8; ++p) {
    queries.push_back(Fp({1000 + p, 5 * 16 + p, 777}));
  }
  auto batched = registry.FindBasePagesBatch(queries, /*local_node=*/NodeId{1},
                                             /*exclude_sandbox=*/SandboxId{5}, /*max_results=*/6);
  ASSERT_EQ(batched.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto single =
        registry.FindBasePagesBatch(std::span(&queries[i], 1), NodeId{1}, SandboxId{5}, 6).front();
    ASSERT_EQ(batched[i].size(), single.size()) << "query " << i;
    for (size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(batched[i][j].location, single[j].location) << "query " << i << " rank " << j;
      EXPECT_EQ(batched[i][j].overlap, single[j].overlap) << "query " << i << " rank " << j;
    }
  }
}

TEST(RegistryConcurrencyTest, RemoveIsScopedToOneSandbox) {
  // The reverse index must only strip the removed sandbox's locations, even
  // when many sandboxes share every key.
  FingerprintRegistry registry({.max_locations_per_key = 64});
  for (uint64_t s = 1; s <= 10; ++s) {
    registry.InsertBaseSandbox(NodeId{0}, SandboxId{s}, {Fp({42, 43}), Fp({42, 44})});
  }
  registry.RemoveBaseSandbox(SandboxId{4});
  const PageFingerprint probe = Fp({42});
  auto hits = registry.FindBasePagesBatch(std::span(&probe, 1), NodeId{0}, kNoSandbox, 64).front();
  EXPECT_EQ(hits.size(), 18u) << "9 sandboxes x 2 pages holding key 42";
  for (const auto& hit : hits) {
    EXPECT_NE(hit.location.sandbox, SandboxId{4});
  }
  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.num_base_sandboxes, 9u);
}

TEST(RegistryConcurrencyTest, CopyPreservesStateWithFreshLocks) {
  // medes_perfbench copies a populated registry for its traced stage pass;
  // the copy must be a deep, independent clone.
  FingerprintRegistry original;
  original.InsertBaseSandbox(NodeId{0}, SandboxId{7}, SandboxFingerprints(SandboxId{7}));
  original.Ref(SandboxId{7});
  FingerprintRegistry copy(original);
  EXPECT_TRUE(copy.IsBaseSandbox(SandboxId{7}));
  EXPECT_EQ(copy.RefCount(SandboxId{7}), 1);
  EXPECT_EQ(copy.stats().num_entries, original.stats().num_entries);
  copy.RemoveBaseSandbox(SandboxId{7});
  EXPECT_FALSE(copy.IsBaseSandbox(SandboxId{7}));
  EXPECT_TRUE(original.IsBaseSandbox(SandboxId{7})) << "copies do not alias the source";
}

}  // namespace
}  // namespace medes
