#include "rdma/rdma.h"

#include <gtest/gtest.h>

#include <vector>

namespace medes {
namespace {

std::vector<uint8_t> FakePage(uint8_t fill) { return std::vector<uint8_t>(4096, fill); }

TEST(RdmaTest, ReadCostScalesWithSize) {
  RdmaFabric fabric;  // default topology: 3 us + 10 Gbps remote
  // 4 KiB at 10 Gbps = 4096*8/10000 us ~= 3.27 us transfer + 3 us latency.
  SimDuration cost = fabric.ReadCost(Bytes{4096}, /*remote=*/true);
  EXPECT_GE(cost, SimDuration{6});
  EXPECT_LE(cost, SimDuration{7});
  EXPECT_GT(fabric.ReadCost(Bytes{1 << 20}, true), fabric.ReadCost(Bytes{4096}, true));
}

TEST(RdmaTest, LocalReadsCheaper) {
  RdmaFabric fabric;
  EXPECT_LT(fabric.ReadCost(Bytes{4096}, /*remote=*/false), fabric.ReadCost(Bytes{4096}, /*remote=*/true));
}

TEST(RdmaTest, ProviderRoutesBytesAndCountsStats) {
  RdmaFabric fabric({}, [](const PageLocation& loc) {
    return FakePage(static_cast<uint8_t>(loc.page_index.value()));
  });
  SimDuration cost;
  auto bytes = fabric.ReadSharedPage(
      {.node = NodeId{2}, .sandbox = SandboxId{1}, .page_index = PageIndex{7}},
      /*reader_node=*/NodeId{0}, &cost);
  ASSERT_EQ(bytes->size(), 4096u);
  EXPECT_EQ((*bytes)[0], 7);
  EXPECT_GT(cost, SimDuration{0});
  EXPECT_EQ(fabric.stats().remote_reads, 1u);
  EXPECT_EQ(fabric.stats().remote_bytes, 4096u);
  EXPECT_EQ(fabric.stats().local_reads, 0u);
}

TEST(RdmaTest, LocalReadCountedSeparately) {
  RdmaFabric fabric({}, [](const PageLocation&) { return FakePage(1); });
  SimDuration cost;
  (void)fabric.ReadSharedPage(
      {.node = NodeId{5}, .sandbox = SandboxId{1}, .page_index = PageIndex{0}},
      /*reader_node=*/NodeId{5}, &cost);
  EXPECT_EQ(fabric.stats().local_reads, 1u);
  EXPECT_EQ(fabric.stats().remote_reads, 0u);
}

TEST(RdmaTest, CostAccumulates) {
  RdmaFabric fabric({}, [](const PageLocation&) { return FakePage(0); });
  SimDuration cost;
  (void)fabric.ReadSharedPage(
      {.node = NodeId{1}, .sandbox = SandboxId{1}, .page_index = PageIndex{0}}, NodeId{0}, &cost);
  SimDuration after_one = cost;
  (void)fabric.ReadSharedPage(
      {.node = NodeId{1}, .sandbox = SandboxId{1}, .page_index = PageIndex{1}}, NodeId{0}, &cost);
  EXPECT_NEAR(static_cast<double>(cost.value()), 2.0 * static_cast<double>(after_one.value()), 1.0);
}

TEST(RdmaTest, MissingProviderThrows) {
  RdmaFabric fabric;
  SimDuration cost;
  const PageLocation loc{.node = NodeId{0}, .sandbox = SandboxId{1}, .page_index = PageIndex{0}};
  EXPECT_THROW((void)fabric.ReadSharedPage(loc, NodeId{0}, &cost), RdmaError);
}

TEST(RdmaTest, UnavailablePageThrows) {
  RdmaFabric fabric({}, [](const PageLocation&) { return std::vector<uint8_t>{}; });
  SimDuration cost;
  const PageLocation loc{.node = NodeId{0}, .sandbox = SandboxId{1}, .page_index = PageIndex{0}};
  EXPECT_THROW((void)fabric.ReadSharedPage(loc, NodeId{0}, &cost), RdmaError);
}

TEST(RdmaTest, NullCostPointerAccepted) {
  RdmaFabric fabric({}, [](const PageLocation&) { return FakePage(0); });
  const PageLocation loc{.node = NodeId{1}, .sandbox = SandboxId{1}, .page_index = PageIndex{0}};
  EXPECT_NO_THROW((void)fabric.ReadSharedPage(loc, NodeId{0}, nullptr));
}

TEST(RdmaTest, ResetStats) {
  RdmaFabric fabric({}, [](const PageLocation&) { return FakePage(0); });
  (void)fabric.ReadSharedPage(
      {.node = NodeId{1}, .sandbox = SandboxId{1}, .page_index = PageIndex{0}}, NodeId{0}, nullptr);
  fabric.ResetStats();
  EXPECT_EQ(fabric.stats().remote_reads, 0u);
}

// ---- Base-page cache -------------------------------------------------------

PageLocation Loc(uint64_t sandbox, uint32_t page) {
  return {.node = NodeId{1}, .sandbox = SandboxId{sandbox}, .page_index = PageIndex{page}};
}

TEST(RdmaCacheTest, RepeatReadsHitCache) {
  int provider_calls = 0;
  RdmaFabric fabric({.page_cache_capacity = 8}, [&](const PageLocation& loc) {
    ++provider_calls;
    return FakePage(static_cast<uint8_t>(loc.page_index.value()));
  });
  SimDuration first_cost;
  auto a = fabric.ReadSharedPage(Loc(1, 0), /*reader_node=*/NodeId{0}, &first_cost);
  SimDuration second_cost;
  auto b = fabric.ReadSharedPage(Loc(1, 0), /*reader_node=*/NodeId{0}, &second_cost);
  EXPECT_EQ(*a, *b) << "cache returns the same bytes";
  EXPECT_EQ(provider_calls, 1) << "second read never reached the provider";
  EXPECT_LT(second_cost, first_cost) << "a hit is a DRAM copy, not a fabric read";
  EXPECT_EQ(fabric.stats().cache_hits, 1u);
  EXPECT_EQ(fabric.stats().cache_misses, 1u);
  EXPECT_EQ(fabric.stats().remote_reads, 1u) << "hits are not counted as fabric reads";
  EXPECT_DOUBLE_EQ(fabric.stats().CacheHitRate(), 0.5);
}

TEST(RdmaCacheTest, LruEvictsLeastRecentlyUsed) {
  RdmaFabric fabric({.page_cache_capacity = 2}, [](const PageLocation& loc) {
    return FakePage(static_cast<uint8_t>(loc.page_index.value()));
  });
  (void)fabric.ReadSharedPage(Loc(1, 0), NodeId{0}, nullptr);  // miss: cache [0]
  (void)fabric.ReadSharedPage(Loc(1, 1), NodeId{0}, nullptr);  // miss: cache [1, 0]
  (void)fabric.ReadSharedPage(Loc(1, 0), NodeId{0}, nullptr);  // hit: 0 promoted -> [0, 1]
  (void)fabric.ReadSharedPage(Loc(1, 2), NodeId{0}, nullptr);  // miss: evicts 1 (LRU) -> [2, 0]
  EXPECT_EQ(fabric.stats().cache_evictions, 1u);
  (void)fabric.ReadSharedPage(Loc(1, 1), NodeId{0}, nullptr);  // miss: 1 was evicted, evicts 0
  EXPECT_EQ(fabric.stats().cache_misses, 4u);
  EXPECT_EQ(fabric.stats().cache_hits, 1u);
  EXPECT_EQ(fabric.stats().cache_evictions, 2u);
}

TEST(RdmaCacheTest, ZeroCapacityDisablesCache) {
  int provider_calls = 0;
  RdmaFabric fabric({}, [&](const PageLocation&) {
    ++provider_calls;
    return FakePage(0);
  });
  (void)fabric.ReadSharedPage(Loc(1, 0), NodeId{0}, nullptr);
  (void)fabric.ReadSharedPage(Loc(1, 0), NodeId{0}, nullptr);
  EXPECT_EQ(provider_calls, 2);
  EXPECT_EQ(fabric.stats().cache_hits, 0u);
  EXPECT_EQ(fabric.stats().cache_misses, 0u);
}

// ---- Batched reads ---------------------------------------------------------

PageLocation NodeLoc(int node, uint32_t page) {
  return {.node = NodeId{node}, .sandbox = SandboxId{1}, .page_index = PageIndex{page}};
}

TEST(RdmaBatchTest, CoalescesIntoOneMessagePerOwnerNode) {
  auto provider = [](const PageLocation& loc) {
    return FakePage(static_cast<uint8_t>(loc.page_index.value()));
  };
  RdmaFabric fabric({}, provider);
  const std::vector<PageLocation> locations = {NodeLoc(1, 0), NodeLoc(1, 1), NodeLoc(2, 2),
                                               NodeLoc(1, 3), NodeLoc(2, 4)};
  SimDuration batched_cost;
  auto results = fabric.ReadPageBatch(locations, /*reader_node=*/NodeId{0}, &batched_cost);
  ASSERT_EQ(results.size(), 5u);
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), 4096u) << i;
    EXPECT_EQ(results[i][0], locations[i].page_index.value()) << "positionally aligned";
  }
  EXPECT_EQ(fabric.stats().batch_messages, 2u) << "two owner nodes, two wire messages";
  EXPECT_EQ(fabric.stats().batch_pages, 5u);
  EXPECT_EQ(fabric.stats().remote_reads, 5u);
  EXPECT_EQ(fabric.stats().remote_bytes, 5u * 4096u);

  // Coalescing amortizes the per-message latency: the same pages read one by
  // one pay it five times instead of twice.
  RdmaFabric serial({}, provider);
  SimDuration serial_cost;
  for (const PageLocation& loc : locations) {
    (void)serial.ReadSharedPage(loc, NodeId{0}, &serial_cost);
  }
  EXPECT_LT(batched_cost, serial_cost);
}

TEST(RdmaBatchTest, LocalGroupCountedAsLocalReads) {
  RdmaFabric fabric({}, [](const PageLocation&) { return FakePage(0); });
  const std::vector<PageLocation> locations = {NodeLoc(3, 0), NodeLoc(3, 1)};
  SimDuration cost;
  (void)fabric.ReadPageBatch(locations, /*reader_node=*/NodeId{3}, &cost);
  EXPECT_EQ(fabric.stats().local_reads, 2u);
  EXPECT_EQ(fabric.stats().remote_reads, 0u);
  EXPECT_EQ(fabric.stats().batch_messages, 1u);
}

// Regression pin: a batch mixing cached and uncached locations must count
// each distinct location exactly once — one hit (cached) or one miss
// (fetched), with in-batch duplicates hit-priced as aliases — and never
// re-count the hits when charging the miss groups.
TEST(RdmaBatchTest, MixedCachedAndUncachedBatchCountsEachDistinctLocationOnce) {
  int provider_calls = 0;
  RdmaFabric fabric({.page_cache_capacity = 8}, [&](const PageLocation& loc) {
    ++provider_calls;
    return FakePage(static_cast<uint8_t>(loc.page_index.value()));
  });
  // Warm the cache with page 0: one miss, one provider call.
  (void)fabric.ReadSharedPage(NodeLoc(1, 0), NodeId{0}, nullptr);
  ASSERT_EQ(fabric.stats().cache_misses, 1u);

  // Batch = cached page, two uncached pages, and a duplicate of the cached
  // one. Distinct: one hit (page 0) + two misses (pages 1, 2); the repeat of
  // page 0 aliases the first copy at hit price.
  const std::vector<PageLocation> batch = {NodeLoc(1, 0), NodeLoc(1, 1), NodeLoc(1, 0),
                                           NodeLoc(1, 2)};
  SimDuration cost;
  auto results = fabric.ReadPageBatch(batch, NodeId{0}, &cost);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], results[2]) << "alias resolves to the same bytes";
  EXPECT_EQ(provider_calls, 3) << "cached page never re-fetched";
  EXPECT_EQ(fabric.stats().cache_hits, 2u) << "one cached hit + one alias, not double-counted";
  EXPECT_EQ(fabric.stats().cache_misses, 3u) << "warm-up miss + the two uncached pages";
  EXPECT_EQ(fabric.stats().batch_messages, 1u);
  EXPECT_EQ(fabric.stats().batch_pages, 2u) << "only the misses cross the wire";
  EXPECT_EQ(fabric.stats().remote_reads, 3u) << "warm-up read + two batched fetches";

  // Re-issuing the same batch is now all hits: no new messages, no fetches.
  (void)fabric.ReadPageBatch(batch, NodeId{0}, &cost);
  EXPECT_EQ(provider_calls, 3);
  EXPECT_EQ(fabric.stats().cache_hits, 6u) << "three distinct hits + one alias";
  EXPECT_EQ(fabric.stats().cache_misses, 3u);
  EXPECT_EQ(fabric.stats().batch_messages, 1u);
}

TEST(RdmaBatchTest, DuplicatesWithoutCacheAliasButCountNoHits) {
  int provider_calls = 0;
  RdmaFabric fabric({}, [&](const PageLocation&) {
    ++provider_calls;
    return FakePage(9);
  });
  const std::vector<PageLocation> batch = {NodeLoc(1, 5), NodeLoc(1, 5)};
  SimDuration cost;
  auto results = fabric.ReadPageBatch(batch, NodeId{0}, &cost);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(provider_calls, 1) << "duplicate served from the batch's own copy";
  EXPECT_EQ(fabric.stats().batch_pages, 1u);
  EXPECT_EQ(fabric.stats().cache_hits, 0u) << "no cache, no hits to claim";
  EXPECT_EQ(fabric.stats().cache_misses, 0u);
}

TEST(RdmaBatchTest, EmptyBatchIsFree) {
  RdmaFabric fabric({}, [](const PageLocation&) { return FakePage(0); });
  SimDuration cost;
  auto results = fabric.ReadPageBatch({}, NodeId{0}, &cost);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(cost, SimDuration{});
  EXPECT_EQ(fabric.stats().batch_messages, 0u);
}

TEST(RdmaCacheTest, InvalidateSandboxDropsItsPages) {
  RdmaFabric fabric({.page_cache_capacity = 8},
                    [](const PageLocation&) { return FakePage(0); });
  (void)fabric.ReadSharedPage(Loc(7, 0), NodeId{0}, nullptr);
  (void)fabric.ReadSharedPage(Loc(7, 1), NodeId{0}, nullptr);
  (void)fabric.ReadSharedPage(Loc(9, 0), NodeId{0}, nullptr);
  EXPECT_EQ(fabric.CachedPages(), 3u);
  fabric.InvalidateSandbox(SandboxId{7});
  EXPECT_EQ(fabric.CachedPages(), 1u);
  (void)fabric.ReadSharedPage(Loc(9, 0), NodeId{0}, nullptr);  // the survivor still hits
  EXPECT_EQ(fabric.stats().cache_hits, 1u);
}

// ---- Shared pages ----------------------------------------------------------

TEST(RdmaCacheTest, HitReturnsThePageTheMissStored) {
  RdmaFabric fabric({.page_cache_capacity = 8}, [](const PageLocation& loc) {
    return FakePage(static_cast<uint8_t>(loc.page_index.value()));
  });
  const SharedPage miss = fabric.ReadSharedPage(Loc(1, 3), NodeId{0}, nullptr);
  const SharedPage hit = fabric.ReadSharedPage(Loc(1, 3), NodeId{0}, nullptr);
  EXPECT_EQ(hit.get(), miss.get()) << "a hit shares the cached page, it does not copy it";
  const std::vector<PageLocation> batch = {Loc(1, 3), Loc(1, 4), Loc(1, 4)};
  const std::vector<SharedPage> pages = fabric.ReadSharedPageBatch(batch, NodeId{0}, nullptr);
  EXPECT_EQ(pages[0].get(), miss.get()) << "a batched hit shares it too";
  EXPECT_EQ(pages[2].get(), pages[1].get()) << "an in-batch repeat shares the first read's page";
  EXPECT_EQ(fabric.ReadSharedPage(Loc(1, 4), NodeId{0}, nullptr).get(), pages[1].get())
      << "a batched miss stored the page it returned";
  EXPECT_EQ(fabric.stats().cache_hits, 4u);
  EXPECT_EQ(fabric.stats().cache_misses, 2u);
}

TEST(RdmaCacheTest, HeldPageOutlivesEvictionAndInvalidation) {
  RdmaFabric fabric({.page_cache_capacity = 1}, [](const PageLocation& loc) {
    return FakePage(static_cast<uint8_t>(loc.page_index.value() + 10 * loc.sandbox.value()));
  });
  const SharedPage evicted = fabric.ReadSharedPage(Loc(1, 0), NodeId{0}, nullptr);
  const SharedPage invalidated = fabric.ReadSharedPage(Loc(2, 1), NodeId{0}, nullptr);
  EXPECT_EQ(fabric.stats().cache_evictions, 1u) << "capacity 1: the second read evicts the first";
  EXPECT_EQ(*evicted, FakePage(10)) << "an evicted page keeps its bytes while held";
  fabric.InvalidateSandbox(SandboxId{2});
  EXPECT_EQ(fabric.CachedPages(), 0u);
  EXPECT_EQ(*invalidated, FakePage(21)) << "an invalidated page keeps its bytes while held";
  // A fresh read after invalidation is a new page; the held one is untouched.
  const SharedPage reread = fabric.ReadSharedPage(Loc(2, 1), NodeId{0}, nullptr);
  EXPECT_NE(reread.get(), invalidated.get());
  EXPECT_EQ(*reread, *invalidated);
  EXPECT_EQ(fabric.stats().cache_misses, 3u);
}

// The copying ReadPageBatch is a thin copy over ReadSharedPageBatch: on a
// scripted sequence of batches with hits, misses, evictions and in-batch
// repeats over three owner nodes, it returns the same bytes at the same cost,
// and both leave the counters recorded for this script before pages were
// shared (copying reads, capacity 3, reader node 0).
TEST(RdmaBatchTest, CopyingBatchMatchesSharedBatchAndRecordedCounts) {
  auto provider = [](const PageLocation& loc) {
    return FakePage(static_cast<uint8_t>(loc.page_index.value() * 7 + loc.sandbox.value()));
  };
  auto at = [](int node, uint64_t sandbox, uint32_t page) {
    return PageLocation{
        .node = NodeId{node}, .sandbox = SandboxId{sandbox}, .page_index = PageIndex{page}};
  };
  const std::vector<std::vector<PageLocation>> script = {
      {at(1, 1, 0), at(1, 1, 1)},
      {at(1, 1, 0), at(2, 2, 5), at(1, 1, 0), at(0, 1, 3), at(2, 2, 5), at(1, 1, 1)},
      {at(0, 1, 3), at(0, 1, 3), at(1, 1, 4), at(2, 2, 6), at(2, 2, 5)},
      {at(1, 1, 0), at(1, 1, 1), at(2, 2, 5), at(1, 1, 0)},
  };
  RdmaFabric copying({.page_cache_capacity = 3}, provider);
  RdmaFabric shared({.page_cache_capacity = 3}, provider);
  SimDuration copying_cost;
  SimDuration shared_cost;
  for (const std::vector<PageLocation>& batch : script) {
    const auto copies = copying.ReadPageBatch(batch, NodeId{0}, &copying_cost);
    const auto pages = shared.ReadSharedPageBatch(batch, NodeId{0}, &shared_cost);
    ASSERT_EQ(copies.size(), batch.size());
    ASSERT_EQ(pages.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(copies[i], *pages[i]) << i;
      EXPECT_EQ(copies[i], provider(batch[i])) << i;
    }
  }
  EXPECT_EQ(copying_cost, shared_cost);
  EXPECT_EQ(copying_cost, SimDuration{45});
  for (const RdmaFabric* fabric : {&copying, &shared}) {
    const RdmaStats stats = fabric->stats();
    EXPECT_EQ(stats.remote_reads, 7u);
    EXPECT_EQ(stats.remote_bytes, 7u * 4096u);
    EXPECT_EQ(stats.local_reads, 1u);
    EXPECT_EQ(stats.local_bytes, 4096u);
    EXPECT_EQ(stats.batch_messages, 6u);
    EXPECT_EQ(stats.batch_pages, 8u);
    EXPECT_EQ(stats.cache_hits, 9u);
    EXPECT_EQ(stats.cache_misses, 8u);
    EXPECT_EQ(stats.cache_evictions, 5u);
    EXPECT_EQ(fabric->CachedPages(), 3u);
  }
}

}  // namespace
}  // namespace medes
