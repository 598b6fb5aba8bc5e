// Unit tests for the unified cluster transport: LinkCost boundary behaviour,
// topology resolution, batched send accounting, per-type stats and latency
// histograms, and the StaticFaultPolicy fault-injection seam.
#include "net/transport.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "registry/fingerprint_registry.h"  // kRegistryWireBytesPerKey

namespace medes {
namespace {

// ---- LinkCost boundaries -------------------------------------------------

TEST(LinkCostTest, ZeroBytesCostsLatencyAlone) {
  EXPECT_EQ(LinkCost(Bytes{0}, {.latency = SimDuration{3}, .bandwidth_gbps = 10.0}), SimDuration{3});
  EXPECT_EQ(LinkCost(Bytes{0}, {.latency = SimDuration{0}, .bandwidth_gbps = 10.0}), SimDuration{0});
}

TEST(LinkCostTest, SubMicrosecondTransferTruncatesToZero) {
  // 1 byte at 10 Gbps is 0.0008 us; truncation leaves the latency term only.
  EXPECT_EQ(LinkCost(Bytes{1}, {.latency = SimDuration{3}, .bandwidth_gbps = 10.0}), SimDuration{3});
  // 1249 bytes at 10 Gbps is 0.9992 us — still truncates to 0.
  EXPECT_EQ(LinkCost(Bytes{1249}, {.latency = SimDuration{3}, .bandwidth_gbps = 10.0}), SimDuration{3});
  // 1250 bytes is exactly 1 us.
  EXPECT_EQ(LinkCost(Bytes{1250}, {.latency = SimDuration{3}, .bandwidth_gbps = 10.0}), SimDuration{4});
}

TEST(LinkCostTest, PinsTheRdmaPageReadCost) {
  // The cost the whole repo's RDMA model is calibrated against: a 4 KiB page
  // over the default 3 us / 10 Gbps link is 3 + trunc(3.2768) = 6 us.
  EXPECT_EQ(LinkCost(Bytes{4096}, {.latency = SimDuration{3}, .bandwidth_gbps = 10.0}), SimDuration{6});
}

TEST(LinkCostTest, HugeTransfersDoNotOverflow) {
  // 1 TiB at 10 Gbps: 2^40 * 8 / 10^4 us = 879,609,302.2 -> truncated.
  const size_t one_tib = size_t{1} << 40;
  EXPECT_EQ(LinkCost(Bytes{one_tib}, {.latency = SimDuration{3}, .bandwidth_gbps = 10.0}),
            SimDuration{3} + SimDuration{879609302});
}

TEST(LinkCostTest, NonPositiveBandwidthMeansInfinite) {
  EXPECT_EQ(LinkCost(Bytes{size_t{1} << 40}, {.latency = SimDuration{7}, .bandwidth_gbps = 0.0}), SimDuration{7});
  EXPECT_EQ(LinkCost(Bytes{4096}, {.latency = SimDuration{7}, .bandwidth_gbps = -1.0}), SimDuration{7});
}

// ---- Topology ------------------------------------------------------------

TEST(TopologyTest, ResolvesLocalAndRemote) {
  Topology topo;
  topo.remote = {.latency = SimDuration{3}, .bandwidth_gbps = 10.0};
  topo.local = {.latency = SimDuration{0}, .bandwidth_gbps = 80.0};
  EXPECT_EQ(topo.LinkFor(NodeId{0}, NodeId{0}), topo.local);
  EXPECT_EQ(topo.LinkFor(NodeId{0}, NodeId{1}), topo.remote);
}

// ---- HistogramValue (MessageStats::latency) ------------------------------

TEST(HistogramValueTest, PowerOfTwoBuckets) {
  using obs::HistogramValue;
  EXPECT_EQ(HistogramValue::BucketIndex(0), 0u);
  EXPECT_EQ(HistogramValue::BucketIndex(-5), 0u);
  EXPECT_EQ(HistogramValue::BucketIndex(1), 1u);
  EXPECT_EQ(HistogramValue::BucketIndex(2), 2u);
  EXPECT_EQ(HistogramValue::BucketIndex(3), 2u);
  EXPECT_EQ(HistogramValue::BucketIndex(4), 3u);
  // Values past the last bucket's range clamp into it.
  EXPECT_EQ(HistogramValue::BucketIndex(int64_t{1} << 40), HistogramValue::kNumBuckets - 1);

  EXPECT_EQ(HistogramValue::BucketUpperBound(0), 0);
  EXPECT_EQ(HistogramValue::BucketUpperBound(1), 1);
  EXPECT_EQ(HistogramValue::BucketUpperBound(2), 3);
  EXPECT_EQ(HistogramValue::BucketUpperBound(3), 7);

  HistogramValue h;
  h.Record(0);
  h.Record(1);
  h.Record(3);
  h.Record(3);
  EXPECT_EQ(h.buckets[0], 1u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.count, 4u);
}

// ---- Transport sends and stats -------------------------------------------

Topology SmallTopology() {
  Topology topo;
  topo.remote = {.latency = SimDuration{3}, .bandwidth_gbps = 10.0};
  topo.local = {.latency = SimDuration{0}, .bandwidth_gbps = 0.0};  // free same-node path
  return topo;
}

TEST(TransportTest, ChargesTheLinkCostModel) {
  Transport net(SmallTopology());
  EXPECT_EQ(net.MessageCost(NodeId{0}, NodeId{1}, Bytes{4096}), SimDuration{6});
  EXPECT_EQ(net.MessageCost(NodeId{0}, NodeId{0}, Bytes{4096}), SimDuration{0}) << "node-local fast path";

  auto sent = net.Send(MessageType::kBaseRead, NodeId{0}, NodeId{1}, Bytes{4096});
  EXPECT_TRUE(sent.delivered);
  EXPECT_EQ(sent.cost, SimDuration{6});
}

TEST(TransportTest, BatchedRequestAccounting) {
  Transport net(SmallTopology());
  // One lookup message carrying 64 logical page lookups.
  static_cast<void>(net.Send(MessageType::kRegistryLookup, NodeId{0}, NodeId{1},
                             Bytes{64} * kRegistryWireBytesPerKey.value(), 64));
  static_cast<void>(net.Send(MessageType::kRegistryLookup, NodeId{0}, NodeId{1},
                             Bytes{8} * kRegistryWireBytesPerKey.value(), 8));
  const TransportStats stats = net.stats();
  const MessageStats& ms = stats.For(MessageType::kRegistryLookup);
  EXPECT_EQ(ms.messages, 2u);
  EXPECT_EQ(ms.requests, 72u);
  EXPECT_EQ(ms.bytes, 72u * kRegistryWireBytesPerKey.value());
  EXPECT_EQ(ms.dropped, 0u);
  EXPECT_EQ(ms.latency.count, 2u);
  // Other message types are untouched.
  EXPECT_EQ(net.stats().For(MessageType::kBaseRead).messages, 0u);
}

TEST(TransportTest, StatsSeparatePerMessageType) {
  Transport net(SmallTopology());
  static_cast<void>(net.Send(MessageType::kRegistryLookup, NodeId{0}, NodeId{1}, Bytes{100}));
  static_cast<void>(net.Send(MessageType::kBaseRead, NodeId{1}, NodeId{2}, Bytes{4096}));
  static_cast<void>(net.Send(MessageType::kControlDecision, NodeId{3}, NodeId{0}, Bytes{64}));
  TransportStats stats = net.stats();
  EXPECT_EQ(stats.TotalMessages(), 3u);
  EXPECT_EQ(stats.TotalBytes(), 100u + 4096u + 64u);
  EXPECT_EQ(stats.For(MessageType::kRegistryLookup).messages, 1u);
  EXPECT_EQ(stats.For(MessageType::kBaseRead).messages, 1u);
  EXPECT_EQ(stats.For(MessageType::kControlDecision).messages, 1u);
  EXPECT_EQ(stats.For(MessageType::kBaseReadBatch).messages, 0u);

  net.ResetStats();
  EXPECT_EQ(net.stats().TotalMessages(), 0u);
  EXPECT_EQ(net.stats(), TransportStats{});
}

TEST(TransportTest, StatsAreOrderIndependent) {
  // The same multiset of sends must yield bit-identical stats regardless of
  // the order (and thread) they are issued from — the determinism contract.
  std::vector<std::pair<NodeId, size_t>> sends;
  for (int i = 0; i < 64; ++i) {
    sends.push_back({NodeId{i % 3}, static_cast<size_t>(i) * 512});
  }
  Transport forward(SmallTopology());
  for (const auto& [dst, bytes] : sends) {
    (void)forward.Send(MessageType::kBaseRead, NodeId{3}, dst, Bytes{bytes});
  }
  Transport reversed(SmallTopology());
  for (auto it = sends.rbegin(); it != sends.rend(); ++it) {
    (void)reversed.Send(MessageType::kBaseRead, NodeId{3}, it->first, Bytes{it->second});
  }
  Transport threaded(SmallTopology());
  {
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
      workers.emplace_back([&threaded, &sends, w] {
        for (size_t i = static_cast<size_t>(w); i < sends.size(); i += 4) {
          (void)threaded.Send(MessageType::kBaseRead, NodeId{3}, sends[i].first, Bytes{sends[i].second});
        }
      });
    }
    for (std::thread& t : workers) {
      t.join();
    }
  }
  EXPECT_EQ(forward.stats(), reversed.stats());
  EXPECT_EQ(forward.stats(), threaded.stats());
}

// ---- Fault injection -----------------------------------------------------

TEST(TransportFaultTest, NodePartitionDropsBothDirections) {
  Transport net(SmallTopology());
  auto policy = std::make_shared<StaticFaultPolicy>();
  net.InstallFaultPolicy(policy);
  EXPECT_TRUE(net.Send(MessageType::kControlDecision, NodeId{0}, NodeId{2}, Bytes{64}).delivered);

  policy->PartitionNode(NodeId{2});
  EXPECT_FALSE(net.Send(MessageType::kControlDecision, NodeId{1}, NodeId{2}, Bytes{64}).delivered);
  EXPECT_FALSE(net.Send(MessageType::kBaseRead, NodeId{0}, NodeId{2}, Bytes{4096}).delivered);
  EXPECT_FALSE(net.Send(MessageType::kBaseRead, NodeId{2}, NodeId{0}, Bytes{4096}).delivered);
  EXPECT_TRUE(net.Send(MessageType::kBaseRead, NodeId{0}, NodeId{1}, Bytes{4096}).delivered);

  policy->HealNode(NodeId{2});
  EXPECT_TRUE(net.Send(MessageType::kBaseRead, NodeId{0}, NodeId{2}, Bytes{4096}).delivered);

  const TransportStats stats = net.stats();
  const MessageStats& ms = stats.For(MessageType::kBaseRead);
  EXPECT_EQ(ms.messages, 4u);
  EXPECT_EQ(ms.dropped, 2u);
  // Latency totals and the histogram cover delivered messages only.
  EXPECT_EQ(ms.latency.sum, 2 * 6);
  EXPECT_EQ(ms.max_latency, SimDuration{6});
  EXPECT_EQ(ms.latency.count, 2u);
  EXPECT_DOUBLE_EQ(ms.MeanLatency(), 6.0);
}

TEST(TransportFaultTest, LinkPartitionIsBidirectionalAndHealable) {
  Transport net(SmallTopology());
  auto policy = std::make_shared<StaticFaultPolicy>();
  net.InstallFaultPolicy(policy);

  policy->PartitionLink(NodeId{0}, NodeId{1});
  EXPECT_FALSE(net.Send(MessageType::kRegistryLookup, NodeId{0}, NodeId{1}, Bytes{24}).delivered);
  EXPECT_FALSE(net.Send(MessageType::kRegistryLookup, NodeId{1}, NodeId{0}, Bytes{24}).delivered);
  // Nodes stay up — only the one link is cut.
  EXPECT_TRUE(net.Send(MessageType::kRegistryLookup, NodeId{0}, NodeId{2}, Bytes{24}).delivered);

  policy->HealLink(NodeId{0}, NodeId{1});
  EXPECT_TRUE(net.Send(MessageType::kRegistryLookup, NodeId{0}, NodeId{1}, Bytes{24}).delivered);
}

TEST(TransportFaultTest, TypeDelayAddsToCostOfThatTypeOnly) {
  Transport net(SmallTopology());
  auto policy = std::make_shared<StaticFaultPolicy>();
  net.InstallFaultPolicy(policy);
  policy->SetTypeDelay(MessageType::kRegistryLookup, SimDuration{100});

  auto lookup = net.Send(MessageType::kRegistryLookup, NodeId{0}, NodeId{1}, Bytes{0});
  EXPECT_TRUE(lookup.delivered);
  EXPECT_EQ(lookup.cost, SimDuration{3 + 100});
  auto read = net.Send(MessageType::kBaseRead, NodeId{0}, NodeId{1}, Bytes{4096});
  EXPECT_EQ(read.cost, SimDuration{6});
}

TEST(TransportFaultTest, ClearingThePolicyRestoresHealth) {
  Transport net(SmallTopology());
  auto policy = std::make_shared<StaticFaultPolicy>();
  net.InstallFaultPolicy(policy);
  policy->PartitionNode(NodeId{1});
  EXPECT_FALSE(net.Send(MessageType::kBaseRead, NodeId{0}, NodeId{1}, Bytes{4096}).delivered);
  net.InstallFaultPolicy(nullptr);
  EXPECT_TRUE(net.Send(MessageType::kBaseRead, NodeId{0}, NodeId{1}, Bytes{4096}).delivered);
}

}  // namespace
}  // namespace medes
