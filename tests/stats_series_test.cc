// One counter store: each counted fact is recorded with a single call that
// advances the owner's per-instance stats and, with metrics on, its
// process-wide series. After one Medes run from a reset registry, every
// series with a per-instance counterpart must therefore equal it; with
// metrics off the stats still count and the series stay 0.
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "platform/platform.h"

namespace medes {
namespace {

PlatformOptions FourNodeOptions() {
  PlatformOptions opts = MakePlatformOptions(PolicyKind::kMedes);
  opts.cluster.num_nodes = 4;
  opts.cluster.node_memory_mb = 1024;
  opts.cluster.bytes_per_mb = 4096;  // small images: fast tests
  opts.medes.idle_period = 30 * kSecond;
  opts.medes.alpha = 8.0;
  return opts;
}

std::vector<TraceEvent> TenMinuteTrace() {
  TraceOptions topts;
  topts.duration = 10 * kMinute;
  topts.rate_scale = 2.0;
  return GenerateTrace(DefaultAzurePatterns(), topts);
}

// Counter values and histogram counts keyed "name" or "name{label}".
std::map<std::string, uint64_t> SeriesValues() {
  std::map<std::string, uint64_t> out;
  for (const obs::MetricSnapshot& snap : obs::MetricsRegistry::Default().Snapshot()) {
    const std::string key =
        snap.label_key.empty() ? snap.name : snap.name + "{" + snap.label_value + "}";
    out[key] = snap.kind == obs::InstrumentKind::kHistogram ? snap.histogram.count
                                                            : static_cast<uint64_t>(snap.value);
  }
  return out;
}

// Each series paired with the per-instance count the run reported for it.
std::map<std::string, uint64_t> StatsBySeries(const RunMetrics& m) {
  std::map<std::string, uint64_t> out = {
      {"medes_rdma_remote_reads_total", m.rdma.remote_reads},
      {"medes_rdma_remote_bytes_total", m.rdma.remote_bytes},
      {"medes_rdma_local_reads_total", m.rdma.local_reads},
      {"medes_rdma_local_bytes_total", m.rdma.local_bytes},
      {"medes_rdma_batch_messages_total", m.rdma.batch_messages},
      {"medes_rdma_batch_pages_total", m.rdma.batch_pages},
      {"medes_rdma_cache_hits_total", m.rdma.cache_hits},
      {"medes_rdma_cache_misses_total", m.rdma.cache_misses},
      {"medes_rdma_cache_evictions_total", m.rdma.cache_evictions},
      {"medes_registry_lookups_total", m.registry.lookups},
      {"medes_platform_spawns_total", m.sandboxes_spawned},
      {"medes_platform_evictions_total", m.evictions},
      {"medes_platform_overcommit_events_total", m.overcommit_events},
      {"medes_platform_base_designations_total", m.base_designations},
      {"medes_dedup_ops_total", m.dedup_ops},
      {"medes_restore_ops_total", m.restores},
      {"medes_restore_ws_hit_pages_total", m.lazy_restore.ws_hit_pages},
      {"medes_restore_ws_fault_pages_total", m.lazy_restore.ws_fault_pages},
      {"medes_restore_background_pages_total", m.lazy_restore.background_pages},
  };
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    const std::string type = ToString(static_cast<MessageType>(i));
    const MessageStats& ms = m.transport.by_type[i];
    out["medes_transport_messages_total{" + type + "}"] = ms.messages;
    out["medes_transport_bytes_total{" + type + "}"] = ms.bytes;
    out["medes_transport_dropped_total{" + type + "}"] = ms.dropped;
    out["medes_transport_latency_us{" + type + "}"] = ms.latency.count;
  }
  return out;
}

RunMetrics RunWithMetrics(bool enabled) {
  obs::MetricsRegistry::Default().ResetValues();
  obs::SetMetricsEnabled(enabled);
  ServerlessPlatform platform(FourNodeOptions());
  RunMetrics m = platform.Run(TenMinuteTrace());
  obs::SetMetricsEnabled(false);
  return m;
}

TEST(StatsSeriesTest, SeriesEqualTheirPerInstanceStats) {
  const RunMetrics m = RunWithMetrics(true);
  // The run exercises every layer the pairs cover.
  ASSERT_GT(m.dedup_ops, 0u);
  ASSERT_GT(m.restores, 0u);
  ASSERT_GT(m.rdma.cache_hits, 0u);
  ASSERT_GT(m.registry.lookups, 0u);
  ASSERT_GT(m.lazy_restore.ws_hit_pages, 0u);

  const std::map<std::string, uint64_t> series = SeriesValues();
  for (const auto& [name, stat] : StatsBySeries(m)) {
    ASSERT_TRUE(series.contains(name)) << name;
    EXPECT_EQ(series.at(name), stat) << name;
  }
}

TEST(StatsSeriesTest, StatsCountWithMetricsOffAndSeriesStayZero) {
  const std::map<std::string, uint64_t> stats = StatsBySeries(RunWithMetrics(false));
  for (const char* name :
       {"medes_dedup_ops_total", "medes_restore_ops_total", "medes_platform_spawns_total",
        "medes_rdma_cache_hits_total", "medes_registry_lookups_total",
        "medes_transport_messages_total{registry_lookup}"}) {
    EXPECT_GT(stats.at(name), 0u) << name;
  }
  for (const auto& [name, value] : SeriesValues()) {
    EXPECT_EQ(value, 0u) << name;
  }
  // Recording into the series changes no per-instance count.
  EXPECT_EQ(StatsBySeries(RunWithMetrics(true)), stats);
}

}  // namespace
}  // namespace medes
