// Network-model benchmark: per-message-type traffic and latency through the
// unified cluster transport, healthy and under fault injection.
//
// Drives a full dedup + restore workload (a base per function on worker 0,
// then three rounds of victims across workers 1-3) against the controller's
// fingerprint registry and an RDMA fabric sharing one Transport, twice: once
// healthy, once with the link between worker 3 and the controller cut. The
// pipeline must keep running either way: worker 3's lookups are dropped, so
// dedup degrades to fewer candidates, while restores keep reading base pages
// over the data plane. Every restore, lazy background phase included, must
// pass its byte-exact check.
//
// Output: a human-readable summary on stdout plus a JSON document (stdout,
// and to a file when a path is given as argv[1]) with per-message-type
// message/request/byte/drop counts, mean and max modelled latency, and the
// power-of-two latency histogram — the artifact CI uploads.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"

using namespace medes;

namespace {

struct RunSummary {
  TransportStats transport;
  uint64_t dedup_ops = 0;
  uint64_t restores = 0;
  uint64_t verified_restores = 0;
  uint64_t pages_deduped = 0;
  SimDuration total_lookup_time;
  SimDuration total_restore_time;
};

constexpr NodeId kControllerNode{4};  // after the four workers

RunSummary RunOnce(bool partitioned) {
  ClusterOptions copts;
  copts.num_nodes = 4;
  copts.node_memory_mb = 1e9;  // no pressure: isolate the wire traffic
  copts.bytes_per_mb = 16384;
  Cluster cluster(copts);

  auto transport = std::make_shared<Transport>();
  FingerprintRegistry registry;
  registry.BindTransport(transport, kControllerNode);
  RdmaFabric fabric({.page_cache_capacity = 512},
                    [&](const PageLocation& loc) { return cluster.ReadBasePage(loc); }, transport);
  DedupAgent agent(cluster, registry, fabric, {});

  if (partitioned) {
    auto policy = std::make_shared<StaticFaultPolicy>();
    policy->PartitionLink(NodeId{3}, kControllerNode);
    transport->InstallFaultPolicy(policy);
  }

  RunSummary summary;
  for (const auto& p : FunctionBenchProfiles()) {
    Sandbox& base = cluster.Spawn(p, NodeId{0}, SimTime{0});
    cluster.MarkWarm(base, SimTime{0});
    agent.DesignateBase(base);
  }
  for (int round = 0; round < 3; ++round) {
    for (const auto& p : FunctionBenchProfiles()) {
      Sandbox& sb = cluster.Spawn(p, NodeId{1 + round % 3}, SimTime{0});
      cluster.MarkWarm(sb, SimTime{0});
      DedupOpResult d = agent.DedupOp(sb, SimTime{1});
      ++summary.dedup_ops;
      summary.pages_deduped += d.pages_deduped;
      summary.total_lookup_time += d.lookup_time;
      RestoreOpResult r = agent.RestoreOp(sb, SimTime{2}, /*verify=*/true);
      ++summary.restores;
      summary.total_restore_time += r.total_time;
      const bool verified = r.background_pending
                                ? agent.CompleteBackgroundRestore(sb, SimTime{3}).verified
                                : r.verified;
      summary.verified_restores += verified ? 1 : 0;
      cluster.Purge(sb.id);
    }
  }
  summary.transport = transport->stats();
  return summary;
}

void WriteRunJson(bench::JsonWriter& w, const char* name, const RunSummary& run) {
  w.BeginObject(name);
  w.BeginObject("by_type");
  for (size_t t = 0; t < kNumMessageTypes; ++t) {
    const MessageStats& ms = run.transport.by_type[t];
    w.BeginObject(ToString(static_cast<MessageType>(t)))
        .Field("messages", ms.messages)
        .Field("requests", ms.requests)
        .Field("bytes", ms.bytes)
        .Field("dropped", ms.dropped)
        .Field("mean_latency_us", ms.MeanLatency())
        .Field("max_latency_us", ms.max_latency.value());
    w.BeginArray("latency_histogram");
    for (uint64_t count : ms.latency.buckets) {
      w.Value(count);
    }
    w.EndArray().EndObject();
  }
  w.EndObject();
  w.Field("total_messages", run.transport.TotalMessages())
      .Field("total_bytes", run.transport.TotalBytes())
      .Field("total_dropped", run.transport.TotalDropped());
  w.Field("dedup_ops", run.dedup_ops)
      .Field("restores", run.restores)
      .Field("verified_restores", run.verified_restores)
      .Field("pages_deduped", run.pages_deduped)
      .Field("total_lookup_ms", ToMillis(run.total_lookup_time), 1)
      .Field("total_restore_ms", ToMillis(run.total_restore_time), 1)
      .EndObject();
}

std::string BuildJson(const RunSummary& healthy, const RunSummary& faulty) {
  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, "net_model");
  WriteRunJson(w, "healthy", healthy);
  WriteRunJson(w, "partitioned", faulty);
  w.EndObject();
  return w.str();
}

void PrintSummary(const char* name, const RunSummary& run) {
  bench::Section(name);
  std::printf("%-18s %10s %10s %12s %8s %10s %8s\n", "type", "messages", "requests", "bytes",
              "dropped", "mean(us)", "max(us)");
  for (size_t t = 0; t < kNumMessageTypes; ++t) {
    const MessageStats& ms = run.transport.by_type[t];
    std::printf("%-18s %10llu %10llu %12llu %8llu %10.2f %8lld\n",
                ToString(static_cast<MessageType>(t)),
                static_cast<unsigned long long>(ms.messages),
                static_cast<unsigned long long>(ms.requests),
                static_cast<unsigned long long>(ms.bytes),
                static_cast<unsigned long long>(ms.dropped), ms.MeanLatency(),
                static_cast<long long>(ms.max_latency.value()));
  }
  std::printf(
      "ops: dedup=%llu restore=%llu verified=%llu pages_deduped=%llu lookup=%.1fms "
      "restore=%.1fms\n",
      static_cast<unsigned long long>(run.dedup_ops), static_cast<unsigned long long>(run.restores),
      static_cast<unsigned long long>(run.verified_restores),
      static_cast<unsigned long long>(run.pages_deduped), ToMillis(run.total_lookup_time),
      ToMillis(run.total_restore_time));
}

}  // namespace

int main(int argc, char** argv) {
  bench::Header("Network model: per-message-type transport traffic",
                "Dedup + restore workload, fingerprint registry at the controller");

  RunSummary healthy = RunOnce(/*partitioned=*/false);
  RunSummary faulty = RunOnce(/*partitioned=*/true);

  PrintSummary("Healthy cluster", healthy);
  PrintSummary("Partitioned: worker 3 <-> controller link cut", faulty);

  bench::Section("JSON");
  const std::string json = BuildJson(healthy, faulty);
  std::printf("%s\n", json.c_str());
  if (argc > 1 && !bench::WriteTextFile(argv[1], json)) {
    return 1;
  }
  bench::ExportObservability("net_model");

  // The fault run must *degrade*, not fail: lookups lost to the cut link,
  // reads still flowing and every restore still byte-exact.
  for (const RunSummary* run : {&healthy, &faulty}) {
    if (run->verified_restores != run->restores) {
      std::fprintf(stderr, "expected every restore to verify byte-exact\n");
      return 1;
    }
  }
  if (faulty.transport.For(MessageType::kRegistryLookup).dropped == 0) {
    std::fprintf(stderr, "expected the partition to drop registry lookups\n");
    return 1;
  }
  if (faulty.restores != healthy.restores ||
      faulty.transport.For(MessageType::kBaseRead).messages == 0) {
    std::fprintf(stderr, "expected restores to keep flowing under partition\n");
    return 1;
  }
  if (faulty.pages_deduped >= healthy.pages_deduped) {
    std::fprintf(stderr, "expected fewer dedup candidates under partition\n");
    return 1;
  }
  return 0;
}
