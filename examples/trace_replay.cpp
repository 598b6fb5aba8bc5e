// trace_replay: run the full simulated serverless platform on an Azure-like
// trace under a chosen sandbox-management policy and print a run report.
//
//   $ ./trace_replay [policy] [minutes] [node_mb]
//   $ ./trace_replay medes 30 2048
//   $ ./trace_replay fixed 30 1024        (fixed 10-min keep-alive)
//   $ ./trace_replay adaptive 30 1024     (Azure-style adaptive keep-alive)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "medes.h"

using namespace medes;

int main(int argc, char** argv) {
  const std::string policy_name = argc > 1 ? argv[1] : "medes";
  const int minutes = argc > 2 ? std::atoi(argv[2]) : 15;
  const double node_mb = argc > 3 ? std::atof(argv[3]) : 2048;

  PolicyKind policy = PolicyKind::kMedes;
  if (policy_name == "fixed") {
    policy = PolicyKind::kFixedKeepAlive;
  } else if (policy_name == "adaptive") {
    policy = PolicyKind::kAdaptiveKeepAlive;
  } else if (policy_name != "medes") {
    std::fprintf(stderr, "usage: %s [medes|fixed|adaptive] [minutes] [node_mb]\n", argv[0]);
    return 1;
  }

  TraceOptions topts;
  topts.duration = minutes * kMinute;
  topts.rate_scale = 5.0;
  auto trace = GenerateTrace(DefaultAzurePatterns(), topts);

  PlatformOptions options = MakePlatformOptions(policy);
  options.cluster.node_memory_mb = node_mb;
  options.medes.alpha = 8.0;
  std::printf("policy=%s  trace=%d min (%zu requests)  cluster=%d nodes x %.0f MB\n",
              ToString(policy), minutes, trace.size(), options.cluster.num_nodes, node_mb);

  ServerlessPlatform platform(options);
  RunMetrics m = platform.Run(trace);

  std::printf("\n%-12s %8s %8s %8s %8s | %9s %9s %9s\n", "function", "reqs", "warm", "dedup",
              "cold", "p50(ms)", "p99(ms)", "p999(ms)");
  for (const auto& p : FunctionBenchProfiles()) {
    const auto& f = m.per_function[static_cast<size_t>(p.id)];
    if (f.TotalRequests() == 0) {
      continue;
    }
    std::printf("%-12s %8lu %8lu %8lu %8lu | %9.0f %9.0f %9.0f\n", p.name.c_str(),
                f.TotalRequests(), f.warm_starts, f.dedup_starts, f.cold_starts,
                m.FunctionE2ePercentileMs(p.id, 0.5), m.FunctionE2ePercentileMs(p.id, 0.99),
                m.FunctionE2ePercentileMs(p.id, 0.999));
  }
  std::printf("\ncluster: mean memory %.1f GB (median %.1f), mean %.1f sandboxes resident\n",
              m.MeanMemoryMb() / 1024.0, m.MedianMemoryMb() / 1024.0, m.MeanSandboxesInMemory());
  std::printf("events : %lu spawns, %lu evictions, %lu dedup ops, %lu restores, %lu base "
              "designations\n",
              m.sandboxes_spawned, m.evictions, m.dedup_ops, m.restores, m.base_designations);
  if (policy == PolicyKind::kMedes) {
    std::printf("dedup  : %lu same-function pages, %lu cross-function pages (%.0f%% cross)\n",
                m.same_function_pages, m.cross_function_pages,
                m.same_function_pages + m.cross_function_pages
                    ? 100.0 * static_cast<double>(m.cross_function_pages) /
                          static_cast<double>(m.same_function_pages + m.cross_function_pages)
                    : 0.0);
    std::printf("rdma   : %lu remote reads (%.1f MB at image scale)\n", m.rdma.remote_reads,
                static_cast<double>(m.rdma.remote_bytes) / (1024.0 * 1024.0));
  }
  return 0;
}
