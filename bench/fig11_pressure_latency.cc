// Figure 11 — tail latencies under memory pressure (Section 7.4).
//
// Per-function 99.9th-percentile end-to-end latencies at the 30 GB and 20 GB
// pool sizes. The paper reports up to 3.8x tail improvements under pressure,
// with the largest wins for functions with big footprints and setup costs
// (FeatureGen, ModelTrain).
#include <cstdio>

#include "bench_util.h"

using namespace medes;

int main() {
  bench::Header("Figure 11: 99.9p e2e latency under memory pressure",
                "Pressure pools: 28.5 GB (30G-case) and 19 GB (20G-case)");
  auto trace = bench::FullWorkload(30 * kMinute);

  for (double node_mb : {1536.0, 1024.0}) {
    RunMetrics fixed =
        ServerlessPlatform(bench::EvalOptions(PolicyKind::kFixedKeepAlive, node_mb)).Run(trace);
    RunMetrics adaptive =
        ServerlessPlatform(bench::EvalOptions(PolicyKind::kAdaptiveKeepAlive, node_mb)).Run(trace);
    RunMetrics medes =
        ServerlessPlatform(bench::EvalOptions(PolicyKind::kMedes, node_mb)).Run(trace);

    bench::Section(node_mb > 1200 ? "Tail latency, 30G-proportional pool"
                                  : "Tail latency, 20G-proportional pool");
    std::printf("%-12s | %7s %7s %7s | %8s %8s %8s | %8s %8s %8s\n", "function", "cs%:fix",
                "cs%:ada", "cs%:med", "p99:fix", "p99:ada", "p99:med", "p999:fix", "p999:ada",
                "p999:med");
    double best_fix = 0, best_ada = 0;
    for (const auto& p : FunctionBenchProfiles()) {
      auto f = static_cast<size_t>(p.id);
      auto cold_pct = [&](const RunMetrics& m) {
        const auto& fm = m.per_function[f];
        return fm.TotalRequests() ? 100.0 * static_cast<double>(fm.cold_starts) /
                                        static_cast<double>(fm.TotalRequests())
                                  : 0.0;
      };
      double p99f = fixed.FunctionE2ePercentileMs(p.id, 0.99);
      double p99a = adaptive.FunctionE2ePercentileMs(p.id, 0.99);
      double p99m = medes.FunctionE2ePercentileMs(p.id, 0.99);
      double pf = fixed.FunctionE2ePercentileMs(p.id, 0.999);
      double pa = adaptive.FunctionE2ePercentileMs(p.id, 0.999);
      double pm = medes.FunctionE2ePercentileMs(p.id, 0.999);
      best_fix = std::max({best_fix, pm > 0 ? pf / pm : 0, p99m > 0 ? p99f / p99m : 0});
      best_ada = std::max({best_ada, pm > 0 ? pa / pm : 0, p99m > 0 ? p99a / p99m : 0});
      std::printf("%-12s | %6.2f%% %6.2f%% %6.2f%% | %8.0f %8.0f %8.0f | %8.0f %8.0f %8.0f\n",
                  p.name.c_str(), cold_pct(fixed), cold_pct(adaptive), cold_pct(medes), p99f,
                  p99a, p99m, pf, pa, pm);
    }
    std::printf("best tail improvement: %.2fx vs fixed, %.2fx vs adaptive (paper: up to 3.8x)\n",
                best_fix, best_ada);
    std::printf("(a tail quantile flattens at the cold-start latency once a policy's cold\n"
                " fraction exceeds it; the cs%% columns show the underlying driver)\n");
  }
  return 0;
}
