// Figure 7 — end-to-end latency improvements (Section 7.2).
//
// The full multi-function workload replayed under Medes (latency objective,
// P1), fixed keep-alive (10 min), and adaptive keep-alive, with 2 GB/node
// software limits so the cluster is oversubscribed.
//
// (a) Distribution of per-request improvement factors (baseline e2e / Medes
//     e2e) against both baselines — the paper reports up to 2.25x / 2.75x
//     with <1% of requests regressing.
// (b) Per-function cold-start counts and 99.9th-percentile e2e latencies —
//     the paper reports 1-2.24x (fixed) and up to 2.3x (adaptive) tail wins,
//     driven by 1.85x / 6.2x cold-start reductions.
#include <cstdio>

#include "bench_util.h"

using namespace medes;

int main() {
  bench::Header("Figure 7: end-to-end latency vs keep-alive baselines",
                "Full workload, 19 nodes x 2 GB software limit (oversubscribed), Medes P1");
  auto trace = bench::FullWorkload(30 * kMinute);
  std::printf("requests: %zu over 30 simulated minutes (5x-magnified Azure-like arrivals)\n",
              trace.size());

  RunMetrics medes = ServerlessPlatform(bench::EvalOptions(PolicyKind::kMedes)).Run(trace);
  RunMetrics fixed = ServerlessPlatform(bench::EvalOptions(PolicyKind::kFixedKeepAlive)).Run(trace);
  RunMetrics adaptive =
      ServerlessPlatform(bench::EvalOptions(PolicyKind::kAdaptiveKeepAlive)).Run(trace);

  bench::Section("Fig 7a: CDF of per-request improvement factor (baseline e2e / Medes e2e)");
  const double cdf_points[] = {0.005, 0.01, 0.05, 0.5, 0.9, 0.95, 0.99, 0.995, 0.999, 1.0};
  for (const auto* pair : {&fixed, &adaptive}) {
    const char* name = (pair == &fixed) ? "vs Fixed Keep-Alive" : "vs Adaptive Keep-Alive";
    auto factors = ImprovementFactors(medes, *pair);
    SampleRecorder rec;
    size_t regressions = 0;
    for (double f : factors) {
      rec.Record(f);
      if (f < 1.0) {
        ++regressions;
      }
    }
    std::printf("  %s:\n    CDF    :", name);
    for (double p : cdf_points) {
      std::printf(" %5.3f", p);
    }
    std::printf("\n    factor :");
    for (double p : cdf_points) {
      std::printf(" %5.2f", rec.Percentile(p));
    }
    std::printf("\n    requests with factor < 1 (Medes slower): %.2f%%  (paper: <1%%)\n",
                100.0 * static_cast<double>(regressions) / static_cast<double>(factors.size()));
  }

  bench::Section("Fig 7b: per-function cold starts and 99.9p e2e latency (ms)");
  std::printf("%-12s | %7s %7s %7s | %9s %9s %9s | %6s %6s\n", "function", "cs:fix", "cs:ada",
              "cs:med", "p999:fix", "p999:ada", "p999:med", "x fix", "x ada");
  for (const auto& p : FunctionBenchProfiles()) {
    auto f = static_cast<size_t>(p.id);
    double pf = fixed.FunctionE2ePercentileMs(p.id, 0.999);
    double pa = adaptive.FunctionE2ePercentileMs(p.id, 0.999);
    double pm = medes.FunctionE2ePercentileMs(p.id, 0.999);
    std::printf("%-12s | %7lu %7lu %7lu | %9.0f %9.0f %9.0f | %6.2f %6.2f\n", p.name.c_str(),
                fixed.per_function[f].cold_starts, adaptive.per_function[f].cold_starts,
                medes.per_function[f].cold_starts, pf, pa, pm, pm > 0 ? pf / pm : 0,
                pm > 0 ? pa / pm : 0);
  }

  bench::Section("Sources of improvement (Section 7.2.1)");
  std::printf("total cold starts      : fixed=%lu adaptive=%lu medes=%lu\n",
              fixed.TotalColdStarts(), adaptive.TotalColdStarts(), medes.TotalColdStarts());
  std::printf(
      "cold-start reduction   : %.2fx vs fixed, %.2fx vs adaptive (paper: up to 1.85x/6.2x)\n",
              medes.TotalColdStarts() ? static_cast<double>(fixed.TotalColdStarts()) /
                                            static_cast<double>(medes.TotalColdStarts())
                                      : 0.0,
              medes.TotalColdStarts() ? static_cast<double>(adaptive.TotalColdStarts()) /
                                            static_cast<double>(medes.TotalColdStarts())
                                      : 0.0);
  std::printf("dedup transitions      : %lu across %lu spawned sandboxes (%.2f per sandbox; a\n"
              "                         sandbox re-enters dedup after each reuse — the paper\n"
              "                         reports ~39%% of sandboxes deduplicated)\n",
              medes.sandboxes_deduped, medes.sandboxes_spawned,
              medes.sandboxes_spawned ? static_cast<double>(medes.sandboxes_deduped) /
                                            static_cast<double>(medes.sandboxes_spawned)
                                      : 0.0);
  std::printf("mean sandboxes resident: fixed=%.1f adaptive=%.1f medes=%.1f "
              "(paper: medes keeps 7.74%%/37.7%% more)\n",
              fixed.MeanSandboxesInMemory(), adaptive.MeanSandboxesInMemory(),
              medes.MeanSandboxesInMemory());
  std::printf("dedup starts (medes)   : %lu; restores=%lu\n", bench::TotalDedupStarts(medes),
              medes.restores);
  return 0;
}
