// Figure 13 — Medes + optimised checkpoint-restore (Section 7.6).
//
// Emulates Catalyzer's sandbox-template method: every cold start becomes a
// snapshot restore (no environment initialisation). Replaying the
// representative workload with and without Medes on top shows that memory
// deduplication composes with snapshot-restore optimisations: Medes shrinks
// idle footprints, so fewer (now-cheap) restores are needed at all.
#include <cstdio>

#include "bench_util.h"

using namespace medes;

int main() {
  bench::Header("Figure 13: emulated Catalyzer with and without Medes",
                "All cold starts replaced by snapshot restores (150 ms)");
  auto trace = bench::RepresentativeWorkload(30 * kMinute);

  PlatformOptions cat = bench::RepresentativeOptions(PolicyKind::kFixedKeepAlive);
  cat.emulate_catalyzer = true;
  PlatformOptions cat_medes = bench::RepresentativeOptions(PolicyKind::kMedes);
  cat_medes.emulate_catalyzer = true;

  RunMetrics m_cat = ServerlessPlatform(cat).Run(trace);
  RunMetrics m_both = ServerlessPlatform(cat_medes).Run(trace);

  std::printf("%-26s %14s %12s %12s\n", "configuration", "cold(restore)", "dedup starts",
              "p999 ms (ModelTrain)");
  std::printf("%-26s %14lu %12lu %12.0f\n", "Emulated Catalyzer", m_cat.TotalColdStarts(),
              bench::TotalDedupStarts(m_cat),
              m_cat.FunctionE2ePercentileMs(9, 0.999));
  std::printf("%-26s %14lu %12lu %12.0f\n", "Emulated Catalyzer + Medes",
              m_both.TotalColdStarts(), bench::TotalDedupStarts(m_both),
              m_both.FunctionE2ePercentileMs(9, 0.999));
  std::printf("\ncold-start (restore) reduction: %.1f%%\n",
              m_cat.TotalColdStarts()
                  ? 100.0 * (static_cast<double>(m_cat.TotalColdStarts()) -
                             static_cast<double>(m_both.TotalColdStarts())) /
                        static_cast<double>(m_cat.TotalColdStarts())
                  : 0.0);
  std::printf("dedup transitions with Medes: %lu across %lu spawned sandboxes (%.2f per\n"
              "sandbox; the paper reports 42.8%% of sandboxes deduplicated)\n",
              m_both.sandboxes_deduped, m_both.sandboxes_spawned,
              m_both.sandboxes_spawned ? static_cast<double>(m_both.sandboxes_deduped) /
                                             static_cast<double>(m_both.sandboxes_spawned)
                                       : 0.0);
  return 0;
}
