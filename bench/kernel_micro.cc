// Per-kernel microbenchmark: MB/s of each hot-path kernel at every tier the
// machine can bind — 64-byte chunk hashing (single and batched), sample
// selection over a page, match extension and delta encode (seed-table
// cache cold and warm). Emits
// JSON with a speedup-vs-scalar column so CI can smoke-check the dispatch
// layer and archive per-tier throughput.
//
// Workload sizes mirror the real pipeline: 4 KiB pages, 64 B chunks, ~8
// sampled chunks per page. MEDES_BENCH_KERNEL_MS overrides the per-kernel
// measurement budget (milliseconds, default 200).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/kernels/memops.h"
#include "common/kernels/rolling_kernels.h"
#include "common/kernels/sha1_kernels.h"

using namespace medes;

namespace {

constexpr size_t kPage = 4096;
constexpr size_t kChunk = 64;
constexpr size_t kChunksPerBatch = 8;  // cardinality-ish sampled chunks/page

double BudgetMs() {
  const char* env = std::getenv("MEDES_BENCH_KERNEL_MS");
  if (env != nullptr) {
    double v = std::strtod(env, nullptr);
    if (v > 0) {
      return v;
    }
  }
  return 200.0;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// Runs `body(iters)` repeatedly until the budget elapses; returns MB/s given
// `bytes_per_iter`. The body must consume its input fully per iteration.
template <typename Body>
double MeasureMBps(size_t bytes_per_iter, Body&& body) {
  const double budget_ms = BudgetMs();
  // Warm up and self-calibrate the batch size to ~1/20 of the budget.
  size_t batch = 1;
  for (;;) {
    auto t0 = std::chrono::steady_clock::now();
    body(batch);
    double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                    .count();
    if (ms * 20.0 >= budget_ms || batch >= (size_t{1} << 24)) {
      break;
    }
    batch *= 2;
  }
  size_t iters = 0;
  auto start = std::chrono::steady_clock::now();
  double elapsed_ms = 0;
  do {
    body(batch);
    iters += batch;
    elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
  } while (elapsed_ms < budget_ms);
  double bytes = static_cast<double>(iters) * static_cast<double>(bytes_per_iter);
  return bytes / (elapsed_ms / 1000.0) / (1024.0 * 1024.0);
}

// `base` with 40 random single-byte edits.
std::vector<uint8_t> Edited(const std::vector<uint8_t>& base, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> target = base;
  for (int i = 0; i < 40; ++i) {
    target[rng.Below(target.size())] = static_cast<uint8_t>(rng.Next());
  }
  return target;
}

volatile uint64_t g_sink = 0;  // defeats dead-code elimination

struct KernelResult {
  std::string name;
  std::vector<std::pair<kernels::Tier, double>> mbps;  // per bound tier
};

std::vector<kernels::Tier> BindableTiers() {
  std::vector<kernels::Tier> tiers;
  for (kernels::Tier t : {kernels::Tier::kScalar, kernels::Tier::kPortable, kernels::Tier::kAvx2}) {
    if (t <= kernels::MaxSupportedTier()) {
      tiers.push_back(t);
    }
  }
  return tiers;
}

// Benchmarks one kernel across every bindable tier. `fn(iters)` runs the
// dispatched kernel `iters` times over `bytes_per_iter` bytes each.
template <typename Body>
KernelResult RunKernel(const char* name, size_t bytes_per_iter, Body&& body) {
  KernelResult r;
  r.name = name;
  for (kernels::Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    r.mbps.emplace_back(tier, MeasureMBps(bytes_per_iter, body));
  }
  kernels::ResetTierFromEnvironment();
  return r;
}

}  // namespace

int main() {
  const auto page = RandomBytes(kPage, 1);
  const auto base = RandomBytes(kPage, 2);
  const auto target = Edited(base, 3);

  std::vector<const uint8_t*> chunk_ptrs(kChunksPerBatch);
  for (size_t i = 0; i < kChunksPerBatch; ++i) {
    chunk_ptrs[i] = page.data() + i * (kPage / kChunksPerBatch);
  }

  std::vector<KernelResult> results;

  // 1. Single 64-byte chunk digest (the Sha1::HashChunk64 fast path).
  results.push_back(RunKernel("sha1_chunk64", kChunk, [&](size_t iters) {
    uint32_t state[5];
    for (size_t i = 0; i < iters; ++i) {
      kernels::Sha1Chunk64(page.data() + (i % kChunksPerBatch) * kChunk, state);
      g_sink = g_sink + state[0];
    }
  }));

  // 2. Batched chunk digests — what FingerprintPage issues per page.
  results.push_back(
      RunKernel("sha1_chunk64_batch", kChunk * kChunksPerBatch, [&](size_t iters) {
        uint32_t states[kChunksPerBatch][5];
        for (size_t i = 0; i < iters; ++i) {
          kernels::Sha1Chunk64Batch(chunk_ptrs.data(), kChunksPerBatch, states);
          g_sink = g_sink + states[0][0];
        }
      }));

  // 3. Sample selection over a full page (every 64 B window's rolling hash
  //    tested against the default 9-bit mask).
  {
    const kernels::SampleRule rule = kernels::MakeSampleRule(kChunk, 0x1ff, 0);
    static std::vector<uint16_t> hits(kPage - kChunk + 1);
    results.push_back(RunKernel("select_windows_page", kPage, [&](size_t iters) {
      for (size_t i = 0; i < iters; ++i) {
        g_sink = g_sink + kernels::SelectWindows(rule, page.data(), kPage, hits.data());
      }
    }));
  }

  // 4. Match extension over identical pages (the long-match worst case).
  results.push_back(RunKernel("match_forward_page", kPage, [&](size_t iters) {
    for (size_t i = 0; i < iters; ++i) {
      g_sink = g_sink + kernels::MatchForward(base.data(), base.data(), kPage);
    }
  }));

  // 5. Level-1 delta encode of a 40-edit page against its base (seed
  //    table, prefilter, match extension) — the dedup write path, both
  //    halves of it. Cold: one more base/target pair than the scratch's
  //    seed-table cache holds, visited in turn, so every call misses and
  //    builds its table. Warm: one pair, so every call finds its table.
  {
    static std::vector<uint8_t> out;
    DeltaOptions level1;
    level1.level = 1;
    std::vector<std::vector<uint8_t>> bases;
    std::vector<std::vector<uint8_t>> targets;
    for (uint64_t i = 0; i <= DeltaScratch::kCapacity; ++i) {
      bases.push_back(RandomBytes(kPage, 100 + i));
      targets.push_back(Edited(bases.back(), 400 + i));
    }
    static DeltaScratch cold;
    size_t next = 0;
    results.push_back(RunKernel("delta_encode_page", kPage, [&](size_t iters) {
      for (size_t i = 0; i < iters; ++i) {
        DeltaEncodeInto(bases[next], targets[next], level1, out, &cold);
        next = next + 1 < bases.size() ? next + 1 : 0;
        g_sink = g_sink + out.size();
      }
    }));
    static DeltaScratch warm;
    results.push_back(RunKernel("delta_encode_page_warm", kPage, [&](size_t iters) {
      for (size_t i = 0; i < iters; ++i) {
        DeltaEncodeInto(base, target, level1, out, &warm);
        g_sink = g_sink + out.size();
      }
    }));
  }

  // 6. Whole-page fingerprint through the public API (ties 1-3 together).
  {
    PageFingerprinter fp({});
    results.push_back(RunKernel("fingerprint_page", kPage, [&](size_t iters) {
      for (size_t i = 0; i < iters; ++i) {
        g_sink = g_sink + fp.FingerprintPage(page).Cardinality();
      }
    }));
  }

  const kernels::CpuFeatures feats = kernels::DetectCpuFeatures();
  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, "kernel_micro");
  w.BeginObject("cpu")
      .Field("avx2", feats.avx2)
      .Field("sha_ni", feats.sha_ni)
      .EndObject();
  w.BeginArray("kernels");
  for (const KernelResult& r : results) {
    const double scalar = r.mbps.front().second;
    w.BeginObject().Field("name", r.name).BeginArray("tiers");
    for (const auto& [tier, mbps] : r.mbps) {
      w.BeginObject()
          .Field("tier", kernels::TierName(tier))
          .Field("mb_per_sec", mbps, 1)
          .Field("speedup_vs_scalar", scalar > 0 ? mbps / scalar : 0.0)
          .EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
