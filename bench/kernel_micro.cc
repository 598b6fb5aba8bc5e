// Per-kernel microbenchmark: MB/s of each named variant of each hot-path
// kernel this CPU can run, reference first — 64-byte chunk hashing (single
// and batched), sample selection over a random page and over real image
// pages, match extension, the delta encoder's prefilter scan — and of the
// shipped entry points for delta encode (seed-table cache cold and warm), a
// registry lookup batch (MB/s of the probed pages), ten base inserts into a
// registry (MB/s of the inserted pages) and whole-page fingerprinting.
// Emits JSON with a speedup-vs-reference column so CI can hold each variant
// to the rate of its simpler sibling.
//
// Workload sizes mirror the real pipeline: 4 KiB pages, 64 B chunks, 5–8
// sampled chunks per page. MEDES_BENCH_KERNEL_MS overrides the per-variant
// measurement budget (milliseconds, default 200).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/kernels/memops.h"
#include "common/kernels/prefilter_kernels.h"
#include "common/kernels/rolling_kernels.h"
#include "common/kernels/sha1_kernels.h"

using namespace medes;

namespace {

constexpr size_t kPage = 4096;
constexpr size_t kChunk = 64;
constexpr size_t kChunksPerBatch = 8;  // most sampled chunks per page measured
constexpr size_t kImageBytesPerMb = 8192;  // every platform run's image scale

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

using CompressFn = void (*)(uint32_t[5], const uint8_t*);

// Sha1Chunk64 with a named compression: the init vector, then the chunk and
// the padding block of a 64-byte message.
template <CompressFn kCompress>
void Chunk64With(const uint8_t* chunk, uint32_t state[5]) {
  std::copy(kernels::kSha1Init, kernels::kSha1Init + 5, state);
  kCompress(state, chunk);
  kCompress(state, kernels::kSha1Pad64);
}

// One kernel's rates, one per named variant, reference first.
struct KernelResult {
  KernelResult(const char* kernel, size_t bytes) : name(kernel), bytes_per_iter(bytes) {}

  std::string name;
  size_t bytes_per_iter;
  std::vector<std::pair<std::string, double>> mbps;

  // Measures `body(iters)`, which runs the variant `iters` times over
  // bytes_per_iter bytes each.
  template <typename Body>
  KernelResult& Variant(const char* variant, Body&& body) {
    mbps.emplace_back(variant, MeasureMBps(bytes_per_iter, body));
    return *this;
  }
};

}  // namespace

int main() {
  const kernels::CpuFeatures cpu = kernels::DetectCpuFeatures();
  const auto page = RandomBytes(kPage, 1);
  const auto base = RandomBytes(kPage, 2);
  const auto target = Edited(base, 3);

  std::vector<const uint8_t*> chunk_ptrs(kChunksPerBatch);
  for (size_t i = 0; i < kChunksPerBatch; ++i) {
    chunk_ptrs[i] = page.data() + i * (kPage / kChunksPerBatch);
  }

  // One image per FunctionBench profile at the platform's scale, and the
  // pages a base designation fingerprints and inserts: the non-zero ones.
  const LibraryPool pool(0x11b9, kImageBytesPerMb);
  std::vector<MemoryImage> images;
  std::vector<const uint8_t*> image_pages;
  std::vector<std::vector<PageFingerprint>> image_fps;
  const PageFingerprinter fingerprinter({});
  for (const FunctionProfile& profile : FunctionBenchProfiles()) {
    const MemoryImage& image = images.emplace_back(BuildSandboxImage(profile, pool));
    std::vector<PageFingerprint>& fps = image_fps.emplace_back(image.NumPages());
    for (size_t p = 0; p < image.NumPages(); ++p) {
      const std::span<const uint8_t> bytes = image.Page(p);
      if (std::any_of(bytes.begin(), bytes.end(), [](uint8_t b) { return b != 0; })) {
        image_pages.push_back(bytes.data());
        fps[p] = fingerprinter.FingerprintPage(bytes);
      }
    }
  }

  std::vector<KernelResult> results;

  // 1. Single 64-byte chunk digest (the Sha1::HashChunk64 fast path).
  {
    const auto chunk64 = [&](auto chunk_fn) {
      return [&, chunk_fn](size_t iters) {
        uint32_t state[5];
        for (size_t i = 0; i < iters; ++i) {
          chunk_fn(page.data() + (i % kChunksPerBatch) * kChunk, state);
          g_sink = g_sink + state[0];
        }
      };
    };
    KernelResult& k = results.emplace_back("sha1_chunk64", kChunk);
    k.Variant("scalar", chunk64(Chunk64With<kernels::Sha1CompressScalar>));
    if (cpu.sha_ni) {
      k.Variant("sha-ni", chunk64(Chunk64With<kernels::Sha1CompressShaNi>));
    }
  }

  // 2. Batched chunk digests — what FingerprintPage issues per page — at
  //    the page's usual chunk counts, 5 to 8.
  for (size_t n = 5; n <= kChunksPerBatch; ++n) {
    const auto batch = [&, n](auto batch_fn) {
      return [&, n, batch_fn](size_t iters) {
        uint32_t states[kChunksPerBatch][5];
        for (size_t i = 0; i < iters; ++i) {
          batch_fn(chunk_ptrs.data(), n, states);
          g_sink = g_sink + states[0][0];
        }
      };
    };
    const auto one_at_a_time = [](const uint8_t* const* chunks, size_t count,
                                  uint32_t (*out_state)[5]) {
      for (size_t i = 0; i < count; ++i) {
        kernels::Sha1Chunk64(chunks[i], out_state[i]);
      }
    };
    const std::string name = "sha1_chunk64_batch_n" + std::to_string(n);
    KernelResult& k = results.emplace_back(name.c_str(), kChunk * n);
    k.Variant("one_at_a_time", batch(one_at_a_time));
    if (cpu.sha_ni) {
      k.Variant("sha-ni", batch(kernels::Sha1Chunk64BatchShaNi));
    }
    if (cpu.avx2) {
      k.Variant("avx2", batch(kernels::Sha1Chunk64BatchAvx2));
    }
  }

  // 3. Sample selection over a full page (every 64 B window's rolling hash
  //    tested against the default 9-bit mask).
  {
    const kernels::SampleRule rule = kernels::MakeSampleRule(kChunk, 0x1ff, 0);
    static std::vector<uint16_t> hits(kPage - kChunk + 1);
    const auto select = [&](auto select_fn) {
      return [&, select_fn](size_t iters) {
        for (size_t i = 0; i < iters; ++i) {
          g_sink = g_sink + select_fn(rule, page.data(), kPage, hits.data());
        }
      };
    };
    KernelResult& k = results.emplace_back("select_windows_page", kPage);
    k.Variant("portable", select(kernels::SelectWindowsPortable));
    if (cpu.avx2) {
      k.Variant("avx2", select(kernels::SelectWindowsAvx2));
    }
    // The same over every non-zero page of the images: what a base
    // designation scans. Real pages select more windows than random ones.
    const auto select_all = [&](auto select_fn) {
      return [&, select_fn](size_t iters) {
        for (size_t i = 0; i < iters; ++i) {
          for (const uint8_t* image_page : image_pages) {
            g_sink = g_sink + select_fn(rule, image_page, kPage, hits.data());
          }
        }
      };
    };
    KernelResult& img = results.emplace_back("select_windows_image_pages",
                                             kPage * image_pages.size());
    img.Variant("portable", select_all(kernels::SelectWindowsPortable));
    if (cpu.avx2) {
      img.Variant("avx2", select_all(kernels::SelectWindowsAvx2));
    }
  }

  // 4. Match extension over identical pages (the long-match worst case).
  {
    const auto match = [&](auto match_fn) {
      return [&, match_fn](size_t iters) {
        for (size_t i = 0; i < iters; ++i) {
          g_sink = g_sink + match_fn(base.data(), base.data(), kPage);
        }
      };
    };
    results.emplace_back("match_forward_page", kPage)
        .Variant("scalar", match(kernels::MatchForwardScalar))
        .Variant("swar", match(kernels::MatchForward));
  }

  // 5. The encoder's prefilter scan over a page: a filter built as the
  //    encoder builds it over a 4 KiB base (16-byte seeds, stride 8), and a
  //    target unrelated to the base, like the bytes the encoder scans
  //    between matches, where few positions pass. Each pair is scanned end
  //    to end, stopping at every position that passes.
  {
    constexpr size_t kPairs = 8;
    constexpr size_t kSeed = 16;
    std::vector<kernels::SeedPrefilter> filters(kPairs);
    std::vector<std::vector<uint8_t>> targets;
    for (size_t i = 0; i < kPairs; ++i) {
      const auto pair_base = RandomBytes(kPage, 700 + i);
      filters[i].Reset(true);
      for (size_t off = 0; off + kSeed <= kPage; off += kSeed / 2) {
        filters[i].Add(pair_base.data() + off);
      }
      targets.push_back(RandomBytes(kPage, 800 + i));
    }
    const auto scan = [&](auto next_fn) {
      return [&, next_fn](size_t iters) {
        for (size_t i = 0; i < iters; ++i) {
          const kernels::SeedPrefilter& filter = filters[i % kPairs];
          const std::vector<uint8_t>& t = targets[i % kPairs];
          const size_t last = t.size() - kSeed;
          for (size_t pos = 0; (pos = next_fn(filter, t, pos, last)) <= last; ++pos) {
            g_sink = g_sink + pos;
          }
        }
      };
    };
    KernelResult& k = results.emplace_back("prefilter_scan_page", kPage);
    k.Variant("portable", scan(kernels::NextCandidatePortable));
    if (cpu.avx2) {
      k.Variant("avx2", scan(kernels::NextCandidateAvx2));
    }
  }

  // 6. Level-1 delta encode of a 40-edit page against its base (seed
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
    results.emplace_back("delta_encode_page", kPage)
        .Variant("shipped", [&](size_t iters) {
          for (size_t i = 0; i < iters; ++i) {
            DeltaEncodeInto(bases[next], targets[next], level1, out, &cold);
            next = next + 1 < bases.size() ? next + 1 : 0;
            g_sink = g_sink + out.size();
          }
        });
    static DeltaScratch warm;
    results.emplace_back("delta_encode_page_warm", kPage)
        .Variant("shipped", [&](size_t iters) {
          for (size_t i = 0; i < iters; ++i) {
            DeltaEncodeInto(base, target, level1, out, &warm);
            g_sink = g_sink + out.size();
          }
        });
  }

  // 7. One 64-page registry lookup batch against a table shaped like a
  //    5-node Medes P2 cluster's after its base inserts: 10 base sandboxes
  //    of 84 pages, each page 5 sampled keys; three pages in ten repeat one
  //    of 40 pages every base shares, the rest hold keys of their own. That
  //    is about 3k keys and 4.2k locations, most keys with one location.
  //    Half the probes are shared pages with one key changed, a quarter
  //    stored pages, a quarter pages the table has never seen.
  {
    constexpr size_t kBases = 10;
    constexpr size_t kBasePages = 84;
    constexpr size_t kSharedPages = 40;
    constexpr size_t kProbePages = 64;
    Rng rng(900);
    const auto random_page = [&rng] {
      PageFingerprint fp;
      for (uint32_t c = 0; c < 5; ++c) {
        fp.chunks.push_back({rng.Next(), c * 64});
      }
      return fp;
    };
    std::vector<PageFingerprint> shared(kSharedPages);
    std::generate(shared.begin(), shared.end(), random_page);
    static FingerprintRegistry registry;
    std::vector<PageFingerprint> stored;
    for (uint64_t b = 0; b < kBases; ++b) {
      std::vector<PageFingerprint> pages;
      for (size_t p = 0; p < kBasePages; ++p) {
        pages.push_back(rng.Below(10) < 3 ? shared[rng.Below(kSharedPages)] : random_page());
      }
      stored.push_back(pages[rng.Below(kBasePages)]);
      registry.InsertBaseSandbox(NodeId{static_cast<int32_t>(b % 5)}, SandboxId{100 + b}, pages);
    }
    std::vector<PageFingerprint> probes;
    for (size_t q = 0; q < kProbePages; ++q) {
      if (q % 2 == 0) {
        PageFingerprint fp = shared[rng.Below(kSharedPages)];
        fp.chunks[rng.Below(5)].key = rng.Next();
        probes.push_back(fp);
      } else {
        probes.push_back(q % 4 == 1 ? stored[rng.Below(kBases)] : random_page());
      }
    }
    results.emplace_back("registry_probe_batch", kProbePages * kPage)
        .Variant("shipped", [&](size_t iters) {
          for (size_t i = 0; i < iters; ++i) {
            const auto found = registry.FindBasePagesBatch(probes, NodeId{1}, SandboxId{}, 1);
            g_sink = g_sink + found.size();
          }
        });
  }

  // 8. Ten base designations' registry inserts, one after another into a
  //    fresh registry: the non-zero pages of each image above, zero pages
  //    left empty, as DedupAgent::DesignateBase inserts them. MB/s of the
  //    inserted pages.
  {
    results.emplace_back("registry_insert_bases", kPage * image_pages.size())
        .Variant("shipped", [&](size_t iters) {
          for (size_t i = 0; i < iters; ++i) {
            FingerprintRegistry registry;
            for (size_t b = 0; b < image_fps.size(); ++b) {
              registry.InsertBaseSandbox(NodeId{0}, SandboxId{1 + b}, image_fps[b]);
            }
            g_sink = g_sink + registry.stats().num_entries;
          }
        });
  }

  // 9. Whole-page fingerprint through the public API (ties 1-3 together).
  {
    PageFingerprinter fp({});
    results.emplace_back("fingerprint_page", kPage)
        .Variant("shipped", [&](size_t iters) {
          for (size_t i = 0; i < iters; ++i) {
            g_sink = g_sink + fp.FingerprintPage(page).Cardinality();
          }
        });
  }

  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, "kernel_micro");
  w.BeginObject("cpu").Field("avx2", cpu.avx2).Field("sha_ni", cpu.sha_ni).EndObject();
  w.BeginArray("kernels");
  for (const KernelResult& r : results) {
    const double reference = r.mbps.front().second;
    w.BeginObject().Field("name", r.name).BeginArray("variants");
    for (const auto& [variant, mbps] : r.mbps) {
      w.BeginObject()
          .Field("variant", variant)
          .Field("mb_per_sec", mbps, 1)
          .Field("speedup_vs_reference", reference > 0 ? mbps / reference : 0.0)
          .EndObject();
    }
    w.EndArray().EndObject();
  }
  w.EndArray().EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
