#include "chunking/fingerprint.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "common/sha1.h"

namespace medes {
namespace {

const FingerprintOptions& Validate(const FingerprintOptions& options) {
  if (options.chunk_size == 0) {
    throw std::invalid_argument("chunk_size must be positive");
  }
  if (options.cardinality == 0) {
    throw std::invalid_argument("cardinality must be positive");
  }
  if (options.key_bits < 1 || options.key_bits > 64) {
    throw std::invalid_argument("key_bits must be in [1, 64]");
  }
  if (options.sample_mask > 0xffff) {
    throw std::invalid_argument("sample_mask must fit in 16 bits");
  }
  if ((options.sample_pattern & ~options.sample_mask) != 0) {
    throw std::invalid_argument("sample_pattern must not set bits outside sample_mask");
  }
  return options;
}

kernels::SampleRule SampleRuleOf(const FingerprintOptions& options) {
  const auto mask = static_cast<uint16_t>(options.sample_mask);
  const auto pattern = static_cast<uint16_t>(options.sample_pattern);
  return kernels::MakeSampleRule(options.chunk_size, mask, pattern);
}

}  // namespace

PageFingerprinter::PageFingerprinter(FingerprintOptions options)
    : options_(Validate(options)), rule_(SampleRuleOf(options_)) {}

PageFingerprint PageFingerprinter::FingerprintPage(std::span<const uint8_t> page) const {
  PageFingerprint fp;
  const size_t w = options_.chunk_size;
  if (page.size() < w) {
    return fp;
  }

  // Stage 1: pick the sampled chunk offsets. Selection depends only on the
  // rolling hash values, so the (slow) chunk digests can be batched after.
  // The scratch vectors are thread-local so per-page work does zero
  // steady-state allocation, including under pool workers.
  thread_local std::vector<uint32_t> offsets_scratch;
  std::vector<uint32_t>& offsets = offsets_scratch;
  offsets.clear();

  if (options_.mode == SamplingMode::kRandomOffsets) {
    // Difference Engine-style: fixed pseudo-random offsets, *not* content
    // defined — the same page content shifted by a few bytes fingerprints
    // completely differently.
    Rng rng(options_.random_seed);
    for (size_t i = 0; i < options_.cardinality; ++i) {
      offsets.push_back(static_cast<uint32_t>(rng.Below(page.size() - w + 1)));
    }
  } else {
    // The kernel returns every matching window in ascending order, one
    // segment of at most kSelectMaxPositions positions at a time (its
    // scratch lives on the stack); the greedy pass keeps the first of any
    // overlapping run.
    const size_t positions = page.size() - w + 1;
    uint16_t hits[kernels::kSelectMaxPositions];
    size_t last_selected_end = 0;  // avoid overlapping selected chunks
    for (size_t seg = 0; seg < positions; seg += kernels::kSelectMaxPositions) {
      const size_t n = std::min(kernels::kSelectMaxPositions, positions - seg) + w - 1;
      const size_t found = kernels::SelectWindows(rule_, page.data() + seg, n, hits);
      for (size_t i = 0; i < found; ++i) {
        const size_t offset = seg + hits[i];
        if (offset >= last_selected_end) {
          offsets.push_back(static_cast<uint32_t>(offset));
          last_selected_end = offset + w;
        }
      }
    }
    if (offsets.size() < options_.cardinality) {
      // Sparse/uniform pages select too few windows; fall back to fixed-stride
      // chunks so every page still has a full-cardinality fingerprint. Stride
      // offsets overlapping an already-selected content-defined chunk are
      // skipped (they would duplicate it), and the loop stops as soon as the
      // fingerprint budget is met.
      const size_t selected = offsets.size();
      const size_t stride = std::max<size_t>(w, page.size() / (options_.cardinality + 1));
      for (size_t offset = 0;
           offset + w <= page.size() && offsets.size() < options_.cardinality;
           offset += stride) {
        bool covered = false;
        for (size_t i = 0; i < selected; ++i) {
          const size_t sel = offsets[i];
          if (offset < sel + w && sel < offset + w) {
            covered = true;
            break;
          }
        }
        if (!covered) {
          offsets.push_back(static_cast<uint32_t>(offset));
        }
      }
    }
  }

  // Stage 2: key every sampled chunk. 64-byte chunks — the Medes RSC
  // size — go through the batched kernel in one call.
  thread_local std::vector<uint64_t> key_scratch;
  std::vector<uint64_t>& keys = key_scratch;
  keys.resize(offsets.size());
  if (w == 64) {
    thread_local std::vector<const uint8_t*> ptr_scratch;
    ptr_scratch.resize(offsets.size());
    for (size_t i = 0; i < offsets.size(); ++i) {
      ptr_scratch[i] = page.data() + offsets[i];
    }
    Sha1::Chunk64Prefix64Batch(ptr_scratch.data(), ptr_scratch.size(), keys.data());
  } else {
    for (size_t i = 0; i < offsets.size(); ++i) {
      keys[i] = Sha1::Hash(page.subspan(offsets[i], w)).Prefix64();
    }
  }

  // Stage 3: keep the K smallest distinct keys, each at the smallest offset
  // it was sampled at — deterministic and unordered. fp.chunks stays sorted
  // by key, so each candidate is one short scan of at most K entries.
  std::vector<SampledChunk>& kept = fp.chunks;
  kept.reserve(std::min(options_.cardinality, offsets.size()));
  for (size_t i = 0; i < offsets.size(); ++i) {
    const SampledChunk c{TruncateKey(keys[i]), offsets[i]};
    auto at = kept.begin();
    while (at != kept.end() && at->key < c.key) {
      ++at;
    }
    if (at != kept.end() && at->key == c.key) {
      at->offset = std::min(at->offset, c.offset);
    } else if (kept.size() < options_.cardinality) {
      kept.insert(at, c);
    } else if (at != kept.end()) {
      std::move_backward(at, kept.end() - 1, kept.end());  // drops the largest
      *at = c;
    }
  }
  return fp;
}

std::vector<PageFingerprint> PageFingerprinter::FingerprintImage(std::span<const uint8_t> image,
                                                                 size_t page_size) const {
  std::vector<PageFingerprint> out;
  if (page_size == 0) {
    throw std::invalid_argument("page_size must be positive");
  }
  size_t pages = image.size() / page_size;
  out.reserve(pages);
  for (size_t p = 0; p < pages; ++p) {
    out.push_back(FingerprintPage(image.subspan(p * page_size, page_size)));
  }
  return out;
}

}  // namespace medes
