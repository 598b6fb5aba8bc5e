// Value-sampled chunk fingerprints and page fingerprints (paper Section 4.1.2).
//
// A page fingerprint is a small unordered set of chunk hashes: the page is
// scanned with a rolling 64 B window and a window is *selected* when its
// rolling hash matches a value pattern (content-defined selection — the same
// chunk content is selected no matter where it sits in memory, which is what
// makes this robust to ASLR shifts, unlike Difference Engine's random
// offsets). Of the selected chunks, the K smallest hashes form the
// fingerprint (K = cardinality, default 5 per the paper).
//
// The registry keys chunks by a truncated hash. `key_bits` models the
// fingerprint-table collision behaviour the paper reports for small chunk
// sizes (Section 7.8): fewer key bits -> more dissimilar chunks labelled
// similar -> worse base-page choices.
#ifndef MEDES_CHUNKING_FINGERPRINT_H_
#define MEDES_CHUNKING_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/kernels/rolling_kernels.h"

namespace medes {

// A single value-sampled chunk within a page.
struct SampledChunk {
  uint64_t key = 0;     // truncated chunk hash (registry key)
  uint32_t offset = 0;  // byte offset of the chunk within the page
};

// Unordered set of sampled chunk keys identifying a page.
struct PageFingerprint {
  std::vector<SampledChunk> chunks;

  bool Empty() const { return chunks.empty(); }
  size_t Cardinality() const { return chunks.size(); }
};

enum class SamplingMode {
  // Content-defined value sampling (Medes; EndRE-style).
  kValueSampled,
  // Chunks at fixed random offsets per page (Difference Engine-style
  // baseline; provided for the ablation discussed in paper Section 8).
  kRandomOffsets,
};

struct FingerprintOptions {
  size_t chunk_size = 64;     // RSC size in bytes
  size_t cardinality = 5;     // chunk hashes per page fingerprint
  // A window is selected when (rolling_hash & sample_mask) == sample_pattern.
  // The default 9-bit mask selects ~1/512 of window positions, i.e. roughly
  // 8 candidates per 4 KiB page, from which the K smallest survive. The
  // mask may use only the hash's low 16 bits (a 17-bit mask would select
  // under 0.04 windows per 4 KiB page, leaving the stride fallback), and
  // the pattern may set no bit outside the mask (it could never match).
  uint64_t sample_mask = 0x1ff;
  uint64_t sample_pattern = 0x0;
  // Truncation width of chunk-hash keys stored in / matched against the
  // fingerprint registry. 64 = effectively collision-free.
  int key_bits = 64;
  SamplingMode mode = SamplingMode::kValueSampled;
  // Seed for kRandomOffsets mode.
  uint64_t random_seed = 0x5eed;
};

class PageFingerprinter {
 public:
  explicit PageFingerprinter(FingerprintOptions options);

  const FingerprintOptions& options() const { return options_; }

  // Fingerprint of one page.
  PageFingerprint FingerprintPage(std::span<const uint8_t> page) const;

  // Fingerprints for every page of an image laid out contiguously.
  std::vector<PageFingerprint> FingerprintImage(std::span<const uint8_t> image,
                                                size_t page_size) const;

  // Truncated key of a full chunk hash: the *leading* key_bits bits of the
  // SHA-1 digest (Prefix64 is big-endian, so shifting right drops the
  // digest's trailing bits — the truncation the registry key comment
  // promises). key_bits is validated to [1, 64] by the constructor.
  uint64_t TruncateKey(uint64_t full) const {
    return full >> (64 - static_cast<unsigned>(options_.key_bits));
  }

 private:
  FingerprintOptions options_;
  // The selection test in the kernels' 16-bit form, built once here.
  // Stateless at scan time, so safe across pool workers.
  kernels::SampleRule rule_;
};

}  // namespace medes

#endif  // MEDES_CHUNKING_FINGERPRINT_H_
