#include "memstate/library_pool.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/rng.h"
#include "memstate/profiles.h"

namespace medes {

namespace {
constexpr size_t kPage = 4096;
}

LibraryPool::LibraryPool(uint64_t seed, size_t bytes_per_mb)
    : seed_(seed), bytes_per_mb_(bytes_per_mb), dictionary_(seed) {}

size_t LibraryPool::ScaledBytes(double mb) const {
  auto bytes = static_cast<size_t>(mb * static_cast<double>(bytes_per_mb_));
  // Round up to a whole page so segments stay page-aligned.
  return (bytes + kPage - 1) / kPage * kPage;
}

std::span<const uint8_t> LibraryPool::Blob(const std::string& name) const {
  auto it = cache_.find(name);
  if (it != cache_.end()) {
    return it->second;
  }
  // Size comes from the catalogue when known, else default to 4 MB.
  double mb = 4.0;
  for (const auto& info : LibraryCatalogue()) {
    if (info.name == name) {
      mb = info.size_mb;
      break;
    }
  }
  std::vector<uint8_t> blob(ScaledBytes(mb));
  uint64_t blob_seed = HashCombine(seed_, Fnv1a64({reinterpret_cast<const uint8_t*>(name.data()),
                                                   name.size()}));
  FillWithTokens(dictionary_, blob_seed, blob);
  auto [ins, _] = cache_.emplace(name, std::move(blob));
  return ins->second;
}

void FillWithTokens(const TokenDictionary& dict, uint64_t seed, std::span<uint8_t> out) {
  // Content is composed of contiguous *runs* of dictionary tokens (1-8 KiB),
  // not isolated shuffled tokens: real shared memory (library text, arena
  // allocations) repeats in long stretches, which is what lets a verified
  // 64 B chunk match extend into its neighbourhood (paper Section 2.1's
  // extension step) and lets delta encoding emit long COPY instructions.
  // A run of consecutive tokens is contiguous in the dictionary until it
  // wraps past the last token, so it is copied as one or two slices (more
  // only from a dictionary smaller than the run).
  const std::span<const uint8_t> tokens = dict.bytes();
  Rng rng(seed);
  size_t pos = 0;
  while (pos < out.size()) {
    size_t from = rng.Below(dict.NumTokens()) * kTokenSize;
    const size_t run_tokens = 16 + rng.Below(113);  // 1 KiB .. 8 KiB
    size_t run = std::min(run_tokens * kTokenSize, out.size() - pos);
    while (run > 0) {
      const size_t take = std::min(run, tokens.size() - from);
      std::memcpy(out.data() + pos, tokens.data() + from, take);
      pos += take;
      run -= take;
      from = 0;
    }
  }
}

}  // namespace medes
