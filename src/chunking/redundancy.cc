#include "chunking/redundancy.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/sha1.h"

namespace medes {
namespace {

// Calls fn(i, key) for i = 0, 1, ... over the k-byte chunks of `data` at
// offsets 0, 2k, 4k, ..., key = the chunk's Sha1 Prefix64. Chunks are keyed
// in strips on the stack, 64-byte ones through the batched kernel.
template <typename Fn>
void ForEachSampledChunkKey(std::span<const uint8_t> data, size_t k, Fn&& fn) {
  const size_t n = data.size() < k ? 0 : (data.size() - k) / (2 * k) + 1;
  constexpr size_t kStrip = 64;
  const uint8_t* chunks[kStrip];
  uint64_t keys[kStrip];
  for (size_t done = 0; done < n; done += kStrip) {
    const size_t take = std::min(kStrip, n - done);
    for (size_t i = 0; i < take; ++i) {
      chunks[i] = data.data() + (done + i) * 2 * k;
    }
    if (k == 64) {
      Sha1::Chunk64Prefix64Batch(chunks, take, keys);
    } else {
      for (size_t i = 0; i < take; ++i) {
        keys[i] = Sha1::Hash({chunks[i], k}).Prefix64();
      }
    }
    for (size_t i = 0; i < take; ++i) {
      fn(done + i, keys[i]);
    }
  }
}

}  // namespace

RedundancyResult MeasureRedundancy(std::span<const uint8_t> a, std::span<const uint8_t> b,
                                   const RedundancyOptions& options) {
  const size_t k = options.chunk_size;
  if (k == 0) {
    throw std::invalid_argument("chunk_size must be positive");
  }
  RedundancyResult result;
  result.total_bytes = b.size();
  if (a.size() < k || b.size() < k) {
    return result;
  }
  std::vector<size_t> candidates;

  // Index A's chunks sampled at stride 2K. Multiple offsets can share a hash.
  std::unordered_map<uint64_t, std::vector<size_t>> table;
  table.reserve(a.size() / (2 * k) + 1);
  ForEachSampledChunkKey(a, k, [&](size_t i, uint64_t key) {
    auto& offsets = table[key];
    if (offsets.size() < 8) {  // cap pathological chains (e.g. zero pages)
      offsets.push_back(i * 2 * k);
    }
  });

  ForEachSampledChunkKey(b, k, [&](size_t i, uint64_t key) {
    const size_t off = i * 2 * k;
    ++result.probed_chunks;
    size_t best = 0;
    // Fast path: same-offset candidate. Sandboxes of the same function lay
    // out near-identically, and the hash table's per-chain cap would
    // otherwise drop exactly these candidates for highly repetitive content.
    if (off + k <= a.size()) {
      candidates.assign(1, off);
    } else {
      candidates.clear();
    }
    auto it = table.find(key);
    if (it == table.end() && candidates.empty()) {
      return;
    }
    if (it != table.end()) {
      candidates.insert(candidates.end(), it->second.begin(), it->second.end());
    }
    for (size_t a_off : candidates) {
      if (std::memcmp(a.data() + a_off, b.data() + off, k) != 0) {
        continue;  // hash collision; reject
      }
      // Extend the verified K-byte match into the surrounding non-hashed
      // bytes, to a maximum total of 2K bytes (paper Section 2.1).
      size_t fwd = 0;
      size_t max_fwd = std::min({k, a.size() - (a_off + k), b.size() - (off + k)});
      while (fwd < max_fwd && a[a_off + k + fwd] == b[off + k + fwd]) {
        ++fwd;
      }
      size_t back = 0;
      size_t max_back = std::min({k - fwd, a_off, off});
      while (back < max_back && a[a_off - back - 1] == b[off - back - 1]) {
        ++back;
      }
      best = std::max(best, k + fwd + back);
      if (best == 2 * k) {
        break;
      }
    }
    if (best > 0) {
      ++result.matched_chunks;
      // Credit at most the 2K window this probe owns to avoid double counting
      // with the next probe (probes are 2K apart).
      result.duplicated_bytes += std::min(best, 2 * k);
    }
  });
  result.duplicated_bytes = std::min(result.duplicated_bytes, result.total_bytes);
  return result;
}

}  // namespace medes
