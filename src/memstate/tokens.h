// Global token dictionary — the source of sub-page memory redundancy.
//
// Real sandbox memory is dominated by shared-library text/data, interpreter
// structures, and heap objects whose 64 B-granularity content recurs heavily
// both within a function's sandboxes and across different functions (paper
// Figs. 1a-1c measure 84-90% redundancy at 64 B chunks). We reproduce that
// statistically: all synthetic library and shared-heap content is composed of
// 64 B "tokens" drawn from one global dictionary. Two different library blobs
// then share most 64 B chunks (high redundancy at fine granularity) while
// differing at coarser granularity (token order differs), matching the
// paper's observed redundancy-vs-chunk-size decay.
#ifndef MEDES_MEMSTATE_TOKENS_H_
#define MEDES_MEMSTATE_TOKENS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace medes {

inline constexpr size_t kTokenSize = 64;

class TokenDictionary {
 public:
  // `num_tokens` distinct 64 B tokens generated deterministically from `seed`.
  explicit TokenDictionary(uint64_t seed = 0x70cced, size_t num_tokens = 4096);

  size_t NumTokens() const { return num_tokens_; }

  std::span<const uint8_t> Token(size_t index) const {
    return {data_.data() + (index % num_tokens_) * kTokenSize, kTokenSize};
  }

  // Every token, in index order: token i is bytes [i*kTokenSize,
  // (i+1)*kTokenSize).
  std::span<const uint8_t> bytes() const { return data_; }

 private:
  size_t num_tokens_;
  std::vector<uint8_t> data_;
};

}  // namespace medes

#endif  // MEDES_MEMSTATE_TOKENS_H_
