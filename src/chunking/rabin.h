// Rolling Rabin-style polynomial hash over a fixed-size byte window.
//
// Used to scan every 64-byte window of a page in a single linear pass (paper
// Section 4.1.2, "a single linear scan"): the hash of window [i+1, i+1+W) is
// derived from the hash of [i, i+W) in O(1).
//
// Construction precomputes a 256-entry table of outgoing-byte
// contributions (byte * base^(W-1)), so Roll() is a table lookup instead of
// a multiply, and a per-position power table that lets Init() run four
// independent multiply-accumulate chains. This class is the reference
// definition of the window hash; the fingerprint scan only ever tests its
// low 16 bits and runs the selection kernels
// (common/kernels/rolling_kernels.h) instead. Construct once and reuse — a
// RollingHash carries ~2.5 KiB of tables.
#ifndef MEDES_CHUNKING_RABIN_H_
#define MEDES_CHUNKING_RABIN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace medes {

class RollingHash {
 public:
  // `window` is the chunk size in bytes (e.g. 64 for Medes RSCs).
  explicit RollingHash(size_t window);

  size_t window() const { return window_; }

  // Hash of the first full window of `data`. Throws std::invalid_argument
  // if data.size() < window().
  uint64_t Init(std::span<const uint8_t> data) const;

  // Slide the window one byte: remove `outgoing`, append `incoming`.
  uint64_t Roll(uint64_t hash, uint8_t outgoing, uint8_t incoming) const {
    return (hash - out_table_[outgoing]) * kBase + incoming;
  }

  // Hashes of every window of `data`, written to out[0 .. data.size() -
  // window()]: Init() and then Roll() one byte at a time. `out` must hold
  // data.size() - window() + 1 values. Throws std::invalid_argument if data
  // is shorter than the window.
  void BulkHash(std::span<const uint8_t> data, uint64_t* out) const;

 private:
  static constexpr uint64_t kBase = 0x100000001b3ull;  // FNV prime as the polynomial base

  size_t window_;
  uint64_t pow_;                          // kBase^(window-1), wrapping mod 2^64
  std::array<uint64_t, 256> out_table_;   // out_table_[b] = b * pow_
  std::vector<uint64_t> pow_table_;       // pow_table_[i] = kBase^(window-1-i)
};

// Convenience: hashes of all rolling windows of `data` (data.size() - window + 1
// values). Returns empty if data is shorter than the window.
std::vector<uint64_t> AllWindowHashes(std::span<const uint8_t> data, size_t window);

}  // namespace medes

#endif  // MEDES_CHUNKING_RABIN_H_
