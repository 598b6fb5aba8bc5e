// Binary delta (diff/patch) codec — the stand-in for Xdelta3.
//
// Medes stores a deduplicated page as a *patch* against a similar base page
// (paper Section 4.1.2): the patch holds the bytes unique to the target plus
// short copy instructions referencing byte ranges of the base. This module
// implements that codec from scratch:
//
//   delta := "MDT1" varint(base_len) varint(target_len) instruction*
//   instruction := 0x00 varint(len) byte[len]          -- ADD literal bytes
//                | 0x01 varint(base_off) varint(len)   -- COPY from base
//
// Matching uses a hash table over fixed-length seeds of the base with greedy
// bidirectional extension. `level` mirrors Xdelta3's compression levels: it
// trades encode effort (seed indexing density and bucket depth) for patch
// size. The paper runs Xdelta3 at level 1 to keep restores fast; our default
// matches that.
//
// Hot-path notes: the target scan skips, through a two-bit seed prefilter,
// every position where the seed table cannot match, 8 positions per step
// on AVX2 (common/kernels/prefilter_kernels.h); seed comparison and match
// extension run through the word-at-a-time kernels
// (common/kernels/memops.h); DeltaDecode
// validates the instruction stream in one pass and then memcpys into a
// buffer pre-sized from the header instead of growing it op by op. The
// *Into overloads write into caller-owned buffers; DeltaEncodeInto accepts
// an optional DeltaScratch that caches the seed table built for each base.
#ifndef MEDES_DELTA_DELTA_H_
#define MEDES_DELTA_DELTA_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace medes {

// Thrown when decoding a malformed or mismatched delta.
class DeltaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct DeltaOptions {
  // 0 = no matching (patch is one big ADD); 1 = fast (default, Xdelta3-level-1
  // analogue); 9 = max effort. Values in between interpolate index density.
  int level = 1;
  // Length of the seed used for match discovery. Must be >= 4.
  size_t seed_length = 16;
  // Minimum match length worth emitting a COPY for (shorter matches cost more
  // in instruction overhead than they save).
  size_t min_match = 8;
};

struct DeltaStats {
  size_t base_length = 0;
  size_t target_length = 0;
  size_t delta_length = 0;
  size_t add_bytes = 0;    // literal bytes carried in the patch
  size_t copy_bytes = 0;   // bytes reconstructed from the base
  size_t add_ops = 0;
  size_t copy_ops = 0;
};

// Bases must be shorter than this (64 KiB): the encoder's seed table stores
// 16-bit base offsets. DeltaEncode throws DeltaError for a longer base.
inline constexpr size_t kDeltaBaseLimit = size_t{1} << 16;

class DeltaScratch;

// Encodes `target` as a delta against `base`. Throws DeltaError when
// seed_length < 4 or the base is kDeltaBaseLimit bytes or longer.
[[nodiscard]] std::vector<uint8_t> DeltaEncode(std::span<const uint8_t> base, std::span<const uint8_t> target,
                                 const DeltaOptions& options = {});

// As DeltaEncode, but replaces the contents of `out` (capacity is reused)
// and optionally looks the base's seed table up in `scratch`.
void DeltaEncodeInto(std::span<const uint8_t> base, std::span<const uint8_t> target,
                     const DeltaOptions& options, std::vector<uint8_t>& out,
                     DeltaScratch* scratch = nullptr);

// Reusable encoder working storage: an LRU cache of built seed tables,
// bounded by bytes. One base page serves many targets, so most encodes find
// their base's table here and skip the index build. A table is found by a
// hash of the base's length, a fixed sample of its 8-byte words and the
// table geometry, then confirmed by a full compare against the table's own
// copy of the base, so a hit never depends on where the base lives or on
// which words were sampled, and is the table a fresh build would make. The
// budget is what kCapacity tables over
// 4 KiB bases at level 1 take (about 3.7 MB); denser levels hold fewer
// tables in the same bytes, and the table just built is always kept. Keep
// one per worker thread; DeltaEncodeInto without one builds every table
// afresh.
class DeltaScratch {
 public:
  static constexpr size_t kCapacity = 256;
  static size_t BudgetBytes();

  DeltaScratch();
  ~DeltaScratch();
  DeltaScratch(const DeltaScratch&) = delete;
  DeltaScratch& operator=(const DeltaScratch&) = delete;

  size_t CachedTables() const { return keys_.size(); }
  // Bytes the cached tables hold, their heap storage included.
  size_t CachedBytes() const { return bytes_; }

 private:
  friend void DeltaEncodeInto(std::span<const uint8_t> base, std::span<const uint8_t> target,
                              const DeltaOptions& options, std::vector<uint8_t>& out,
                              DeltaScratch* scratch);
  struct SeedTable;  // defined in delta.cc

  // The table over `base` with this geometry. On a miss it is built into a
  // new slot while the budget allows, else into the least recently used
  // slot; then least recently used tables are dropped until the cache fits.
  const SeedTable& Find(std::span<const uint8_t> base, size_t seed_len, size_t stride,
                        size_t depth);

  std::vector<SeedTable> tables_;
  // keys_[i] is tables_[i]'s cache key; last_use_[i] is the clock_ value of
  // its latest lookup.
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> last_use_;
  size_t bytes_ = 0;
  uint64_t clock_ = 0;
};

// Reconstructs the target from `base` and `delta`. Throws DeltaError if the
// delta is corrupt or references out-of-range base bytes.
[[nodiscard]] std::vector<uint8_t> DeltaDecode(std::span<const uint8_t> base, std::span<const uint8_t> delta);

// As DeltaDecode, but replaces the contents of `out` (capacity is reused).
// The op stream is fully validated before `out` is touched.
void DeltaDecodeInto(std::span<const uint8_t> base, std::span<const uint8_t> delta,
                     std::vector<uint8_t>& out);

// Parses a delta's instruction stream without materialising the target.
[[nodiscard]] DeltaStats InspectDelta(std::span<const uint8_t> delta);

// Target length recorded in the delta header (cheap peek).
[[nodiscard]] size_t DeltaTargetLength(std::span<const uint8_t> delta);

namespace delta_internal {
// LEB128 unsigned varints — exposed for unit testing.
void AppendVarint(std::vector<uint8_t>& out, uint64_t value);
uint64_t ReadVarint(std::span<const uint8_t> data, size_t& pos);
}  // namespace delta_internal

}  // namespace medes

#endif  // MEDES_DELTA_DELTA_H_
