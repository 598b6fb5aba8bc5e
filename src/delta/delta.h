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
// Hot-path notes: seed comparison and match extension run through the
// dispatched word/vector kernels (common/kernels/memops.h); DeltaDecode
// validates the instruction stream in one pass and then memcpys into a
// buffer pre-sized from the header instead of growing it op by op. The
// *Into overloads write into caller-owned buffers and accept an optional
// DeltaScratch so steady-state encode/decode performs no allocation.
#ifndef MEDES_DELTA_DELTA_H_
#define MEDES_DELTA_DELTA_H_

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

// Reusable encoder working storage (the seed-index table of 32-bit base
// offsets). Keep one per worker thread and pass it to DeltaEncodeInto to
// avoid reallocating the index for every page.
struct DeltaScratch {
  std::vector<uint32_t> seed_slots;
};

// Encodes `target` as a delta against `base`. Throws DeltaError when
// seed_length < 4 or the base is 4 GiB or larger.
[[nodiscard]] std::vector<uint8_t> DeltaEncode(std::span<const uint8_t> base, std::span<const uint8_t> target,
                                 const DeltaOptions& options = {});

// As DeltaEncode, but replaces the contents of `out` (capacity is reused)
// and optionally uses `scratch` for the seed index.
void DeltaEncodeInto(std::span<const uint8_t> base, std::span<const uint8_t> target,
                     const DeltaOptions& options, std::vector<uint8_t>& out,
                     DeltaScratch* scratch = nullptr);

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
