// SHA-1 message digest (FIPS 180-1), implemented from scratch.
//
// Medes hashes 64-byte reusable sandbox chunks (RSCs) with SHA-1 before they
// are inserted into or looked up against the global fingerprint registry
// (paper Section 2.1). The implementation here is self-contained so the
// library has no crypto dependency.
#ifndef MEDES_COMMON_SHA1_H_
#define MEDES_COMMON_SHA1_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace medes {

// A 160-bit SHA-1 digest.
struct Sha1Digest {
  std::array<uint8_t, 20> bytes{};

  bool operator==(const Sha1Digest&) const = default;
  auto operator<=>(const Sha1Digest&) const = default;

  // Lowercase hex rendering, e.g. "da39a3ee5e6b4b0d3255bfef95601890afd80709".
  std::string ToHex() const;

  // First 8 bytes interpreted as a big-endian integer, i.e. the value reads
  // identically to the leading 16 hex digits of ToHex(): the most
  // significant bit of the returned word is the first bit of the digest.
  // This makes a *prefix of the integer* a prefix of the digest, so key
  // truncation (PageFingerprinter::TruncateKey) keeps the digest's leading
  // bits and drops trailing ones. Used as a cheap well-mixed key into hash
  // tables (SHA-1 output is uniformly distributed). Locked by a
  // known-answer test in sha1_test.cc — registry keys depend on this order.
  uint64_t Prefix64() const;
};

// Incremental SHA-1 hasher. Block compression dispatches through the
// hot-path kernel layer (common/kernels/sha1_kernels.h): SHA-NI when the
// CPU has it, the scalar reference otherwise — bit-identical either way.
class Sha1 {
 public:
  Sha1() { Reset(); }

  void Reset();
  void Update(std::span<const uint8_t> data);
  Sha1Digest Finish();

  // One-shot convenience.
  static Sha1Digest Hash(std::span<const uint8_t> data);

  // Fixed-length fast path: digest of exactly 64 message bytes — one RSC.
  // Skips the streaming buffer/length state machine entirely (a 64-byte
  // message's padding block is a constant). Equals Hash({chunk, 64}).
  static Sha1Digest HashChunk64(const uint8_t* chunk);

  // Multi-buffer batch of the above: out[i] = HashChunk64(chunks[i]).
  // Lets the 8-lane AVX2 kernel hash all sampled chunks of a page in one
  // call.
  static void HashChunk64Batch(const uint8_t* const* chunks, size_t n, Sha1Digest* out);

 private:
  std::array<uint32_t, 5> state_{};
  std::array<uint8_t, 64> buffer_{};
  uint64_t total_bytes_ = 0;
  size_t buffered_ = 0;
};

}  // namespace medes

#endif  // MEDES_COMMON_SHA1_H_
