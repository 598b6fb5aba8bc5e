#include "common/sha1.h"

#include <algorithm>
#include <cstring>

#include "common/kernels/sha1_kernels.h"

namespace medes {
namespace {

inline void StoreBe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v >> 24);
  p[1] = static_cast<uint8_t>(v >> 16);
  p[2] = static_cast<uint8_t>(v >> 8);
  p[3] = static_cast<uint8_t>(v);
}

inline Sha1Digest StateToDigest(const uint32_t state[5]) {
  Sha1Digest digest;
  for (size_t i = 0; i < 5; ++i) {
    StoreBe32(digest.bytes.data() + 4 * i, state[i]);
  }
  return digest;
}

}  // namespace

std::string Sha1Digest::ToHex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

uint64_t Sha1Digest::Prefix64() const {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v = (v << 8) | bytes[i];
  }
  return v;
}

void Sha1::Reset() {
  std::memcpy(state_.data(), kernels::kSha1Init, sizeof(kernels::kSha1Init));
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::Update(std::span<const uint8_t> data) {
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffered_ > 0) {
    size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == buffer_.size()) {
      kernels::Sha1Compress(state_.data(), buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    kernels::Sha1Compress(state_.data(), data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Sha1Digest Sha1::Finish() {
  // Append 0x80, pad with zeros to 56 mod 64, then the bit length big-endian.
  uint64_t bit_len = total_bytes_ * 8;
  uint8_t pad[72];
  size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  pad[0] = 0x80;
  std::memset(pad + 1, 0, pad_len - 1);
  Update({pad, pad_len});
  uint8_t len_be[8];
  for (int i = 7; i >= 0; --i) {
    len_be[i] = static_cast<uint8_t>(bit_len & 0xff);
    bit_len >>= 8;
  }
  Update({len_be, 8});

  Sha1Digest digest = StateToDigest(state_.data());
  Reset();
  return digest;
}

Sha1Digest Sha1::Hash(std::span<const uint8_t> data) {
  if (data.size() == 64) {
    return HashChunk64(data.data());
  }
  Sha1 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

Sha1Digest Sha1::HashChunk64(const uint8_t* chunk) {
  uint32_t state[5];
  kernels::Sha1Chunk64(chunk, state);
  return StateToDigest(state);
}

void Sha1::Chunk64Prefix64Batch(const uint8_t* const* chunks, size_t n, uint64_t* out) {
  // The kernel batch works on raw states; read the keys out in fixed-size
  // strips so large batches stay cache-resident and allocation-free.
  constexpr size_t kStrip = 64;
  uint32_t states[kStrip][5];
  for (size_t done = 0; done < n; done += kStrip) {
    const size_t take = std::min(kStrip, n - done);
    kernels::Sha1Chunk64Batch(chunks + done, take, states);
    for (size_t i = 0; i < take; ++i) {
      out[done + i] = (uint64_t{states[i][0]} << 32) | states[i][1];
    }
  }
}

}  // namespace medes
