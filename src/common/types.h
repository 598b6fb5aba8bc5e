// Strong domain types for the identifiers and quantities the simulator
// passes across module boundaries.
//
// The Medes API is full of (node, sandbox, page) integer tuples and mixes
// byte counts with modelled durations; as bare typedefs those compile fine
// with arguments swapped or units confused. The wrappers here are
// zero-overhead (one integral member, everything constexpr/inlined) but make
// those mistakes type errors:
//
//   - StrongOrdinal<Rep, Tag>: an identity/index. Explicit construction,
//     value(), comparison and ++ (ids are ordinals), hashing and streaming —
//     but no arithmetic between distinct tags and no implicit conversion to
//     or from the underlying integer.
//   - StrongQuantity<Rep, Tag>: a dimensioned amount. Adds the dimension-legal
//     algebra: Q ± Q, Q * scalar, Q / scalar, Q / Q -> ratio. Bytes + Bytes
//     compiles; Bytes + NodeId or Bytes + SimDuration does not.
//
// The concrete aliases (NodeId, SandboxId, PageIndex, Bytes) keep the
// representation widths the historical typedefs had, so layouts, hashes and
// modelled arithmetic are bit-identical to the pre-migration tree.
// SimTime/SimDuration get the analogous treatment in common/time.h.
#ifndef MEDES_COMMON_TYPES_H_
#define MEDES_COMMON_TYPES_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>

namespace medes {

// An identity or index: totally ordered and incrementable within its own tag,
// with no other arithmetic. `Tag` is an empty struct that exists only to make
// distinct aliases distinct types.
template <typename Rep, typename Tag>
class StrongOrdinal {
 public:
  using rep = Rep;

  constexpr StrongOrdinal() = default;
  explicit constexpr StrongOrdinal(Rep value) : value_(value) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }

  friend constexpr bool operator==(StrongOrdinal, StrongOrdinal) = default;
  friend constexpr auto operator<=>(StrongOrdinal, StrongOrdinal) = default;

  // Ids are handed out and scanned in sequence.
  constexpr StrongOrdinal& operator++() {
    ++value_;
    return *this;
  }
  constexpr StrongOrdinal operator++(int) {
    StrongOrdinal old = *this;
    ++value_;
    return old;
  }

  friend std::ostream& operator<<(std::ostream& os, StrongOrdinal v) { return os << v.value_; }

 private:
  Rep value_{};
};

// A dimensioned quantity: everything StrongOrdinal offers minus ++, plus the
// algebra that is legal within one dimension.
template <typename Rep, typename Tag>
class StrongQuantity {
 public:
  using rep = Rep;

  constexpr StrongQuantity() = default;
  explicit constexpr StrongQuantity(Rep value) : value_(value) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }

  friend constexpr bool operator==(StrongQuantity, StrongQuantity) = default;
  friend constexpr auto operator<=>(StrongQuantity, StrongQuantity) = default;

  constexpr StrongQuantity& operator+=(StrongQuantity other) {
    value_ += other.value_;
    return *this;
  }
  constexpr StrongQuantity& operator-=(StrongQuantity other) {
    value_ -= other.value_;
    return *this;
  }

  friend constexpr StrongQuantity operator+(StrongQuantity a, StrongQuantity b) {
    return StrongQuantity(a.value_ + b.value_);
  }
  friend constexpr StrongQuantity operator-(StrongQuantity a, StrongQuantity b) {
    return StrongQuantity(a.value_ - b.value_);
  }
  friend constexpr StrongQuantity operator*(StrongQuantity a, Rep k) {
    return StrongQuantity(a.value_ * k);
  }
  friend constexpr StrongQuantity operator*(Rep k, StrongQuantity a) {
    return StrongQuantity(k * a.value_);
  }
  friend constexpr StrongQuantity operator/(StrongQuantity a, Rep k) {
    return StrongQuantity(a.value_ / k);
  }
  // Ratio of two like quantities is a dimensionless count.
  friend constexpr Rep operator/(StrongQuantity a, StrongQuantity b) {
    return a.value_ / b.value_;
  }

  friend std::ostream& operator<<(std::ostream& os, StrongQuantity v) { return os << v.value_; }

 private:
  Rep value_{};
};

// ---- Concrete domain types ----------------------------------------------

struct NodeIdTag {};
struct SandboxIdTag {};
struct PageIndexTag {};
struct BytesTag {};

// A worker or controller node. Was `int`; keep a 32-bit signed rep so
// Topology::PairKey and every modelled cost stay bit-identical.
using NodeId = StrongOrdinal<int32_t, NodeIdTag>;
// A sandbox instance. Ids start at 1 and are never reused; 0 means "none".
using SandboxId = StrongOrdinal<uint64_t, SandboxIdTag>;
// A page's position within a checkpoint/image.
using PageIndex = StrongOrdinal<uint32_t, PageIndexTag>;
// A byte count on the modelled wire or in a modelled image.
using Bytes = StrongQuantity<uint64_t, BytesTag>;

// Sentinels matching the historical `-1` / `0` conventions.
inline constexpr NodeId kInvalidNode{-1};
inline constexpr SandboxId kNoSandbox{0};

}  // namespace medes

// Strong ids hash like their underlying integers (hash-table bucketing and
// cache indexing depend on that staying true).
template <typename Rep, typename Tag>
struct std::hash<medes::StrongOrdinal<Rep, Tag>> {
  size_t operator()(medes::StrongOrdinal<Rep, Tag> v) const noexcept {
    return std::hash<Rep>{}(v.value());
  }
};

template <typename Rep, typename Tag>
struct std::hash<medes::StrongQuantity<Rep, Tag>> {
  size_t operator()(medes::StrongQuantity<Rep, Tag> v) const noexcept {
    return std::hash<Rep>{}(v.value());
  }
};

#endif  // MEDES_COMMON_TYPES_H_
