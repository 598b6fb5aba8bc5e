// Strong domain types: the algebra that must compile, the algebra that must
// not, and the representation guarantees the migration depends on.
//
// Two jobs in one translation unit (same pattern as thread_safety_smoke.cc):
//
//  1. As a regular test, it pins down the behavior of StrongOrdinal /
//     StrongQuantity and the SimTime/SimDuration calculus: construction,
//     comparison, hashing, streaming, sentinels, and the dimension-legal
//     arithmetic being value-identical to raw int64 math.
//
//  2. As a negative-compile check: defining MEDES_TYPES_NEGATIVE_COMPILE adds
//     code that mixes dimensions (Bytes + SimDuration) and swaps ordinal
//     arguments ((NodeId, SandboxId) passed as (SandboxId, NodeId)). Any
//     conforming compiler must REJECT that configuration:
//
//       g++ -std=c++20 -fsyntax-only -Isrc tests/types_test.cc
//       # succeeds; adding -DMEDES_TYPES_NEGATIVE_COMPILE must fail.
//
//     CI runs both directions in the static-analysis job.
#include "common/types.h"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "common/time.h"

namespace medes {
namespace {

// ---- Representation guarantees ------------------------------------------

static_assert(sizeof(NodeId) == sizeof(int32_t));
static_assert(sizeof(SandboxId) == sizeof(uint64_t));
static_assert(sizeof(PageIndex) == sizeof(uint32_t));
static_assert(sizeof(Bytes) == sizeof(uint64_t));
static_assert(sizeof(SimTime) == sizeof(int64_t));
static_assert(sizeof(SimDuration) == sizeof(int64_t));

static_assert(std::is_trivially_copyable_v<NodeId>);
static_assert(std::is_trivially_copyable_v<SandboxId>);
static_assert(std::is_trivially_copyable_v<Bytes>);
static_assert(std::is_trivially_copyable_v<SimTime>);
static_assert(std::is_trivially_copyable_v<SimDuration>);

// Construction is explicit: no silent int -> strong-type conversions.
static_assert(!std::is_convertible_v<int, NodeId>);
static_assert(!std::is_convertible_v<uint64_t, SandboxId>);
static_assert(!std::is_convertible_v<uint64_t, Bytes>);
static_assert(!std::is_convertible_v<int64_t, SimTime>);
static_assert(!std::is_convertible_v<int64_t, SimDuration>);
// ...and distinct tags are distinct types even with the same rep.
static_assert(!std::is_convertible_v<SandboxId, Bytes>);
static_assert(!std::is_convertible_v<SimTime, SimDuration>);

// ---- Ordinals ------------------------------------------------------------

TEST(StrongOrdinalTest, ConstructionAndValue) {
  constexpr NodeId node{3};
  static_assert(node.value() == 3);
  EXPECT_EQ(NodeId{}.value(), 0);
  EXPECT_EQ(kInvalidNode.value(), -1);
  EXPECT_EQ(kNoSandbox, SandboxId{0});
}

TEST(StrongOrdinalTest, ComparisonIsTotalOrder) {
  EXPECT_EQ(SandboxId{7}, SandboxId{7});
  EXPECT_NE(SandboxId{7}, SandboxId{8});
  EXPECT_LT(NodeId{-1}, NodeId{0});
  EXPECT_GT(PageIndex{9}, PageIndex{2});
  EXPECT_LE(NodeId{2}, NodeId{2});
}

TEST(StrongOrdinalTest, IncrementHandsOutSequentialIds) {
  SandboxId id{41};
  EXPECT_EQ((++id).value(), 42u);
  EXPECT_EQ((id++).value(), 42u);  // post-increment returns the old id
  EXPECT_EQ(id.value(), 43u);
}

TEST(StrongOrdinalTest, HashMatchesUnderlyingInteger) {
  // Hash-table bucketing must not change across the migration.
  EXPECT_EQ(std::hash<SandboxId>{}(SandboxId{123}), std::hash<uint64_t>{}(123));
  EXPECT_EQ(std::hash<NodeId>{}(NodeId{5}), std::hash<int32_t>{}(5));
  std::unordered_set<SandboxId> set;
  set.insert(SandboxId{1});
  set.insert(SandboxId{1});
  EXPECT_EQ(set.size(), 1u);
  std::unordered_map<NodeId, int> map;
  map[NodeId{2}] = 7;
  EXPECT_EQ(map.at(NodeId{2}), 7);
}

TEST(StrongOrdinalTest, StreamsAsRawValue) {
  std::ostringstream os;
  os << NodeId{4} << " " << SandboxId{19};
  EXPECT_EQ(os.str(), "4 19");
}

// ---- Quantities ----------------------------------------------------------

TEST(StrongQuantityTest, DimensionLegalArithmetic) {
  constexpr Bytes a{4096};
  constexpr Bytes b{512};
  static_assert((a + b).value() == 4608u);
  static_assert((a - b).value() == 3584u);
  static_assert((a * 3).value() == 12288u);
  static_assert((uint64_t{2} * b).value() == 1024u);
  static_assert((a / 2).value() == 2048u);
  static_assert(a / b == 8u);  // ratio is dimensionless
  Bytes acc{100};
  acc += Bytes{20};
  acc -= Bytes{5};
  EXPECT_EQ(acc, Bytes{115});
}

TEST(StrongQuantityTest, HashAndStream) {
  EXPECT_EQ(std::hash<Bytes>{}(Bytes{77}), std::hash<uint64_t>{}(77));
  std::ostringstream os;
  os << Bytes{4096};
  EXPECT_EQ(os.str(), "4096");
}

// ---- SimTime / SimDuration calculus -------------------------------------

TEST(SimTimeTest, TimeDurationAlgebra) {
  constexpr SimTime t{1'000'000};
  constexpr SimDuration d{250'000};
  static_assert((t + d).value() == 1'250'000);
  static_assert((d + t).value() == 1'250'000);
  static_assert((t - d).value() == 750'000);
  static_assert((t + d) - t == d);  // Time - Time -> Duration
  SimTime now{};
  now += 3 * kSecond;
  now -= kMillisecond;
  EXPECT_EQ(now - SimTime{}, SimDuration{2'999'000});
}

TEST(SimTimeTest, DurationAlgebraMatchesRawInt64) {
  constexpr SimDuration d{90};
  static_assert((d + SimDuration{10}).value() == 100);
  static_assert((d - SimDuration{100}).value() == -10);
  static_assert((-d).value() == -90);
  static_assert((d * 4).value() == 360);
  static_assert((d / 4).value() == 22);  // integer division truncates, as before
  static_assert(d / SimDuration{40} == 2);
  static_assert((d % SimDuration{40}).value() == 10);
}

TEST(SimTimeTest, UnitConstantsAndConversions) {
  EXPECT_EQ(kMillisecond.value(), 1'000);
  EXPECT_EQ(kSecond.value(), 1'000'000);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
  EXPECT_DOUBLE_EQ(ToMillis(SimDuration{1'500}), 1.5);
  EXPECT_DOUBLE_EQ(ToSeconds(kMinute), 60.0);
  EXPECT_EQ(FromMillis(2.5), SimDuration{2'500});
  EXPECT_EQ(FromSeconds(0.001), kMillisecond);
}

TEST(SimTimeTest, SentinelAndOrdering) {
  EXPECT_LT(SimTime{}, kSimTimeMax);
  EXPECT_GT(kSimTimeMax, SimTime{1});
  std::ostringstream os;
  os << SimTime{42} << "/" << SimDuration{-7};
  EXPECT_EQ(os.str(), "42/-7");
}

// ---- Negative-compile configuration -------------------------------------
//
// Guarded the same way as tests/thread_safety_smoke.cc: CI's static-analysis
// job compiles this file with -DMEDES_TYPES_NEGATIVE_COMPILE and asserts the
// compiler rejects it. Keeping the ill-formed code in-tree (rather than in
// prose) means the "does not compile" claims above stay honest.
#ifdef MEDES_TYPES_NEGATIVE_COMPILE

SimDuration MixesDimensions(Bytes bytes, SimDuration d) {
  return bytes + d;  // no operator+(Bytes, SimDuration): must not compile
}

int SwapsOrdinals(NodeId node, SandboxId sandbox) {
  auto probe = [](NodeId n, SandboxId s) { return n.value() + static_cast<int>(s.value()); };
  return probe(sandbox, node);  // swapped arguments: must not compile
}

#endif  // MEDES_TYPES_NEGATIVE_COMPILE

}  // namespace
}  // namespace medes
