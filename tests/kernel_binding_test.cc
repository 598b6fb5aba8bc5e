// Fresh-process kernel binding: a process that never calls ForceTier or
// ActiveTier must run its dispatched kernels at the tier it ships with —
// MaxSupportedTier(), or scalar under MEDES_FORCE_SCALAR=1 or the
// -DMEDES_FORCE_SCALAR=ON build knob. The bound tier is read through
// BoundTier(), which never binds.
//
// Every dispatch slot is checked from an unbound start in its own child
// process (a death test in the re-executing "threadsafe" style), so a slot
// whose resolver is missing fails on its own even though binding is global.
// ctest registers this binary twice: as built, and with MEDES_FORCE_SCALAR=1.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "common/kernels/cpu_features.h"
#include "common/kernels/memops.h"
#include "common/kernels/rolling_kernels.h"
#include "common/kernels/sha1_kernels.h"
#include "delta/delta.h"

namespace medes {
namespace {

using kernels::Tier;

Tier ExpectedTier() {
#if defined(MEDES_FORCE_SCALAR)
  return Tier::kScalar;
#else
  const char* v = std::getenv("MEDES_FORCE_SCALAR");
  const bool forced = v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0 &&
                      std::strcmp(v, "off") != 0 && std::strcmp(v, "false") != 0;
  return forced ? Tier::kScalar : kernels::MaxSupportedTier();
#endif
}

struct Slot {
  const char* name;
  std::function<void()> call;
};

std::vector<Slot> Slots() {
  static const std::vector<uint8_t> data(256, 0x5A);
  return {
      {"Sha1Compress",
       [] {
         uint32_t state[5] = {1, 2, 3, 4, 5};
         kernels::Sha1Compress(state, data.data());
       }},
      {"Sha1Chunk64",
       [] {
         uint32_t state[5];
         kernels::Sha1Chunk64(data.data(), state);
       }},
      {"Sha1Chunk64Batch",
       [] {
         const uint8_t* chunks[2] = {data.data(), data.data() + 64};
         uint32_t states[2][5];
         kernels::Sha1Chunk64Batch(chunks, 2, states);
       }},
      {"SelectWindows",
       [] {
         std::vector<uint16_t> out(data.size() - 16 + 1);
         (void)kernels::SelectWindows(kernels::MakeSampleRule(16, 0x1ff, 0), data.data(),
                                      data.size(), out.data());
       }},
      {"MatchForward", [] { (void)kernels::MatchForward(data.data(), data.data(), 64); }},
      {"MatchBackward",
       [] { (void)kernels::MatchBackward(data.data() + 64, data.data() + 64, 64); }},
      {"MemEqual", [] { (void)kernels::MemEqual(data.data(), data.data() + 1, 16); }},
  };
}

// Child-process body: exit 0 only if nothing was bound before `call` and the
// expected tier was bound after it.
[[noreturn]] void ExitWithBindingVerdict(const std::function<void()>& call) {
  if (kernels::BoundTier().has_value()) {
    std::_Exit(2);
  }
  call();
  std::_Exit(kernels::BoundTier() == ExpectedTier() ? 0 : 1);
}

TEST(KernelBindingTest, FirstCallOfEverySlotBindsShippedTier) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const Slot& slot : Slots()) {
    EXPECT_EXIT(ExitWithBindingVerdict(slot.call), ::testing::ExitedWithCode(0), "")
        << slot.name << " did not bind " << kernels::TierName(ExpectedTier())
        << " on first use (exit 1: wrong or no tier after the call; 2: bound before it)";
  }
}

// Every slot's first call at once, one thread each: whichever resolver wins,
// no call may loop or land on an unbound slot (the TSan CI job runs this).
TEST(KernelBindingTest, ConcurrentFirstCallsBindShippedTier) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto race = [] {
    std::vector<std::thread> threads;
    for (const Slot& slot : Slots()) {
      threads.emplace_back(slot.call);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  };
  EXPECT_EXIT(ExitWithBindingVerdict(race), ::testing::ExitedWithCode(0), "");
}

// The same contract in this process, through the public codec: the first
// DeltaEncode binds, and a later ActiveTier() reports without rebinding.
TEST(KernelBindingTest, PublicApiBindsShippedTierInProcess) {
  ASSERT_FALSE(kernels::BoundTier().has_value()) << "a kernel was bound before the first call";
  std::vector<uint8_t> base(4096);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = static_cast<uint8_t>(i * 131 + (i >> 7));
  }
  std::vector<uint8_t> target = base;
  target[1000] ^= 0xFF;
  const std::vector<uint8_t> delta = DeltaEncode(base, target);
  ASSERT_TRUE(kernels::BoundTier().has_value());
  EXPECT_EQ(*kernels::BoundTier(), ExpectedTier());
  EXPECT_EQ(kernels::ActiveTier(), ExpectedTier());
  EXPECT_EQ(DeltaDecode(base, delta), target);
}

}  // namespace
}  // namespace medes
