#include "checkpoint/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>

#include "memstate/library_pool.h"
#include "memstate/profiles.h"

namespace medes {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  LibraryPool pool_{7, 16384};
  MemoryImage image_ = BuildSandboxImage(ProfileByName("Vanilla"), pool_, {.instance_seed = 1});
};

TEST_F(CheckpointTest, CaptureRoundTrips) {
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_);
  EXPECT_EQ(cp.NumPages(), image_.NumPages());
  EXPECT_TRUE(cp.FullyResident());
  std::vector<uint8_t> bytes = cp.ToBytes();
  ASSERT_EQ(bytes.size(), image_.SizeBytes());
  EXPECT_EQ(std::memcmp(bytes.data(), image_.bytes().data(), bytes.size()), 0);
}

TEST_F(CheckpointTest, ZeroPagesDetected) {
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_);
  EXPECT_GT(cp.NumZero(), 0u) << "image has a zero-heap segment";
  // Zero slots hold no payload.
  EXPECT_EQ(cp.ResidentBytes(), (cp.NumPages() - cp.NumZero()) * kPageSize);
}

TEST_F(CheckpointTest, PatchReplacementAccounting) {
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_);
  size_t page = 0;
  while (cp.SlotState(page) != PageSlotState::kResident) {
    ++page;
  }
  const size_t resident_before = cp.ResidentBytes();
  std::vector<uint8_t> patch(100, 0xab);
  cp.ReplaceWithPatch(page, patch);
  EXPECT_EQ(cp.SlotState(page), PageSlotState::kPatched);
  EXPECT_EQ(cp.PatchBytes(), 100u);
  EXPECT_EQ(cp.NumPatched(), 1u);
  EXPECT_EQ(cp.ResidentBytes(), resident_before - kPageSize);
  EXPECT_FALSE(cp.FullyResident());
  EXPECT_THROW(cp.ToBytes(), std::logic_error);
}

TEST_F(CheckpointTest, RestorePageBringsBackResidency) {
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_);
  size_t page = 0;
  while (cp.SlotState(page) != PageSlotState::kResident) {
    ++page;
  }
  std::vector<uint8_t> original(cp.PageData(page).begin(), cp.PageData(page).end());
  cp.ReplaceWithPatch(page, {1, 2, 3});
  cp.RestorePage(page, original);
  EXPECT_TRUE(cp.FullyResident());
  std::vector<uint8_t> bytes = cp.ToBytes();
  EXPECT_EQ(std::memcmp(bytes.data(), image_.bytes().data(), bytes.size()), 0);
}

TEST_F(CheckpointTest, DoublePatchRejected) {
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_);
  size_t page = 0;
  while (cp.SlotState(page) != PageSlotState::kResident) {
    ++page;
  }
  cp.ReplaceWithPatch(page, {1});
  EXPECT_THROW(cp.ReplaceWithPatch(page, {2}), std::logic_error);
  EXPECT_THROW(static_cast<void>(cp.PageData(page)), std::logic_error);
}

TEST_F(CheckpointTest, RestoreUnpatchedRejected) {
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_);
  EXPECT_THROW(cp.RestorePage(0, std::vector<uint8_t>(kPageSize, 0)), std::logic_error);
}

// A page is zero only if every byte is: one nonzero byte at either end
// keeps it resident.
TEST_F(CheckpointTest, OneNonzeroByteKeepsAPageResident) {
  std::vector<uint8_t> bytes(4 * kPageSize, 0);
  bytes[1 * kPageSize] = 1;                  // page 1: first byte only
  bytes[3 * kPageSize - 1] = 0x80;           // page 2: last byte only
  bytes[3 * kPageSize + kPageSize / 2] = 1;  // page 3: a middle byte
  const MemoryImage image(bytes, {}, 1.0);
  for (bool keep_payloads : {true, false}) {
    const MemoryCheckpoint cp = MemoryCheckpoint::Capture(image, keep_payloads);
    EXPECT_EQ(cp.SlotState(0), PageSlotState::kZero);
    for (size_t page = 1; page < 4; ++page) {
      EXPECT_EQ(cp.SlotState(page), PageSlotState::kResident) << "page " << page;
    }
    EXPECT_EQ(cp.ResidentBytes(), 3 * kPageSize);
  }
}

// A capture without payloads records every slot's state and size, holds no
// page bytes, and keeps counting through patch and restore edits.
TEST_F(CheckpointTest, DropPayloadsKeepsSizes) {
  const MemoryCheckpoint kept = MemoryCheckpoint::Capture(image_);
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_, /*keep_payloads=*/false);
  EXPECT_FALSE(kept.payloads_dropped());
  EXPECT_TRUE(cp.payloads_dropped());
  ASSERT_EQ(cp.NumPages(), kept.NumPages());
  for (size_t p = 0; p < cp.NumPages(); ++p) {
    ASSERT_EQ(cp.SlotState(p), kept.SlotState(p)) << "page " << p;
  }
  EXPECT_EQ(cp.ResidentBytes(), kept.ResidentBytes());
  size_t page = 0;
  while (cp.SlotState(page) != PageSlotState::kResident) {
    ++page;
  }
  EXPECT_THROW(static_cast<void>(cp.PageData(page)), std::logic_error);
  cp.ReplaceWithPatch(page, std::vector<uint8_t>(321, 1));
  EXPECT_EQ(cp.ResidentBytes(), kept.ResidentBytes() - kPageSize);
  EXPECT_EQ(cp.PatchBytes(), 321u);
  EXPECT_TRUE(cp.PatchData(page).empty());
  EXPECT_THROW(cp.ToBytes(), std::logic_error);
  // Size-only restore still flips the slot state.
  cp.RestorePage(page, std::vector<uint8_t>(kPageSize, 0));
  EXPECT_TRUE(cp.FullyResident());
  EXPECT_EQ(cp.ResidentBytes(), kept.ResidentBytes());
}

// The payload-free edits record what ReplaceWithPatch and RestorePage would
// on a checkpoint captured without payloads, and refuse one that holds
// bytes.
TEST_F(CheckpointTest, SizeOnlyEditsNeedDroppedPayloads) {
  MemoryCheckpoint kept = MemoryCheckpoint::Capture(image_);
  size_t page = 0;
  while (kept.SlotState(page) != PageSlotState::kResident) {
    ++page;
  }
  EXPECT_THROW(kept.MarkPatched(page, 321), std::logic_error);
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_, /*keep_payloads=*/false);
  const size_t resident = cp.ResidentBytes();
  EXPECT_THROW(cp.MarkRestored(page), std::logic_error);  // not patched
  cp.MarkPatched(page, 321);
  EXPECT_EQ(cp.SlotState(page), PageSlotState::kPatched);
  EXPECT_EQ(cp.PatchBytes(), 321u);
  EXPECT_EQ(cp.ResidentBytes(), resident - kPageSize);
  EXPECT_THROW(cp.MarkPatched(page, 321), std::logic_error);  // not resident
  cp.MarkRestored(page);
  EXPECT_TRUE(cp.FullyResident());
  EXPECT_EQ(cp.ResidentBytes(), resident);
  EXPECT_EQ(cp.PatchBytes(), 0u);
}

TEST_F(CheckpointTest, MarkZeroDropsBytes) {
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_);
  size_t page = 0;
  while (cp.SlotState(page) != PageSlotState::kResident) {
    ++page;
  }
  const size_t zeros = cp.NumZero();
  cp.MarkZero(page);
  EXPECT_EQ(cp.NumZero(), zeros + 1);
}

TEST_F(CheckpointTest, NamespacePreparationFlag) {
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image_);
  EXPECT_FALSE(cp.namespaces_prepared());
  cp.set_namespaces_prepared(true);
  EXPECT_TRUE(cp.namespaces_prepared());
}

TEST(CheckpointCostsTest, DefaultsMatchPaperScale) {
  CheckpointCosts costs;
  // Restoring a ~32 MB sandbox (8192 pages): memory restore alone should be
  // on the order of ~100 ms, and the namespace work ~500 ms (650 -> 140 ms
  // optimisation in Section 4.2).
  SimDuration mem_restore = costs.restore_per_page * 8192;
  EXPECT_GT(mem_restore, 50 * kMillisecond);
  EXPECT_LT(mem_restore, 300 * kMillisecond);
  EXPECT_GT(costs.namespace_and_ptree, 300 * kMillisecond);
}

}  // namespace
}  // namespace medes
