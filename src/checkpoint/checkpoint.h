// In-memory CRIU-like sandbox checkpoints.
//
// A checkpoint is the memory dump of a sandbox: an array of page slots plus
// process metadata. Medes keeps checkpoints in memory (never on disk) and
// performs the expensive non-memory restore steps — namespace creation and
// process-tree reconstruction (fork() chains) — *before* deduplicating, so a
// dedup start only pays for memory-state restoration (paper Section 4.2;
// this optimisation took restores from 650 ms to ~140 ms).
//
// The dedup agent edits checkpoints in place: a page slot is either
//   - resident: the original 4 KiB bytes are held;
//   - patched:  the bytes were replaced by a delta against a base page
//               elsewhere in the cluster (the patch is the retained memory);
//   - zero:     an all-zero page (stored as nothing).
#ifndef MEDES_CHECKPOINT_CHECKPOINT_H_
#define MEDES_CHECKPOINT_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/time.h"
#include "memstate/image.h"

namespace medes {

// Modelled costs of the checkpoint/restore substrate (CRIU-equivalent).
struct CheckpointCosts {
  // Capturing the memory dump of one (represented) page.
  SimDuration capture_per_page{12};  // us
  // Restoring the memory dump into a running sandbox, per (represented) page.
  SimDuration restore_per_page{15};  // us
  // Namespace creation + process-tree reconstruction. Paid at dedup time by
  // Medes (prepared ahead), or during the restore when not prepared.
  SimDuration namespace_and_ptree = 510 * kMillisecond;
};

enum class PageSlotState : uint8_t {
  kResident,
  kPatched,
  kZero,
};

class MemoryCheckpoint {
 public:
  MemoryCheckpoint() = default;

  // Captures the memory dump of `image`. Without `keep_payloads` only the
  // slot states and sizes are recorded: the checkpoint starts out with its
  // payloads dropped and holds no page bytes.
  static MemoryCheckpoint Capture(const MemoryImage& image, bool keep_payloads = true);

  size_t NumPages() const { return slots_.size(); }
  PageSlotState SlotState(size_t page) const { return slots_[page].state; }

  // Bytes of a resident page. Precondition: SlotState(page) == kResident and
  // payloads were kept.
  std::span<const uint8_t> PageData(size_t page) const;

  // Patch bytes of a patched page (empty if payloads were dropped).
  std::span<const uint8_t> PatchData(size_t page) const;
  size_t PatchSize(size_t page) const { return slots_[page].payload_size; }

  // Replaces a resident page with a patch (dedup op redundancy elimination).
  void ReplaceWithPatch(size_t page, std::vector<uint8_t> patch);

  // Marks a resident all-zero page as a zero slot (drops its bytes).
  void MarkZero(size_t page);

  // Puts reconstructed bytes back into a patched slot (restore op).
  void RestorePage(size_t page, std::vector<uint8_t> bytes);

  // ReplaceWithPatch and RestorePage for a checkpoint captured without
  // payloads: they record the slot's new state and size (a restored page is
  // kPageSize bytes) without bytes that would only be thrown away. Throw
  // std::logic_error unless payloads_dropped().
  void MarkPatched(size_t page, size_t patch_size);
  void MarkRestored(size_t page);

  // True when every slot is resident or zero (restorable to a full image).
  bool FullyResident() const;

  // Materialises the full memory image. Throws std::logic_error if any page
  // is still patched or payloads were dropped.
  std::vector<uint8_t> ToBytes() const;

  // True when the checkpoint was captured without payloads — the cluster
  // simulation's mode when byte-exact restore verification is disabled. It
  // keeps per-slot sizes, so ResidentBytes / PatchBytes keep working.
  bool payloads_dropped() const { return payloads_dropped_; }

  // Memory held by this checkpoint, by slot class.
  size_t ResidentBytes() const;
  size_t PatchBytes() const;
  size_t NumPatched() const;
  size_t NumZero() const;

  // Namespace/process-tree preparation state (see file comment).
  bool namespaces_prepared() const { return namespaces_prepared_; }
  void set_namespaces_prepared(bool v) { namespaces_prepared_ = v; }

 private:
  struct Slot {
    PageSlotState state = PageSlotState::kResident;
    size_t payload_size = 0;  // bytes held (page size or patch size)
    std::vector<uint8_t> payload;
  };

  std::vector<Slot> slots_;
  bool namespaces_prepared_ = false;
  bool payloads_dropped_ = false;
};

}  // namespace medes

#endif  // MEDES_CHECKPOINT_CHECKPOINT_H_
