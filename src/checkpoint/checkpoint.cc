#include "checkpoint/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace medes {

namespace {

// Tests a word at a time; a page is whole 8-byte words.
bool IsZeroPage(std::span<const uint8_t> page) {
  for (size_t i = 0; i < page.size(); i += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, page.data() + i, sizeof(word));
    if (word != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

MemoryCheckpoint MemoryCheckpoint::Capture(const MemoryImage& image, bool keep_payloads) {
  static_assert(kPageSize % sizeof(uint64_t) == 0);
  MemoryCheckpoint cp;
  cp.payloads_dropped_ = !keep_payloads;
  cp.slots_.resize(image.NumPages());
  for (size_t p = 0; p < image.NumPages(); ++p) {
    std::span<const uint8_t> page = image.Page(p);
    Slot& slot = cp.slots_[p];
    if (IsZeroPage(page)) {
      slot.state = PageSlotState::kZero;
      slot.payload_size = 0;
    } else {
      slot.state = PageSlotState::kResident;
      if (keep_payloads) {
        slot.payload.assign(page.begin(), page.end());
      }
      slot.payload_size = page.size();
    }
  }
  return cp;
}

std::span<const uint8_t> MemoryCheckpoint::PageData(size_t page) const {
  const Slot& slot = slots_.at(page);
  if (slot.state != PageSlotState::kResident) {
    throw std::logic_error("PageData: page not resident");
  }
  if (payloads_dropped_) {
    throw std::logic_error("PageData: payloads were dropped");
  }
  return slot.payload;
}

std::span<const uint8_t> MemoryCheckpoint::PatchData(size_t page) const {
  const Slot& slot = slots_.at(page);
  if (slot.state != PageSlotState::kPatched) {
    throw std::logic_error("PatchData: page not patched");
  }
  return slot.payload;
}

void MemoryCheckpoint::ReplaceWithPatch(size_t page, std::vector<uint8_t> patch) {
  Slot& slot = slots_.at(page);
  if (slot.state != PageSlotState::kResident) {
    throw std::logic_error("ReplaceWithPatch: page not resident");
  }
  slot.state = PageSlotState::kPatched;
  slot.payload_size = patch.size();
  slot.payload = payloads_dropped_ ? std::vector<uint8_t>{} : std::move(patch);
}

void MemoryCheckpoint::MarkZero(size_t page) {
  Slot& slot = slots_.at(page);
  slot.state = PageSlotState::kZero;
  slot.payload_size = 0;
  slot.payload.clear();
}

void MemoryCheckpoint::RestorePage(size_t page, std::vector<uint8_t> bytes) {
  Slot& slot = slots_.at(page);
  if (slot.state != PageSlotState::kPatched) {
    throw std::logic_error("RestorePage: page not patched");
  }
  slot.state = PageSlotState::kResident;
  slot.payload_size = bytes.size();
  slot.payload = payloads_dropped_ ? std::vector<uint8_t>{} : std::move(bytes);
}

void MemoryCheckpoint::MarkPatched(size_t page, size_t patch_size) {
  Slot& slot = slots_.at(page);
  if (!payloads_dropped_) {
    throw std::logic_error("MarkPatched: payloads not dropped");
  }
  if (slot.state != PageSlotState::kResident) {
    throw std::logic_error("MarkPatched: page not resident");
  }
  slot.state = PageSlotState::kPatched;
  slot.payload_size = patch_size;
}

void MemoryCheckpoint::MarkRestored(size_t page) {
  Slot& slot = slots_.at(page);
  if (!payloads_dropped_) {
    throw std::logic_error("MarkRestored: payloads not dropped");
  }
  if (slot.state != PageSlotState::kPatched) {
    throw std::logic_error("MarkRestored: page not patched");
  }
  slot.state = PageSlotState::kResident;
  slot.payload_size = kPageSize;
}

bool MemoryCheckpoint::FullyResident() const {
  return std::all_of(slots_.begin(), slots_.end(), [](const Slot& s) {
    return s.state != PageSlotState::kPatched;
  });
}

std::vector<uint8_t> MemoryCheckpoint::ToBytes() const {
  if (payloads_dropped_) {
    throw std::logic_error("ToBytes: payloads were dropped");
  }
  std::vector<uint8_t> out(slots_.size() * kPageSize, 0);
  for (size_t p = 0; p < slots_.size(); ++p) {
    const Slot& slot = slots_[p];
    switch (slot.state) {
      case PageSlotState::kResident:
        std::copy(slot.payload.begin(), slot.payload.end(),
                  out.begin() + static_cast<ptrdiff_t>(p * kPageSize));
        break;
      case PageSlotState::kZero:
        break;  // already zero
      case PageSlotState::kPatched:
        throw std::logic_error("ToBytes: page still patched");
    }
  }
  return out;
}

size_t MemoryCheckpoint::ResidentBytes() const {
  size_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.state == PageSlotState::kResident) {
      total += slot.payload_size;
    }
  }
  return total;
}

size_t MemoryCheckpoint::PatchBytes() const {
  size_t total = 0;
  for (const Slot& slot : slots_) {
    if (slot.state == PageSlotState::kPatched) {
      total += slot.payload_size;
    }
  }
  return total;
}

size_t MemoryCheckpoint::NumPatched() const {
  return static_cast<size_t>(std::count_if(slots_.begin(), slots_.end(), [](const Slot& s) {
    return s.state == PageSlotState::kPatched;
  }));
}

size_t MemoryCheckpoint::NumZero() const {
  return static_cast<size_t>(std::count_if(slots_.begin(), slots_.end(), [](const Slot& s) {
    return s.state == PageSlotState::kZero;
  }));
}

}  // namespace medes
