#include "registry/fingerprint_registry.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/mutex.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace medes {

FingerprintRegistry::FingerprintRegistry(RegistryOptions options) : options_(options) {
  if (options_.max_locations_per_key == 0) {
    throw std::invalid_argument("FingerprintRegistry: max_locations_per_key must be >= 1");
  }
  WriterLock lock(mu_);
  Rebuild({}, {});
}

// The object under construction is unreachable by other threads, so only the
// source's lock is taken.
FingerprintRegistry::FingerprintRegistry(const FingerprintRegistry& other)
    : options_(other.options_) {
  ReaderLock lock(other.mu_);
  slots_ = other.slots_;
  entries_ = other.entries_;
  locations_ = other.locations_;
  slot_bits_ = other.slot_bits_;
  num_keys_ = other.num_keys_;
  base_refcounts_ = other.base_refcounts_;
}

void FingerprintRegistry::BindTransport(std::shared_ptr<Transport> transport,
                                        NodeId registry_node) {
  transport_ = std::move(transport);
  registry_node_ = registry_node;
}

size_t FingerprintRegistry::Home(uint64_t key, unsigned slot_bits) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - slot_bits));
}

void FingerprintRegistry::Rebuild(std::span<const Entry> entries,
                                  std::span<const PageLocation> locations) {
  // Both spans may view the members they replace: those are written once
  // the inputs are read. Ids are renumbered in order of first use, so a
  // location no entry names is dropped.
  std::vector<uint32_t> new_id(locations.size(), kEmptySlot);
  std::vector<Entry> kept;
  kept.reserve(entries.size());
  std::vector<PageLocation> kept_locations;
  size_t keys = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].key != entries[i - 1].key) {
      ++keys;
    }
    uint32_t& id = new_id[entries[i].id];
    if (id == kEmptySlot) {
      id = static_cast<uint32_t>(kept_locations.size());
      kept_locations.push_back(locations[entries[i].id]);
    }
    kept.push_back({entries[i].key, id});
  }
  entries_ = std::move(kept);
  locations_ = std::move(kept_locations);
  IndexKeys(keys);
}

void FingerprintRegistry::IndexKeys(size_t keys) {
  num_keys_ = keys;
  slot_bits_ = 4;
  while ((size_t{1} << slot_bits_) < 2 * keys) {
    ++slot_bits_;
  }
  const size_t mask = (size_t{1} << slot_bits_) - 1;
  slots_.assign(mask + 1, KeySlot{});
  for (size_t i = 0; i < entries_.size();) {
    const uint64_t key = entries_[i].key;
    size_t pos = Home(key, slot_bits_);
    while (slots_[pos].begin != kEmptySlot) {
      pos = (pos + 1) & mask;
    }
    slots_[pos] = {key, static_cast<uint32_t>(i), 0};
    for (; i < entries_.size() && entries_[i].key == key; ++i) {
      ++slots_[pos].count;
    }
  }
}

void FingerprintRegistry::InsertBaseSandbox(NodeId node, SandboxId sandbox,
                                            const std::vector<PageFingerprint>& fingerprints,
                                            const obs::MessageTrace& trace) {
  size_t keys = 0;
  for (const PageFingerprint& fp : fingerprints) {
    keys += fp.chunks.size();
  }
  if (transport_ != nullptr) {
    const auto sent = transport_->Send(MessageType::kRegistryInsert, node, registry_node_,
                                       static_cast<uint64_t>(keys) * kRegistryWireBytesPerKey,
                                       fingerprints.size(), trace);
    if (!sent.delivered) {
      return;  // insert lost: the sandbox is simply never registered
    }
  }
  inserts_.Add();
  insert_keys_.Add(keys);
  // The new entries, named by page index until they are kept, in page and
  // chunk order within each key.
  std::vector<Entry> added;
  added.reserve(keys);
  for (size_t page = 0; page < fingerprints.size(); ++page) {
    for (const SampledChunk& chunk : fingerprints[page].chunks) {
      added.push_back({chunk.key, static_cast<uint32_t>(page)});
    }
  }
  std::stable_sort(added.begin(), added.end(),
                   [](const Entry& a, const Entry& b) { return a.key < b.key; });
  WriterLock lock(mu_);
  base_refcounts_.try_emplace(sandbox, 0);
  // One merge: each key's stored run (within the cap already), then its new
  // entries while the key has room — the locations stored one at a time
  // while it had room. A page's location is appended, and gets its id,
  // when its first entry is kept, so a page whose every key is full adds
  // none. Stored ids do not change.
  std::vector<uint32_t> new_id(fingerprints.size(), kEmptySlot);
  std::vector<Entry> merged;
  merged.reserve(entries_.size() + added.size());
  size_t merged_keys = 0;
  auto stored = entries_.cbegin();
  auto fresh = added.cbegin();
  while (stored != entries_.cend() || fresh != added.cend()) {
    const uint64_t key =
        stored != entries_.cend() && (fresh == added.cend() || stored->key <= fresh->key)
            ? stored->key
            : fresh->key;
    ++merged_keys;
    size_t count = 0;
    for (; stored != entries_.cend() && stored->key == key; ++stored, ++count) {
      merged.push_back(*stored);
    }
    for (; fresh != added.cend() && fresh->key == key; ++fresh) {
      if (count < options_.max_locations_per_key) {
        ++count;
        uint32_t& id = new_id[fresh->id];
        if (id == kEmptySlot) {
          id = static_cast<uint32_t>(locations_.size());
          locations_.push_back({node, sandbox, PageIndex{fresh->id}});
        }
        merged.push_back({key, id});
      }
    }
  }
  entries_ = std::move(merged);
  IndexKeys(merged_keys);
}

void FingerprintRegistry::RemoveBaseSandbox(SandboxId sandbox) {
  removes_.Add();
  WriterLock lock(mu_);
  base_refcounts_.erase(sandbox);
  // A lambda body is outside the lock as the thread-safety analysis sees
  // it, so it reads the locations through a reference taken here.
  const std::vector<PageLocation>& locations = locations_;
  std::vector<Entry> entries = entries_;
  const auto owned = [&](const Entry& e) { return locations[e.id].sandbox == sandbox; };
  if (std::erase_if(entries, owned) > 0) {
    Rebuild(entries, locations);
  }
}

bool FingerprintRegistry::IsBaseSandbox(SandboxId sandbox) const {
  ReaderLock lock(mu_);
  return base_refcounts_.contains(sandbox);
}

uint64_t FingerprintRegistry::LookUpBatch(std::span<const PageFingerprint> fingerprints,
                                          NodeId local_node, SandboxId exclude_sandbox,
                                          size_t max_results,
                                          std::span<std::vector<BasePageCandidate>> results,
                                          SimDuration& cost, const obs::MessageTrace& trace) {
  // Modelled cost: one round trip carrying the whole batch's keys (wire),
  // plus the controller's per-page lookup work (CPU). A dropped lookup
  // message degrades to an empty answer — every page in the batch is
  // treated as unique (paper: missing a candidate is always safe) — and
  // costs only the wire: the controller never saw it.
  const SimDuration work = static_cast<int64_t>(fingerprints.size()) * options_.lookup_per_page;
  if (transport_ != nullptr && !fingerprints.empty()) {
    size_t keys = 0;
    for (const PageFingerprint& fp : fingerprints) {
      keys += fp.chunks.size();
    }
    const auto sent =
        transport_->Send(MessageType::kRegistryLookup, local_node, registry_node_,
                         static_cast<uint64_t>(keys) * kRegistryWireBytesPerKey,
                         fingerprints.size(), trace);
    cost += sent.cost;
    if (!sent.delivered) {
      return 0;
    }
    if (obs::TraceEnabled() && trace.ctx.sampled()) {
      // Registry-side work span, parented to the wire-message span the
      // transport just recorded (re-derived — same pure function).
      const obs::TraceContext msg_ctx = MessageSpanContext(MessageType::kRegistryLookup, trace);
      obs::ScopedSpan span("registry/lookup_work", "registry", trace.at + sent.cost,
                           static_cast<int32_t>(registry_node_.value()),
                           msg_ctx.Child("registry/lookup_work"));
      span.SetSimDuration(work);
      span.AddArg("pages", static_cast<int64_t>(fingerprints.size()));
      span.AddArg("keys", static_cast<int64_t>(keys));
    }
  }
  cost += work;
  // Readers are preferred (common/mutex.h), so a long reader section can
  // starve InsertBaseSandbox and RemoveBaseSandbox. The section below only
  // probes and counts: it allocates nothing once the per-thread buffers
  // have grown, and ranking and the results wait until the lock is gone.
  // Per-thread buffers, reused for every batch, so a lookup allocates
  // nothing but its results. `tally` holds each page's candidates, page
  // after page, page i's ending at page_end[i]. seen[id] says where location
  // id sits in the current page's tally, or that it is excluded; it is
  // valid only when its stamp is the page's, a number no earlier page of
  // this thread had.
  struct Seen {
    uint64_t stamp = 0;
    uint32_t at = 0;
  };
  constexpr uint32_t kExcluded = UINT32_MAX;
  thread_local std::vector<Seen> seen;
  thread_local uint64_t stamp = 0;
  thread_local std::vector<BasePageCandidate> tally;
  thread_local std::vector<size_t> page_end;
  tally.clear();
  page_end.clear();
  uint64_t hits = 0;
  {
    ReaderLock lock(mu_);
    if (seen.size() < locations_.size()) {
      seen.resize(locations_.size());
    }
    const size_t mask = slots_.size() - 1;
    for (const PageFingerprint& fp : fingerprints) {
      ++stamp;
      for (const SampledChunk& chunk : fp.chunks) {
        size_t pos = Home(chunk.key, slot_bits_);
        while (slots_[pos].begin != kEmptySlot && slots_[pos].key != chunk.key) {
          pos = (pos + 1) & mask;
        }
        const KeySlot& slot = slots_[pos];
        if (slot.begin == kEmptySlot) {
          continue;
        }
        ++hits;
        for (const Entry& entry :
             std::span<const Entry>(entries_).subspan(slot.begin, slot.count)) {
          Seen& location = seen[entry.id];
          if (location.stamp != stamp) {
            location.stamp = stamp;
            location.at = kExcluded;
            if (locations_[entry.id].sandbox != exclude_sandbox) {
              location.at = static_cast<uint32_t>(tally.size());
              tally.push_back({locations_[entry.id], 0});
            }
          }
          if (location.at != kExcluded) {
            ++tally[location.at].overlap;
          }
        }
      }
      page_end.push_back(tally.size());
    }
  }
  // Ranked outside the lock, where the results are allocated. The order is
  // total over distinct locations (max overlap, then local node, then
  // lowest sandbox and page), so the top k are the same however the tally
  // was ordered.
  const auto ranks_before = [local_node](const BasePageCandidate& a,
                                         const BasePageCandidate& b) {
    if (a.overlap != b.overlap) {
      return a.overlap > b.overlap;
    }
    const bool a_local = a.location.node == local_node;
    const bool b_local = b.location.node == local_node;
    if (a_local != b_local) {
      return a_local;
    }
    if (a.location.sandbox != b.location.sandbox) {
      return a.location.sandbox < b.location.sandbox;
    }
    return a.location.page_index < b.location.page_index;
  };
  for (size_t i = 0, begin = 0; i < fingerprints.size(); begin = page_end[i++]) {
    const auto first = tally.begin() + static_cast<ptrdiff_t>(begin);
    const auto last = tally.begin() + static_cast<ptrdiff_t>(page_end[i]);
    results[i].resize(std::min(max_results, page_end[i] - begin));
    std::partial_sort_copy(first, last, results[i].begin(), results[i].end(), ranks_before);
  }
  return hits;
}

std::vector<std::vector<BasePageCandidate>> FingerprintRegistry::FindBasePagesBatch(
    std::span<const PageFingerprint> fingerprints, NodeId local_node, SandboxId exclude_sandbox,
    size_t max_results, SimDuration* lookup_cost, const obs::MessageTrace& trace) {
  std::vector<std::vector<BasePageCandidate>> results(fingerprints.size());
  SimDuration cost;
  const uint64_t hits = LookUpBatch(fingerprints, local_node, exclude_sandbox, max_results,
                                    results, cost, trace);
  lookups_.Add(fingerprints.size());
  key_hits_.fetch_add(hits, std::memory_order_relaxed);
  lookup_batches_.Add();
  batch_cost_us_.Record(cost.value());
  if (lookup_cost != nullptr) {
    *lookup_cost += cost;
  }
  return results;
}

std::optional<BasePageCandidate> FingerprintRegistry::FindBasePage(
    const PageFingerprint& fingerprint, NodeId local_node, SandboxId exclude_sandbox) {
  auto results = FindBasePagesBatch(std::span<const PageFingerprint>(&fingerprint, 1), local_node,
                                    exclude_sandbox, 1);
  if (results.front().empty()) {
    return std::nullopt;
  }
  return results.front().front();
}

void FingerprintRegistry::Ref(SandboxId base_sandbox) {
  WriterLock lock(mu_);
  auto it = base_refcounts_.find(base_sandbox);
  if (it != base_refcounts_.end()) {
    ++it->second;
  }
}

void FingerprintRegistry::Unref(SandboxId base_sandbox) {
  WriterLock lock(mu_);
  auto it = base_refcounts_.find(base_sandbox);
  if (it != base_refcounts_.end() && it->second > 0) {
    --it->second;
  }
}

int FingerprintRegistry::RefCount(SandboxId base_sandbox) const {
  ReaderLock lock(mu_);
  auto it = base_refcounts_.find(base_sandbox);
  return it == base_refcounts_.end() ? 0 : it->second;
}

size_t FingerprintRegistry::NumBaseSandboxes() const {
  ReaderLock lock(mu_);
  return base_refcounts_.size();
}

RegistryStats FingerprintRegistry::stats() const {
  RegistryStats s;
  {
    ReaderLock lock(mu_);
    s.num_keys = num_keys_;
    s.num_entries = entries_.size();
    s.num_base_sandboxes = base_refcounts_.size();
  }
  s.lookups = lookups_.Value();
  s.key_hits = key_hits_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace medes
