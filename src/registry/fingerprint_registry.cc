#include "registry/fingerprint_registry.h"

#include <algorithm>
#include <utility>

#include "common/mutex.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace medes {

namespace {

// Top-k of one page's tally under a total order: max overlap first,
// local-node pages preferred on ties, then lowest (sandbox, page). The order
// is total over distinct locations, so a partial sort keeps exactly the
// candidates a full sort truncated to `max_results` would.
std::vector<BasePageCandidate> RankCandidates(CandidateTally tally, NodeId local_node,
                                              size_t max_results) {
  std::vector<BasePageCandidate> ranked = std::move(tally.entries);
  const auto k = static_cast<ptrdiff_t>(std::min(max_results, ranked.size()));
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    [&](const BasePageCandidate& a, const BasePageCandidate& b) {
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
                    });
  ranked.resize(static_cast<size_t>(k));
  return ranked;
}

}  // namespace

FingerprintRegistry::FingerprintRegistry(RegistryOptions options) : options_(options) {}

// The object under construction is unreachable by other threads, so only the
// source's lock is taken.
FingerprintRegistry::FingerprintRegistry(const FingerprintRegistry& other)
    : options_(other.options_) {
  ReaderLock lock(other.mu_);
  table_ = other.table_;
  keys_by_sandbox_ = other.keys_by_sandbox_;
  base_refcounts_ = other.base_refcounts_;
}

void FingerprintRegistry::BindTransport(std::shared_ptr<Transport> transport,
                                        NodeId registry_node) {
  transport_ = std::move(transport);
  registry_node_ = registry_node;
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
  WriterLock lock(mu_);
  base_refcounts_.try_emplace(sandbox, 0);
  for (size_t page = 0; page < fingerprints.size(); ++page) {
    for (const SampledChunk& chunk : fingerprints[page].chunks) {
      auto& locations = table_[chunk.key];
      if (locations.size() < options_.max_locations_per_key) {
        locations.push_back({node, sandbox, PageIndex{static_cast<uint32_t>(page)}});
        keys_by_sandbox_[sandbox].push_back(chunk.key);
      }
    }
  }
}

void FingerprintRegistry::RemoveBaseSandbox(SandboxId sandbox) {
  removes_.Add();
  WriterLock lock(mu_);
  base_refcounts_.erase(sandbox);
  auto owned = keys_by_sandbox_.find(sandbox);
  if (owned == keys_by_sandbox_.end()) {
    return;
  }
  for (uint64_t key : owned->second) {
    auto it = table_.find(key);
    if (it == table_.end()) {
      continue;  // earlier duplicate of this key already emptied it
    }
    std::erase_if(it->second, [&](const PageLocation& loc) { return loc.sandbox == sandbox; });
    if (it->second.empty()) {
      table_.erase(it);
    }
  }
  keys_by_sandbox_.erase(owned);
}

bool FingerprintRegistry::IsBaseSandbox(SandboxId sandbox) const {
  ReaderLock lock(mu_);
  return base_refcounts_.contains(sandbox);
}

uint64_t FingerprintRegistry::TallyBatch(std::span<const PageFingerprint> fingerprints,
                                         NodeId local_node, SandboxId exclude_sandbox,
                                         std::span<CandidateTally> tallies, SimDuration& cost,
                                         const obs::MessageTrace& trace) {
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
  uint64_t hits = 0;
  ReaderLock lock(mu_);
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    for (const SampledChunk& chunk : fingerprints[i].chunks) {
      auto it = table_.find(chunk.key);
      if (it == table_.end()) {
        continue;
      }
      ++hits;
      for (const PageLocation& loc : it->second) {
        if (loc.sandbox != exclude_sandbox) {
          tallies[i].Add(loc);
        }
      }
    }
  }
  return hits;
}

std::vector<std::vector<BasePageCandidate>> FingerprintRegistry::FindBasePagesBatch(
    std::span<const PageFingerprint> fingerprints, NodeId local_node, SandboxId exclude_sandbox,
    size_t max_results, SimDuration* lookup_cost, const obs::MessageTrace& trace) {
  std::vector<CandidateTally> tallies(fingerprints.size());
  SimDuration cost;
  const uint64_t hits =
      TallyBatch(fingerprints, local_node, exclude_sandbox, tallies, cost, trace);
  lookups_.Add(fingerprints.size());
  key_hits_.fetch_add(hits, std::memory_order_relaxed);
  lookup_batches_.Add();
  batch_cost_us_.Record(cost.value());
  if (lookup_cost != nullptr) {
    *lookup_cost += cost;
  }
  std::vector<std::vector<BasePageCandidate>> results;
  results.reserve(fingerprints.size());
  for (CandidateTally& tally : tallies) {
    results.push_back(RankCandidates(std::move(tally), local_node, max_results));
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
    s.num_keys = table_.size();
    for (const auto& [key, locations] : table_) {
      s.num_entries += locations.size();
    }
    s.num_base_sandboxes = base_refcounts_.size();
  }
  s.lookups = lookups_.Value();
  s.key_hits = key_hits_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace medes
