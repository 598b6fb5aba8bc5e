#include "registry/fingerprint_registry.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/mutex.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "store/state_store.h"

namespace medes {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

FingerprintRegistry::FingerprintRegistry(RegistryOptions options) : options_(options) {
  ResetShards();
}

FingerprintRegistry::FingerprintRegistry(const FingerprintRegistry& other)
    : FingerprintRegistry(other.options_) {
  CopyFrom(other);
}

FingerprintRegistry& FingerprintRegistry::operator=(const FingerprintRegistry& other) {
  if (this == &other) {
    return *this;
  }
  options_ = other.options_;
  ResetShards();
  CopyFrom(other);
  return *this;
}

void FingerprintRegistry::ResetShards() {
  const size_t shards = RoundUpPow2(std::max<size_t>(options_.num_shards, 1));
  shards_.clear();
  shards_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void FingerprintRegistry::CopyFrom(const FingerprintRegistry& other) {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& src = *other.shards_[s];
    Shard& dst = *shards_[s];
    // Snapshot the source shard, then install into the destination shard.
    // Two sequential critical sections: source and destination shards share
    // a lock rank, so they must never be held together.
    std::unordered_map<uint64_t, std::vector<PageLocation>> table;
    std::unordered_map<SandboxId, std::vector<uint64_t>> keys_by_sandbox;
    {
      ReaderLock lock(src.mu);
      table = src.table;
      keys_by_sandbox = src.keys_by_sandbox;
    }
    {
      WriterLock lock(dst.mu);
      dst.table = std::move(table);
      dst.keys_by_sandbox = std::move(keys_by_sandbox);
    }
  }
  std::unordered_map<SandboxId, int> refcounts;
  {
    ReaderLock lock(other.sandbox_mu_);
    refcounts = other.base_refcounts_;
  }
  {
    WriterLock lock(sandbox_mu_);
    base_refcounts_ = std::move(refcounts);
  }
}

size_t FingerprintRegistry::ShardIndex(uint64_t key) const {
  // MixBits spreads truncated keys (which may share low bits) across stripes.
  return static_cast<size_t>(MixBits(key)) & (shards_.size() - 1);
}

void FingerprintRegistry::BindTransport(std::shared_ptr<Transport> transport,
                                        NodeId registry_node) {
  transport_ = std::move(transport);
  registry_node_ = registry_node;
}

void FingerprintRegistry::BindStateStore(std::shared_ptr<store::StateStore> store) {
  store_ = std::move(store);
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
  AddEntries(node, sandbox, fingerprints);
  // Only inserts that actually landed (past the transport delivery check)
  // become durable registry state. No shard locks are held here.
  if (store_ != nullptr) {
    store_->AppendInsertSandbox(node, sandbox, fingerprints);
  }
}

void FingerprintRegistry::AddEntries(NodeId node, SandboxId sandbox,
                                     std::span<const PageFingerprint> fingerprints) {
  {
    WriterLock lock(sandbox_mu_);
    base_refcounts_.try_emplace(sandbox, 0);
  }
  for (size_t page = 0; page < fingerprints.size(); ++page) {
    for (const SampledChunk& chunk : fingerprints[page].chunks) {
      Shard& shard = ShardFor(chunk.key);
      WriterLock lock(shard.mu);
      auto& locations = shard.table[chunk.key];
      if (locations.size() < options_.max_locations_per_key) {
        locations.push_back({node, sandbox, PageIndex{static_cast<uint32_t>(page)}});
        shard.keys_by_sandbox[sandbox].push_back(chunk.key);
      }
    }
  }
}

void FingerprintRegistry::RemoveBaseSandbox(SandboxId sandbox) {
  removes_.Add();
  RemoveEntries(sandbox);
  if (store_ != nullptr) {
    store_->AppendRemoveSandbox(sandbox);
  }
}

void FingerprintRegistry::RemoveEntries(SandboxId sandbox) {
  {
    WriterLock lock(sandbox_mu_);
    base_refcounts_.erase(sandbox);
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    WriterLock lock(shard.mu);
    auto owned = shard.keys_by_sandbox.find(sandbox);
    if (owned == shard.keys_by_sandbox.end()) {
      continue;
    }
    for (uint64_t key : owned->second) {
      auto it = shard.table.find(key);
      if (it == shard.table.end()) {
        continue;  // earlier duplicate of this key already emptied it
      }
      std::erase_if(it->second,
                    [&](const PageLocation& loc) { return loc.sandbox == sandbox; });
      if (it->second.empty()) {
        shard.table.erase(it);
      }
    }
    shard.keys_by_sandbox.erase(owned);
  }
}

bool FingerprintRegistry::IsBaseSandbox(SandboxId sandbox) const {
  ReaderLock lock(sandbox_mu_);
  return base_refcounts_.contains(sandbox);
}

uint64_t FingerprintRegistry::TallyBatch(std::span<const PageFingerprint> fingerprints,
                                         NodeId local_node, SandboxId exclude_sandbox,
                                         std::span<CandidateTally> tallies, SimDuration& cost,
                                         const obs::MessageTrace& trace) {
  // Modelled cost: one round trip carrying the whole batch's keys (wire),
  // plus the controller's per-page lookup work (CPU). A dropped lookup
  // message degrades to an empty answer — every page in the batch is
  // treated as unique (paper: missing a candidate is always safe).
  const SimDuration work = static_cast<int64_t>(fingerprints.size()) * options_.lookup_per_page;
  cost += work;
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
  return TallyShards(fingerprints, exclude_sandbox, tallies);
}

uint64_t FingerprintRegistry::TallyShards(std::span<const PageFingerprint> fingerprints,
                                          SandboxId exclude_sandbox,
                                          std::span<CandidateTally> tallies) const {
  struct KeyRef {
    uint64_t key;
    uint32_t fp_index;
  };
  std::vector<std::vector<KeyRef>> per_shard(shards_.size());
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    for (const SampledChunk& chunk : fingerprints[i].chunks) {
      per_shard[ShardIndex(chunk.key)].push_back({chunk.key, static_cast<uint32_t>(i)});
    }
  }
  uint64_t hits = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) {
      continue;
    }
    const Shard& shard = *shards_[s];
    ReaderLock lock(shard.mu);
    for (const KeyRef& ref : per_shard[s]) {
      auto it = shard.table.find(ref.key);
      if (it == shard.table.end()) {
        continue;
      }
      ++hits;
      for (const PageLocation& loc : it->second) {
        if (loc.sandbox != exclude_sandbox) {
          tallies[ref.fp_index].Add(loc);
        }
      }
    }
  }
  return hits;
}

void FingerprintRegistry::Ref(SandboxId base_sandbox) {
  WriterLock lock(sandbox_mu_);
  auto it = base_refcounts_.find(base_sandbox);
  if (it != base_refcounts_.end()) {
    ++it->second;
  }
}

void FingerprintRegistry::Unref(SandboxId base_sandbox) {
  WriterLock lock(sandbox_mu_);
  auto it = base_refcounts_.find(base_sandbox);
  if (it != base_refcounts_.end() && it->second > 0) {
    --it->second;
  }
}

int FingerprintRegistry::RefCount(SandboxId base_sandbox) const {
  ReaderLock lock(sandbox_mu_);
  auto it = base_refcounts_.find(base_sandbox);
  return it == base_refcounts_.end() ? 0 : it->second;
}

size_t FingerprintRegistry::NumBaseSandboxes() const {
  ReaderLock lock(sandbox_mu_);
  return base_refcounts_.size();
}

RegistryStats FingerprintRegistry::stats() const {
  RegistryStats s;
  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    ReaderLock lock(shard.mu);
    s.num_keys += shard.table.size();
    for (const auto& [key, locations] : shard.table) {
      s.num_entries += locations.size();
    }
  }
  {
    ReaderLock lock(sandbox_mu_);
    s.num_base_sandboxes = base_refcounts_.size();
  }
  s.lookups = lookups_.Value();
  s.key_hits = key_hits_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace medes
