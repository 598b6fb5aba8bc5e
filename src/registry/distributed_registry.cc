#include "registry/distributed_registry.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/hash.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace medes {

DistributedRegistry::DistributedRegistry(DistributedRegistryOptions options,
                                         std::shared_ptr<Transport> transport)
    : options_(options),
      transport_(std::move(transport)),
      lookups_per_shard_(static_cast<size_t>(std::max(options_.num_shards, 0))),
      writes_per_shard_(static_cast<size_t>(std::max(options_.num_shards, 0))) {
  if (options_.num_shards <= 0 || options_.replication_factor <= 0) {
    throw std::invalid_argument("DistributedRegistry: shards and replicas must be positive");
  }
  if (transport_ == nullptr) {
    // Standalone use: a private transport with default links keeps every
    // charge flowing through the shared wire model.
    transport_ = std::make_shared<Transport>();
  }
  WriterLock topology(topology_mu_);
  shards_.resize(static_cast<size_t>(options_.num_shards));
  for (Shard& shard : shards_) {
    for (int r = 0; r < options_.replication_factor; ++r) {
      shard.chain.emplace_back(Replica{FingerprintRegistry(options_.per_shard), true});
    }
  }
}

int DistributedRegistry::ShardOf(uint64_t key) const {
  return static_cast<int>(MixBits(key) % static_cast<uint64_t>(options_.num_shards));
}

int DistributedRegistry::SandboxShard(SandboxId sandbox) const {
  return static_cast<int>(MixBits(sandbox.value()) % static_cast<uint64_t>(options_.num_shards));
}

bool DistributedRegistry::ReplicaServing(const Shard& shard, int shard_index, int r) const {
  return shard.chain[static_cast<size_t>(r)].alive &&
         transport_->NodeUp(ReplicaNode(shard_index, r));
}

int DistributedRegistry::EffectiveTail(const Shard& shard, int shard_index) const {
  for (int r = static_cast<int>(shard.chain.size()) - 1; r >= 0; --r) {
    if (ReplicaServing(shard, shard_index, r)) {
      return r;
    }
  }
  return -1;
}

bool DistributedRegistry::ShardAvailable(int shard) const {
  ReaderLock topology(topology_mu_);
  return EffectiveTail(shards_.at(static_cast<size_t>(shard)), shard) >= 0;
}

namespace {

// Folds a shard index into the caller's trace ordinal so each shard's wire
// message derives a distinct span id (injective while num_shards < 1024).
obs::MessageTrace ShardTrace(const obs::MessageTrace& trace, size_t shard) {
  return obs::MessageTrace{trace.ctx, trace.at, trace.ordinal * 1024 + shard};
}

}  // namespace

DistributedRegistry::ShardPartition DistributedRegistry::PartitionByShard(
    std::span<const PageFingerprint> fingerprints) const {
  const auto num_shards = static_cast<size_t>(options_.num_shards);
  ShardPartition partition{
      std::vector<std::vector<PageFingerprint>>(
          num_shards, std::vector<PageFingerprint>(fingerprints.size())),
      std::vector<size_t>(num_shards, 0)};
  for (size_t page = 0; page < fingerprints.size(); ++page) {
    for (const SampledChunk& chunk : fingerprints[page].chunks) {
      const auto s = static_cast<size_t>(ShardOf(chunk.key));
      partition.pages[s][page].chunks.push_back(chunk);
      ++partition.keys[s];
    }
  }
  return partition;
}

void DistributedRegistry::InsertBaseSandbox(NodeId node, SandboxId sandbox,
                                            const std::vector<PageFingerprint>& fingerprints,
                                            const obs::MessageTrace& trace) {
  const ShardPartition partition = PartitionByShard(fingerprints);
  inserts_.Add();
  insert_keys_.Add(std::accumulate(partition.keys.begin(), partition.keys.end(), size_t{0}));
  ReaderLock topology(topology_mu_);
  for (int s = 0; s < options_.num_shards; ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    // Writes enter the chain at the first serving replica and propagate
    // toward the tail. A shard with no serving replica drops the write.
    int entry = -1;
    for (int r = 0; r < static_cast<int>(shard.chain.size()); ++r) {
      if (ReplicaServing(shard, s, r)) {
        entry = r;
        break;
      }
    }
    if (entry < 0) {
      dropped_writes_.Add();
      continue;
    }
    const auto sent =
        transport_->Send(MessageType::kRegistryInsert, node, ReplicaNode(s, entry),
                         static_cast<uint64_t>(partition.keys[static_cast<size_t>(s)]) *
                             kRegistryWireBytesPerKey,
                         fingerprints.size(), ShardTrace(trace, static_cast<size_t>(s)));
    if (!sent.delivered) {
      dropped_writes_.Add();
      continue;
    }
    writes_per_shard_[static_cast<size_t>(s)].fetch_add(1, std::memory_order_relaxed);
    // Chain replication: the write flows through every serving replica.
    // Partitioned replicas miss it and must re-sync on recovery.
    for (int r = 0; r < static_cast<int>(shard.chain.size()); ++r) {
      if (ReplicaServing(shard, s, r)) {
        shard.chain[static_cast<size_t>(r)].registry.AddEntries(
            node, sandbox, partition.pages[static_cast<size_t>(s)]);
      }
    }
  }
  // Sandbox-level membership/refcount state is read from the sandbox's home
  // shard. Every shard's write above (keys or not) already registered the
  // sandbox on each serving replica; this covers a home-shard write that
  // was dropped.
  const int home_index = SandboxShard(sandbox);
  Shard& home = shards_[static_cast<size_t>(home_index)];
  for (int r = 0; r < static_cast<int>(home.chain.size()); ++r) {
    if (ReplicaServing(home, home_index, r)) {
      home.chain[static_cast<size_t>(r)].registry.AddEntries(node, sandbox, {});
    }
  }
}

void DistributedRegistry::RemoveBaseSandbox(SandboxId sandbox) {
  removes_.Add();
  ReaderLock topology(topology_mu_);
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    Shard& shard = shards_[static_cast<size_t>(s)];
    for (int r = 0; r < static_cast<int>(shard.chain.size()); ++r) {
      if (ReplicaServing(shard, s, r)) {
        shard.chain[static_cast<size_t>(r)].registry.RemoveEntries(sandbox);
      }
    }
  }
}

bool DistributedRegistry::IsBaseSandbox(SandboxId sandbox) const {
  ReaderLock topology(topology_mu_);
  const int home_index = SandboxShard(sandbox);
  const Shard& home = shards_[static_cast<size_t>(home_index)];
  int tail = EffectiveTail(home, home_index);
  if (tail < 0) {
    return false;
  }
  return home.chain[static_cast<size_t>(tail)].registry.IsBaseSandbox(sandbox);
}

uint64_t DistributedRegistry::TallyBatch(std::span<const PageFingerprint> fingerprints,
                                         NodeId local_node, SandboxId exclude_sandbox,
                                         std::span<CandidateTally> tallies, SimDuration& cost,
                                         const obs::MessageTrace& trace) {
  const ShardPartition partition = PartitionByShard(fingerprints);
  // Shards are queried in parallel, so the critical path is the slowest
  // shard's message plus its per-key work.
  SimDuration slowest_shard;
  uint64_t hits = 0;
  ReaderLock topology(topology_mu_);
  for (size_t s = 0; s < partition.keys.size(); ++s) {
    const size_t keys = partition.keys[s];
    if (keys == 0) {
      continue;
    }
    const auto page_lookups = static_cast<uint64_t>(
        std::count_if(partition.pages[s].begin(), partition.pages[s].end(),
                      [](const PageFingerprint& fp) { return !fp.Empty(); }));
    Shard& shard = shards_[s];
    int tail = EffectiveTail(shard, static_cast<int>(s));
    if (tail < 0) {
      unavailable_lookups_.Add(page_lookups);
      continue;
    }
    const NodeId tail_node = ReplicaNode(static_cast<int>(s), tail);
    const obs::MessageTrace shard_trace = ShardTrace(trace, s);
    const auto sent = transport_->Send(MessageType::kRegistryLookup, local_node, tail_node,
                                       static_cast<uint64_t>(keys) * kRegistryWireBytesPerKey,
                                       page_lookups, shard_trace);
    const SimDuration work = static_cast<int64_t>(keys) * options_.per_key_lookup;
    slowest_shard = std::max(slowest_shard, sent.cost + work);
    if (!sent.delivered) {
      // Lost on the wire (link fault): same client-visible outcome as an
      // all-down shard — the batch degrades to fewer candidates.
      unavailable_lookups_.Add(page_lookups);
      continue;
    }
    if (obs::TraceEnabled() && shard_trace.ctx.sampled()) {
      // Shard-side work span, parented to the wire-message span (re-derived
      // on the "receiving" shard — same pure function as the transport).
      const obs::TraceContext msg_ctx =
          MessageSpanContext(MessageType::kRegistryLookup, shard_trace);
      obs::ScopedSpan span("registry/lookup_work", "registry", trace.at + sent.cost,
                           static_cast<int32_t>(tail_node.value()),
                           msg_ctx.Child("registry/lookup_work"));
      span.SetSimDuration(work);
      span.AddArg("pages", static_cast<int64_t>(page_lookups));
      span.AddArg("keys", static_cast<int64_t>(keys));
    }
    if (tail != static_cast<int>(shard.chain.size()) - 1) {
      failovers_.Add(page_lookups);
    }
    lookups_per_shard_[s].fetch_add(page_lookups, std::memory_order_relaxed);
    hits += shard.chain[static_cast<size_t>(tail)].registry.TallyShards(partition.pages[s],
                                                                        exclude_sandbox, tallies);
  }
  cost += slowest_shard;
  return hits;
}

void DistributedRegistry::Ref(SandboxId base_sandbox) {
  ReaderLock topology(topology_mu_);
  const int home_index = SandboxShard(base_sandbox);
  Shard& home = shards_[static_cast<size_t>(home_index)];
  for (int r = 0; r < static_cast<int>(home.chain.size()); ++r) {
    if (ReplicaServing(home, home_index, r)) {
      home.chain[static_cast<size_t>(r)].registry.Ref(base_sandbox);
    }
  }
}

void DistributedRegistry::Unref(SandboxId base_sandbox) {
  ReaderLock topology(topology_mu_);
  const int home_index = SandboxShard(base_sandbox);
  Shard& home = shards_[static_cast<size_t>(home_index)];
  for (int r = 0; r < static_cast<int>(home.chain.size()); ++r) {
    if (ReplicaServing(home, home_index, r)) {
      home.chain[static_cast<size_t>(r)].registry.Unref(base_sandbox);
    }
  }
}

int DistributedRegistry::RefCount(SandboxId base_sandbox) const {
  ReaderLock topology(topology_mu_);
  const int home_index = SandboxShard(base_sandbox);
  const Shard& home = shards_[static_cast<size_t>(home_index)];
  int tail = EffectiveTail(home, home_index);
  if (tail < 0) {
    return 0;
  }
  return home.chain[static_cast<size_t>(tail)].registry.RefCount(base_sandbox);
}

RegistryStats DistributedRegistry::stats() const {
  RegistryStats total;
  ReaderLock topology(topology_mu_);
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    const Shard& shard = shards_[static_cast<size_t>(s)];
    int tail = EffectiveTail(shard, s);
    if (tail < 0) {
      continue;
    }
    RegistryStats st = shard.chain[static_cast<size_t>(tail)].registry.stats();
    total.num_keys += st.num_keys;
    total.num_entries += st.num_entries;
    total.num_base_sandboxes = std::max(total.num_base_sandboxes, st.num_base_sandboxes);
  }
  total.lookups = lookups_.Value();
  total.key_hits = key_hits_.load(std::memory_order_relaxed);
  return total;
}

SimDuration DistributedRegistry::PageLookupLatency(size_t keys, NodeId from) const {
  if (keys == 0) {
    return SimDuration{};
  }
  // Shards are queried in parallel; with K keys over S shards the critical
  // path is the most loaded shard: one message carrying ceil(K/S) keys plus
  // that many per-key lookups.
  const auto shards = static_cast<size_t>(options_.num_shards);
  const size_t per_shard = (keys + shards - 1) / shards;
  const SimDuration wire =
      transport_->MessageCost(from, ReplicaNode(0, options_.replication_factor - 1),
                              static_cast<uint64_t>(per_shard) * kRegistryWireBytesPerKey);
  return wire + static_cast<int64_t>(per_shard) * options_.per_key_lookup;
}

DistributedRegistryStats DistributedRegistry::distributed_stats() const {
  DistributedRegistryStats out;
  for (size_t s = 0; s < lookups_per_shard_.size(); ++s) {
    out.lookups_per_shard.push_back(lookups_per_shard_[s].load(std::memory_order_relaxed));
    out.writes_per_shard.push_back(writes_per_shard_[s].load(std::memory_order_relaxed));
  }
  out.unavailable_lookups = unavailable_lookups_.Value();
  out.dropped_writes = dropped_writes_.Value();
  out.failovers = failovers_.Value();
  return out;
}

void DistributedRegistry::FailReplica(int shard, int replica) {
  WriterLock topology(topology_mu_);
  shards_.at(static_cast<size_t>(shard)).chain.at(static_cast<size_t>(replica)).alive = false;
}

void DistributedRegistry::RecoverReplica(int shard, int replica) {
  WriterLock topology(topology_mu_);
  Shard& s = shards_.at(static_cast<size_t>(shard));
  Replica& r = s.chain.at(static_cast<size_t>(replica));
  // Sync source: the last serving replica other than the one recovering.
  int peer = -1;
  for (int i = static_cast<int>(s.chain.size()) - 1; i >= 0; --i) {
    if (i != replica && ReplicaServing(s, shard, i)) {
      peer = i;
      break;
    }
  }
  if (peer < 0) {
    return;  // whole shard lost: nothing to re-sync from
  }
  const FingerprintRegistry& source = s.chain[static_cast<size_t>(peer)].registry;
  // The state transfer is one kReplicaSync message sized by the table
  // (entry count ~ transfer size). An undeliverable transfer (recovering
  // replica still partitioned) leaves the replica untouched.
  const auto sent = transport_->Send(MessageType::kReplicaSync, ReplicaNode(shard, peer),
                                     ReplicaNode(shard, replica),
                                     static_cast<uint64_t>(source.stats().num_entries) *
                                         kRegistryWireBytesPerKey,
                                     1);
  if (!sent.delivered) {
    return;
  }
  r.registry = source;  // state transfer
  r.alive = true;
  replica_syncs_.Add();
}

}  // namespace medes
