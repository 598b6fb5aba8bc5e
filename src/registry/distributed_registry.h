// Sharded, chain-replicated fingerprint registry (paper Section 4.3).
//
// "Accesses to the fingerprint registry are independent lookups for each
//  page ... these components can be distributed using conventional
//  techniques for sharding or key-based partitioning along with chain
//  replication (for fault tolerance)."
//
// Chunk keys are hash-partitioned across `num_shards` shards; each shard is
// a chain of `replication_factor` replicas of the centralized registry.
// Writes enter at the chain head and propagate down; reads are served by the
// chain *tail* (the point at which writes are fully replicated — the classic
// chain-replication read rule, van Renesse & Schneider, OSDI'04). When the
// tail fails, the preceding live replica becomes the effective tail; a shard
// only becomes unavailable when every replica is down (lookups then miss and
// writes to that shard are dropped — callers degrade gracefully to fewer
// dedup candidates). Recovering a replica re-syncs it from a live peer.
//
// A page fingerprint's K sampled chunks can map to different shards, so a
// page lookup fans out to every shard owning one of its keys and merges the
// per-shard tallies — mirroring the paper's observation that per-page
// lookups parallelise naturally.
//
// Wire model: every replica occupies a Transport node
// (`first_registry_node + shard * replication_factor + replica`), and every
// lookup/insert is a typed transport message to the serving replica — so
// shard latency, batching, and fault injection (node partitions via
// FaultPolicy) all compose with the rest of the cluster's network model. A
// replica is *serving* only when its `alive` flag is set and its transport
// node is not partitioned; a partitioned replica may miss writes and must be
// re-synced (RecoverReplica) after it heals.
#ifndef MEDES_REGISTRY_DISTRIBUTED_REGISTRY_H_
#define MEDES_REGISTRY_DISTRIBUTED_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/time.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "registry/fingerprint_registry.h"
#include "registry/registry_backend.h"

namespace medes {

struct DistributedRegistryOptions {
  int num_shards = 4;
  int replication_factor = 3;
  // Per-key lookup work at the serving shard (controller CPU, not wire).
  SimDuration per_key_lookup{15};  // us
  // Transport node id of shard 0's chain head; replica (s, r) occupies node
  // first_registry_node + s * replication_factor + r. Defaults far above any
  // worker node id; the platform assigns a contiguous range.
  NodeId first_registry_node{1000};
  RegistryOptions per_shard;
};

struct DistributedRegistryStats {
  std::vector<uint64_t> lookups_per_shard;
  std::vector<uint64_t> writes_per_shard;
  uint64_t unavailable_lookups = 0;  // key lookups that hit an all-down shard
  uint64_t dropped_writes = 0;       // inserts that hit an all-down shard
  uint64_t failovers = 0;            // tail reads served by a non-tail replica
};

class DistributedRegistry : public RegistryBackend {
 public:
  // `transport` is the shared cluster transport; when omitted the registry
  // builds a private one with default links, so the wire model (and its
  // stats) exist even standalone.
  explicit DistributedRegistry(DistributedRegistryOptions options = DistributedRegistryOptions{},
                               std::shared_ptr<Transport> transport = nullptr);

  void InsertBaseSandbox(NodeId node, SandboxId sandbox,
                         const std::vector<PageFingerprint>& fingerprints,
                         const obs::MessageTrace& trace = {}) override;
  void RemoveBaseSandbox(SandboxId sandbox) override;
  [[nodiscard]] bool IsBaseSandbox(SandboxId sandbox) const override;

  void Ref(SandboxId base_sandbox) override;
  void Unref(SandboxId base_sandbox) override;
  [[nodiscard]] int RefCount(SandboxId base_sandbox) const override;

  // Table sizes aggregated across shard tails; lookups and key hits as
  // FindBasePagesBatch counted them, once per logical lookup (equal to a
  // centralized registry's for the same fault-free calls, and kept across
  // replica failure and recovery).
  [[nodiscard]] RegistryStats stats() const override;
  // The sharding and fault counters. Read at a quiescent point for exact
  // totals.
  DistributedRegistryStats distributed_stats() const;

  // Modelled latency of one page lookup of `keys` sampled chunks from node
  // `from`, assuming the per-shard lookups proceed in parallel: the critical
  // path is the most loaded shard — ceil(keys / num_shards) key lookups plus
  // one transport round trip carrying those keys.
  [[nodiscard]] SimDuration PageLookupLatency(size_t keys, NodeId from = NodeId{0}) const;

  // The shared (or private) transport this registry charges.
  const std::shared_ptr<Transport>& transport() const { return transport_; }

  // Transport node id of replica (shard, replica).
  NodeId ReplicaNode(int shard, int replica) const {
    return NodeId{options_.first_registry_node.value() + shard * options_.replication_factor +
                  replica};
  }

  // ---- Fault injection --------------------------------------------------
  void FailReplica(int shard, int replica) EXCLUDES(topology_mu_);
  // Recovers a replica by re-syncing its state from the shard's effective
  // tail (no-op if no other replica is serving — there is nothing to sync
  // from). Also heals *stale* replicas: calling it on a live replica that
  // missed writes while partitioned re-copies the authoritative state and
  // charges a kReplicaSync transfer.
  void RecoverReplica(int shard, int replica) EXCLUDES(topology_mu_);
  bool ShardAvailable(int shard) const EXCLUDES(topology_mu_);
  int NumShards() const { return options_.num_shards; }
  int ReplicationFactor() const { return options_.replication_factor; }

  // Shard that owns a chunk key (exposed for tests).
  int ShardOf(uint64_t key) const;

 private:
  // Batched lookup: one kRegistryLookup message per touched shard carrying
  // the batch's keys for that shard, tallied by the shard's serving tail.
  // The modelled cost is the slowest shard (message + per-key work) — shards
  // are queried in parallel (Section 7.7: lookups "can be parallelized given
  // they are independent").
  uint64_t TallyBatch(std::span<const PageFingerprint> fingerprints, NodeId local_node,
                      SandboxId exclude_sandbox, std::span<CandidateTally> tallies,
                      SimDuration& cost, const obs::MessageTrace& trace) override;

  // Each page's sampled chunks split by owning shard: `pages[s][i]` holds
  // the chunks of page i that shard s owns (positions kept, so page indexes
  // and tally slots line up across shards); `keys[s]` counts them. Inserts
  // and lookups route through the same partition.
  struct ShardPartition {
    std::vector<std::vector<PageFingerprint>> pages;
    std::vector<size_t> keys;
  };
  ShardPartition PartitionByShard(std::span<const PageFingerprint> fingerprints) const;

  struct Replica {
    FingerprintRegistry registry;
    bool alive = true;
  };

  struct Shard {
    std::vector<Replica> chain;  // head first, tail last
  };

  // True when replica (shard, r) is serving: alive and not partitioned off
  // the transport.
  bool ReplicaServing(const Shard& shard, int shard_index, int r) const
      REQUIRES_SHARED(topology_mu_);
  // Index of the effective tail (last serving replica) or -1 if none.
  int EffectiveTail(const Shard& shard, int shard_index) const REQUIRES_SHARED(topology_mu_);

  DistributedRegistryOptions options_;
  std::shared_ptr<Transport> transport_;

  // Chain topology: the shard vector's structure and every replica's `alive`
  // flag. Reads (routing a request, walking a chain) hold the shared lock;
  // fault injection and recovery hold it exclusively. Replica *contents*
  // (FingerprintRegistry state) are protected by each registry's own
  // higher-ranked locks, so holding the topology lock across a replica call
  // respects the lock hierarchy (transport sends likewise acquire only
  // higher-ranked locks).
  mutable SharedMutex topology_mu_{"registry topology", LockRank::kRegistryTopology};
  std::vector<Shard> shards_ GUARDED_BY(topology_mu_);

  // Sandbox-level state (refcounts, membership) is sharded by sandbox id.
  int SandboxShard(SandboxId sandbox) const;

  std::vector<std::atomic<uint64_t>> lookups_per_shard_;
  std::vector<std::atomic<uint64_t>> writes_per_shard_;
  obs::StatCounter unavailable_lookups_{
      "medes_distregistry_unavailable_lookups_total",
      "Page lookups degraded to empty because a shard had no serving replica"};
  obs::StatCounter dropped_writes_{"medes_distregistry_dropped_writes_total",
                                   "Per-shard insert writes lost to partitions or drops"};
  obs::StatCounter failovers_{"medes_distregistry_failovers_total",
                              "Page lookups served by a non-tail replica after a failover"};
  obs::Counter& replica_syncs_ = obs::MetricsRegistry::Default().GetCounter(
      "medes_distregistry_replica_syncs_total", "Completed replica recovery state transfers");
};

}  // namespace medes

#endif  // MEDES_REGISTRY_DISTRIBUTED_REGISTRY_H_
