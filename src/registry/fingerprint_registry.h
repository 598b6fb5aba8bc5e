// The centralized global fingerprint registry (controller component).
//
// Maps truncated chunk-hash keys (RSC identities) to the cluster locations of
// pages that contain them. Only *base sandboxes* are inserted (paper
// Section 4.1.3) to keep the registry's footprint proportional to the number
// of base sandboxes rather than all sandboxes. Lookups take a page
// fingerprint and return ranked base-page candidates: pages sharing the most
// sampled chunks first, ties broken in favour of pages local to the
// requesting node (saves an RDMA read at restore).
//
// Concurrency: the table is split into `num_shards` shards keyed by chunk
// key, each guarded by its own reader/writer lock, so the parallel dedup
// pipeline's per-page lookups proceed without contending on one global lock
// (paper Section 7.7 notes lookups "can be parallelized given they are
// independent"). Sandbox-level state (refcounts, membership) sits behind a
// separate lock. A per-sandbox reverse index records which keys a base
// sandbox owns entries under, making RemoveBaseSandbox O(keys owned) instead
// of a full-table scan.
#ifndef MEDES_REGISTRY_FINGERPRINT_REGISTRY_H_
#define MEDES_REGISTRY_FINGERPRINT_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "net/transport.h"
#include "registry/registry_backend.h"

namespace medes {

struct RegistryOptions {
  // Cap on locations tracked per chunk key — popular chunks (e.g. common
  // interpreter structures) would otherwise accumulate unbounded lists.
  size_t max_locations_per_key = 8;
  // Lock stripes. Rounded up to a power of two; 1 = a single-lock table
  // (useful inside DistributedRegistry replicas, which shard externally).
  size_t num_shards = 16;
  // Controller-side lookup cost per page (paper Section 7.7 reports ~80 us
  // per page in their single-threaded implementation). Charged by the
  // cost-aware FindBasePagesBatch on top of any transport message cost.
  SimDuration lookup_per_page{80};
};

class FingerprintRegistry : public RegistryBackend {
 public:
  explicit FingerprintRegistry(RegistryOptions options = {});

  // Deep copies of the table state (fresh locks; the destination keeps its
  // own lookup counters). Used by chain-replication re-sync; the source may
  // be serving concurrent readers, the destination must be quiescent.
  FingerprintRegistry(const FingerprintRegistry& other);
  FingerprintRegistry& operator=(const FingerprintRegistry& other);

  void InsertBaseSandbox(NodeId node, SandboxId sandbox,
                         const std::vector<PageFingerprint>& fingerprints,
                         const obs::MessageTrace& trace = {}) override;

  // Removes every entry belonging to `sandbox` via the reverse index:
  // O(keys the sandbox owns), not O(table size).
  void RemoveBaseSandbox(SandboxId sandbox) override;

  [[nodiscard]] bool IsBaseSandbox(SandboxId sandbox) const override;

  // Binds the shared cluster transport: lookups/inserts from node N are
  // charged as messages N -> `registry_node`. Configuration-time only (not
  // thread-safe against concurrent operations); unbound registries charge
  // pure controller CPU cost with no wire component.
  void BindTransport(std::shared_ptr<Transport> transport, NodeId registry_node);

  // Binds the durability/tiering seam: inserts append a fingerprint record
  // (after the transport delivery check — a lost insert is not durable
  // state), removals append an invalidation. Configuration-time only.
  void BindStateStore(std::shared_ptr<store::StateStore> store) override;

  void Ref(SandboxId base_sandbox) override;
  void Unref(SandboxId base_sandbox) override;
  [[nodiscard]] int RefCount(SandboxId base_sandbox) const override;

  [[nodiscard]] RegistryStats stats() const override;
  size_t NumBaseSandboxes() const;
  size_t NumShards() const { return shards_.size(); }

 private:
  // A DistributedRegistry drives its replicas through the table-only
  // operations below, so a replicated write or a shard lookup is counted
  // once, by the distributed registry, and never by a replica.
  friend class DistributedRegistry;

  struct Shard {
    mutable SharedMutex mu{"registry shard", LockRank::kRegistryShard};
    std::unordered_map<uint64_t, std::vector<PageLocation>> table GUARDED_BY(mu);
    // Reverse index: keys under which each base sandbox holds locations in
    // this shard (a key appears once per location inserted).
    std::unordered_map<SandboxId, std::vector<uint64_t>> keys_by_sandbox GUARDED_BY(mu);
  };

  // The centralized lookup: one kRegistryLookup message for the batch (when
  // a transport is bound) plus `lookup_per_page` per page, then TallyShards.
  uint64_t TallyBatch(std::span<const PageFingerprint> fingerprints, NodeId local_node,
                      SandboxId exclude_sandbox, std::span<CandidateTally> tallies,
                      SimDuration& cost, const obs::MessageTrace& trace) override;

  // The one loop that reads shard tables for lookups: groups the batch's
  // chunk keys by owning shard so each shard's lock is taken once per batch,
  // adds fingerprint i's matches into `tallies[i]`, and returns the number
  // of keys found. Counts nothing.
  uint64_t TallyShards(std::span<const PageFingerprint> fingerprints, SandboxId exclude_sandbox,
                       std::span<CandidateTally> tallies) const;
  // Table-only insert and removal: no transport, counting or durable record.
  void AddEntries(NodeId node, SandboxId sandbox, std::span<const PageFingerprint> fingerprints);
  void RemoveEntries(SandboxId sandbox);

  Shard& ShardFor(uint64_t key) { return *shards_[ShardIndex(key)]; }
  size_t ShardIndex(uint64_t key) const;
  // (Re)creates the empty stripes `options_.num_shards` asks for.
  void ResetShards();
  // Destination shards/refcounts must be quiescent; the source may be serving
  // concurrent readers. Never holds a source and a destination lock at once
  // (both carry the same rank).
  void CopyFrom(const FingerprintRegistry& other);

  RegistryOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;  // size is a power of two

  // Optional shared transport (see BindTransport). Not copied: a replica
  // clone is table state, not a network endpoint.
  std::shared_ptr<Transport> transport_;
  NodeId registry_node_ = kInvalidNode;

  // Optional durability seam (see BindStateStore). Not copied either: only
  // the authoritative top-level registry logs records, never replica clones.
  std::shared_ptr<store::StateStore> store_;

  // Sandbox-level state: membership + refcounts (the sandbox-level reverse
  // index). Ordered after the shard locks in the global hierarchy.
  mutable SharedMutex sandbox_mu_{"registry sandbox index", LockRank::kRegistrySandbox};
  std::unordered_map<SandboxId, int> base_refcounts_ GUARDED_BY(sandbox_mu_);
};

}  // namespace medes

#endif  // MEDES_REGISTRY_FINGERPRINT_REGISTRY_H_
