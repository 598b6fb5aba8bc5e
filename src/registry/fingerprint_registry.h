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
// Concurrency: one table, one per-sandbox reverse index and one refcount map,
// all behind a single reader/writer lock. The only concurrent access is the
// parallel dedup pipeline's read-only lookup stage (paper Section 7.7: the
// lookups "can be parallelized given they are independent"), and readers
// share the lock; every write (insert, removal, Ref/Unref) runs on the
// platform's single event loop. The reverse index records which keys a base
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
  // Controller-side lookup cost per page (paper Section 7.7 reports ~80 us
  // per page in their single-threaded implementation). Charged by the
  // cost-aware FindBasePagesBatch on top of any transport message cost.
  SimDuration lookup_per_page{80};
};

class FingerprintRegistry : public RegistryBackend {
 public:
  explicit FingerprintRegistry(RegistryOptions options = {});

  // Deep copies of the table state (a fresh lock; the destination keeps its
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

  void Ref(SandboxId base_sandbox) override;
  void Unref(SandboxId base_sandbox) override;
  [[nodiscard]] int RefCount(SandboxId base_sandbox) const override;

  [[nodiscard]] RegistryStats stats() const override;
  size_t NumBaseSandboxes() const;

 private:
  // A DistributedRegistry drives its replicas through the table-only
  // operations below, so a replicated write or a shard lookup is counted
  // once, by the distributed registry, and never by a replica.
  friend class DistributedRegistry;

  // The centralized lookup: one kRegistryLookup message for the batch (when
  // a transport is bound) plus `lookup_per_page` per page, then TallyShards.
  uint64_t TallyBatch(std::span<const PageFingerprint> fingerprints, NodeId local_node,
                      SandboxId exclude_sandbox, std::span<CandidateTally> tallies,
                      SimDuration& cost, const obs::MessageTrace& trace) override;

  // The one loop that reads the table for lookups: takes the lock once,
  // probes the batch's chunk keys in fingerprint order, adds fingerprint i's
  // matches into `tallies[i]`, and returns the number of keys found. Counts
  // nothing.
  uint64_t TallyShards(std::span<const PageFingerprint> fingerprints, SandboxId exclude_sandbox,
                       std::span<CandidateTally> tallies) const;
  // Table-only insert and removal: no transport or counting.
  void AddEntries(NodeId node, SandboxId sandbox, std::span<const PageFingerprint> fingerprints);
  void RemoveEntries(SandboxId sandbox);

  // The destination must be quiescent; the source may be serving concurrent
  // readers. Never holds a source and a destination lock at once (both carry
  // the same rank).
  void CopyFrom(const FingerprintRegistry& other);

  RegistryOptions options_;

  mutable SharedMutex mu_{"registry table", LockRank::kRegistryTable};
  std::unordered_map<uint64_t, std::vector<PageLocation>> table_ GUARDED_BY(mu_);
  // Reverse index: keys under which each base sandbox holds locations (a key
  // appears once per location inserted).
  std::unordered_map<SandboxId, std::vector<uint64_t>> keys_by_sandbox_ GUARDED_BY(mu_);
  // Membership and refcounts of the registered base sandboxes.
  std::unordered_map<SandboxId, int> base_refcounts_ GUARDED_BY(mu_);

  // Optional shared transport (see BindTransport). Not copied: a replica
  // clone is table state, not a network endpoint.
  std::shared_ptr<Transport> transport_;
  NodeId registry_node_ = kInvalidNode;
};

}  // namespace medes

#endif  // MEDES_REGISTRY_FINGERPRINT_REGISTRY_H_
