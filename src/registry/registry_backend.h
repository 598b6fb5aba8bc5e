// Abstract interface over the fingerprint registry.
//
// Section 4.3 of the paper notes the Medes controller can be distributed
// "along the same lines as prior centralized serverless controllers":
// registry accesses are independent per-page lookups, so the table shards by
// chunk key, with chain replication for fault tolerance. Two backends
// implement this interface: the centralized FingerprintRegistry and the
// sharded, replicated DistributedRegistry.
#ifndef MEDES_REGISTRY_REGISTRY_BACKEND_H_
#define MEDES_REGISTRY_REGISTRY_BACKEND_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "chunking/fingerprint.h"
#include "common/time.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace medes {

namespace store {
class StateStore;
}  // namespace store

// Modelled wire size of one sampled-chunk key in a registry message
// (truncated key + page-location answer, round trip).
inline constexpr Bytes kRegistryWireBytesPerKey{24};

struct PageLocation {
  NodeId node = kInvalidNode;
  SandboxId sandbox;
  PageIndex page_index;

  bool operator==(const PageLocation&) const = default;
};

struct PageLocationHash {
  size_t operator()(const PageLocation& loc) const {
    uint64_t h = static_cast<uint64_t>(loc.node.value()) * 0x9e3779b97f4a7c15ull;
    h ^= loc.sandbox.value() + 0x517cc1b727220a95ull + (h << 6);
    h ^= static_cast<uint64_t>(loc.page_index.value()) * 0xff51afd7ed558ccdull + (h >> 3);
    return static_cast<size_t>(h);
  }
};

struct BasePageCandidate {
  PageLocation location;
  int overlap = 0;  // sampled chunks in common with the queried page
};

struct RegistryStats {
  size_t num_keys = 0;
  size_t num_entries = 0;
  size_t num_base_sandboxes = 0;
  uint64_t lookups = 0;
  uint64_t key_hits = 0;
  // Approximate bytes of controller memory held by the table.
  size_t ApproxMemoryBytes() const {
    return num_keys * 24 + num_entries * sizeof(PageLocation) + num_keys * 16;
  }
};

// Ranks a (location -> overlap) tally: max overlap first, local-node pages
// preferred on ties, then lowest (sandbox, page) for determinism. Shared by
// the centralized registry and the distributed shard-merge path.
[[nodiscard]] inline std::vector<BasePageCandidate> RankCandidates(
    const std::unordered_map<PageLocation, int, PageLocationHash>& tally, NodeId local_node,
    size_t max_results) {
  std::vector<BasePageCandidate> ranked;
  ranked.reserve(tally.size());
  for (const auto& [loc, overlap] : tally) {
    ranked.push_back({loc, overlap});
  }
  std::sort(ranked.begin(), ranked.end(),
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
  if (ranked.size() > max_results) {
    ranked.resize(max_results);
  }
  return ranked;
}

class RegistryBackend {
 public:
  virtual ~RegistryBackend() = default;

  // Registers all pages of a base sandbox. `fingerprints[i]` describes page i.
  // `trace`, when sampled, parents the insert's wire-message spans (backends
  // with a transport fold their shard index into the trace ordinal).
  virtual void InsertBaseSandbox(NodeId node, SandboxId sandbox,
                                 const std::vector<PageFingerprint>& fingerprints,
                                 const obs::MessageTrace& trace = {}) = 0;

  // Removes every entry belonging to `sandbox`.
  virtual void RemoveBaseSandbox(SandboxId sandbox) = 0;

  [[nodiscard]] virtual bool IsBaseSandbox(SandboxId sandbox) const = 0;

  // Ranked base-page candidates for the queried fingerprint (max
  // sampled-chunk overlap first, local-node tie-break), at most
  // `max_results`. `exclude_sandbox` skips the querying sandbox's own pages.
  [[nodiscard]] virtual std::vector<BasePageCandidate> FindBasePages(const PageFingerprint& fingerprint,
                                                       NodeId local_node,
                                                       SandboxId exclude_sandbox,
                                                       size_t max_results) = 0;

  // Batched lookup for the pipelined dedup path: one result vector per
  // fingerprint, positionally aligned with the input and identical to
  // calling FindBasePages per element. Backends override this to amortise
  // locking/routing across the batch. When `lookup_cost` is non-null the
  // backend adds the modelled latency of serving the whole batch — its
  // transport messages plus per-key registry work — so callers charge the
  // registry's real topology-dependent cost rather than a flat constant.
  // The added cost is a pure function of the batch's contents (never of
  // thread interleaving), preserving the pipeline determinism contract.
  // `trace`, when sampled, parents the lookup's wire-message spans and the
  // registry-side work span.
  [[nodiscard]] virtual std::vector<std::vector<BasePageCandidate>> FindBasePagesBatch(
      std::span<const PageFingerprint> fingerprints, NodeId local_node,
      SandboxId exclude_sandbox, size_t max_results, SimDuration* lookup_cost,
      const obs::MessageTrace& trace = {}) {
    (void)lookup_cost;  // backends without a wire model charge nothing
    (void)trace;
    std::vector<std::vector<BasePageCandidate>> results;
    results.reserve(fingerprints.size());
    for (const PageFingerprint& fp : fingerprints) {
      results.push_back(FindBasePages(fp, local_node, exclude_sandbox, max_results));
    }
    return results;
  }

  // Convenience overload for callers that do not consume the cost.
  [[nodiscard]] std::vector<std::vector<BasePageCandidate>> FindBasePagesBatch(
      std::span<const PageFingerprint> fingerprints, NodeId local_node,
      SandboxId exclude_sandbox, size_t max_results) {
    return FindBasePagesBatch(fingerprints, local_node, exclude_sandbox, max_results, nullptr);
  }

  // Convenience: the single best candidate.
  [[nodiscard]] std::optional<BasePageCandidate> FindBasePage(const PageFingerprint& fingerprint,
                                                              NodeId local_node,
                                                              SandboxId exclude_sandbox = {}) {
    auto candidates = FindBasePages(fingerprint, local_node, exclude_sandbox, 1);
    if (candidates.empty()) {
      return std::nullopt;
    }
    return candidates.front();
  }

  // Base-sandbox refcounts (a base's memory is pinned while > 0).
  virtual void Ref(SandboxId base_sandbox) = 0;
  virtual void Unref(SandboxId base_sandbox) = 0;
  [[nodiscard]] virtual int RefCount(SandboxId base_sandbox) const = 0;

  // Binds the durability/tiering seam (src/store). Bound backends mirror
  // every insert/removal into the store as an append record; unbound
  // backends (the default) behave exactly as before the seam existed.
  // Configuration-time only, like BindTransport.
  virtual void BindStateStore(std::shared_ptr<store::StateStore> store) { (void)store; }

  [[nodiscard]] virtual RegistryStats stats() const = 0;

 protected:
  // Page lookups and chunk-key hits, counted once by the backend that
  // answers the lookup (a DistributedRegistry counts them itself; its
  // replica registries never do), and read back by stats().
  obs::StatCounter lookups_{"medes_registry_lookups_total",
                            "Per-page fingerprint lookups against the registry"};
  std::atomic<uint64_t> key_hits_{0};
};

}  // namespace medes

#endif  // MEDES_REGISTRY_REGISTRY_BACKEND_H_
