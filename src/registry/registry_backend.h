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

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "chunking/fingerprint.h"
#include "common/time.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace medes {

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

// One page's (location -> matched-chunk count) tally: a flat vector with a
// linear find. A page has a handful of sampled chunks and each chunk key
// holds at most `max_locations_per_key` locations, so the vector stays small
// and a scan beats hashing.
struct CandidateTally {
  std::vector<BasePageCandidate> entries;

  void Add(const PageLocation& location) {
    for (BasePageCandidate& entry : entries) {
      if (entry.location == location) {
        ++entry.overlap;
        return;
      }
    }
    entries.push_back({location, 1});
  }
};

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

  // The one lookup path. Returns ranked base-page candidates for each
  // fingerprint, positionally aligned with the input: max sampled-chunk
  // overlap first, then pages local to `local_node`, then lowest (sandbox,
  // page); at most `max_results` each. `exclude_sandbox` skips the querying
  // sandbox's own pages. When `lookup_cost` is non-null the modelled latency
  // of serving the whole batch (its transport messages plus per-key registry
  // work) is added to it, so callers charge the registry's real
  // topology-dependent cost rather than a flat constant. The cost is a pure
  // function of the batch's contents (never of thread interleaving),
  // preserving the pipeline determinism contract. `trace`, when sampled,
  // parents the lookup's wire-message spans and the registry-side work span.
  // Lookups, key hits, batches and batch cost are counted here, once.
  [[nodiscard]] std::vector<std::vector<BasePageCandidate>> FindBasePagesBatch(
      std::span<const PageFingerprint> fingerprints, NodeId local_node,
      SandboxId exclude_sandbox, size_t max_results, SimDuration* lookup_cost = nullptr,
      const obs::MessageTrace& trace = {});

  // Convenience: the single best candidate (a batch of one).
  [[nodiscard]] std::optional<BasePageCandidate> FindBasePage(const PageFingerprint& fingerprint,
                                                              NodeId local_node,
                                                              SandboxId exclude_sandbox = {});

  // Base-sandbox refcounts (a base's memory is pinned while > 0).
  virtual void Ref(SandboxId base_sandbox) = 0;
  virtual void Unref(SandboxId base_sandbox) = 0;
  [[nodiscard]] virtual int RefCount(SandboxId base_sandbox) const = 0;

  [[nodiscard]] virtual RegistryStats stats() const = 0;

 protected:
  // Insert and removal series, counted once per logical operation by the
  // backend that serves it (a DistributedRegistry counts them itself; its
  // replica registries never do).
  obs::Counter& inserts_ = obs::MetricsRegistry::Default().GetCounter(
      "medes_registry_inserts_total", "Base-sandbox fingerprint inserts");
  obs::Counter& insert_keys_ = obs::MetricsRegistry::Default().GetCounter(
      "medes_registry_insert_keys_total", "Chunk keys carried by base-sandbox inserts");
  obs::Counter& removes_ = obs::MetricsRegistry::Default().GetCounter(
      "medes_registry_removes_total", "Base sandboxes removed from the registry");

  // Page lookups and chunk-key hits, read back by stats().
  obs::StatCounter lookups_{"medes_registry_lookups_total",
                            "Per-page fingerprint lookups against the registry"};
  std::atomic<uint64_t> key_hits_{0};

 private:
  // The backend's half of FindBasePagesBatch: adds each fingerprint's
  // (location -> overlap) counts into `tallies[i]`, adds the batch's
  // modelled cost into `cost`, and returns the number of chunk keys found.
  // A lookup the backend cannot serve (a dropped message, a shard with no
  // serving replica) leaves its tallies empty: missing a candidate is
  // always safe.
  virtual uint64_t TallyBatch(std::span<const PageFingerprint> fingerprints, NodeId local_node,
                              SandboxId exclude_sandbox, std::span<CandidateTally> tallies,
                              SimDuration& cost, const obs::MessageTrace& trace) = 0;

  obs::Counter& lookup_batches_ = obs::MetricsRegistry::Default().GetCounter(
      "medes_registry_lookup_batches_total", "Batched lookup round trips to the registry");
  obs::Histogram& batch_cost_us_ = obs::MetricsRegistry::Default().GetHistogram(
      "medes_registry_batch_cost_us", "Modelled cost of one batched lookup (us)");
};

}  // namespace medes

#endif  // MEDES_REGISTRY_REGISTRY_BACKEND_H_
