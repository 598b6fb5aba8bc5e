// The global fingerprint registry (controller component).
//
// Maps truncated chunk-hash keys (RSC identities) to the cluster locations of
// pages that contain them. Only *base sandboxes* are inserted (paper
// Section 4.1.3) to keep the registry's footprint proportional to the number
// of base sandboxes rather than all sandboxes. Lookups take a page
// fingerprint and return ranked base-page candidates: pages sharing the most
// sampled chunks first, ties broken in favour of pages local to the
// requesting node (saves an RDMA read at restore). The registry lives with
// the controller (paper Section 4); bound to the cluster transport, its
// lookups and inserts are charged as messages to the controller's node.
//
// Layout: a power-of-two open-addressed key table over one flat array of
// entries sorted by key. Each key's slot names its run of entries, in
// insertion order; an entry holds a location id, an index into one array of
// the distinct locations, so a lookup counts a page's matches by id. The
// table is read far more than written (a 5-node Medes P2 cluster holds
// about 3k keys and 4.2k entries over 854 locations, 89% of keys with one
// location, against about 115k page lookups per ten base inserts), so an
// insert merges its entries into the arrays and refills the key table, a
// removal rebuilds both, and a lookup is one probe plus a contiguous read
// per sampled chunk.
//
// Concurrency: the table and one refcount map sit behind a single
// reader/writer lock. The only concurrent access is the parallel dedup
// pipeline's read-only lookup stage (paper Section 7.7: the lookups "can be
// parallelized given they are independent"), and readers share the lock;
// every write (insert, removal, Ref/Unref) runs on the platform's single
// event loop.
#ifndef MEDES_REGISTRY_FINGERPRINT_REGISTRY_H_
#define MEDES_REGISTRY_FINGERPRINT_REGISTRY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "chunking/fingerprint.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "common/time.h"
#include "common/types.h"
#include "net/transport.h"
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
  // Modelled controller memory: a hash-map registry's layout (40 bytes of
  // node and bucket per key plus one PageLocation per entry). It is not the
  // heap of this process's table (see DESIGN.md).
  size_t ApproxMemoryBytes() const {
    return num_keys * 24 + num_entries * sizeof(PageLocation) + num_keys * 16;
  }
};

struct RegistryOptions {
  // Cap on locations tracked per chunk key — popular chunks (e.g. common
  // interpreter structures) would otherwise accumulate unbounded lists.
  // Must be at least 1.
  size_t max_locations_per_key = 8;
  // Controller-side lookup cost per page (paper Section 7.7 reports ~80 us
  // per page in their single-threaded implementation). Charged by the
  // cost-aware FindBasePagesBatch on top of any transport message cost.
  SimDuration lookup_per_page{80};
};

class FingerprintRegistry {
 public:
  // Throws std::invalid_argument when options.max_locations_per_key is 0.
  explicit FingerprintRegistry(RegistryOptions options = {});

  // Deep copy of the table state: a fresh lock, no transport binding, and
  // lookup counters that start at zero. The source may be serving
  // concurrent readers. medes_perfbench copies a populated registry for its
  // traced stage-by-stage pass.
  FingerprintRegistry(const FingerprintRegistry& other);
  FingerprintRegistry& operator=(const FingerprintRegistry&) = delete;

  // Registers all pages of a base sandbox. `fingerprints[i]` describes page
  // i. A sandbox is inserted at most once between removals (the platform
  // designates a base once). `trace`, when sampled, parents the insert's
  // wire-message span.
  void InsertBaseSandbox(NodeId node, SandboxId sandbox,
                         const std::vector<PageFingerprint>& fingerprints,
                         const obs::MessageTrace& trace = {});

  // Removes every entry belonging to `sandbox` (a rebuild of the table).
  void RemoveBaseSandbox(SandboxId sandbox);

  [[nodiscard]] bool IsBaseSandbox(SandboxId sandbox) const;

  // Binds the shared cluster transport: lookups/inserts from node N are
  // charged as messages N -> `registry_node`. Configuration-time only (not
  // thread-safe against concurrent operations); unbound registries charge
  // pure controller CPU cost with no wire component.
  void BindTransport(std::shared_ptr<Transport> transport, NodeId registry_node);

  // The one lookup path. Returns ranked base-page candidates for each
  // fingerprint, positionally aligned with the input: max sampled-chunk
  // overlap first, then pages local to `local_node`, then lowest (sandbox,
  // page); at most `max_results` each. `exclude_sandbox` skips the querying
  // sandbox's own pages. When `lookup_cost` is non-null the modelled latency
  // of serving the whole batch (its transport message plus `lookup_per_page`
  // per page) is added to it. The cost is a pure function of the batch's
  // contents (never of thread interleaving), preserving the pipeline
  // determinism contract. `trace`, when sampled, parents the lookup's
  // wire-message span and the registry-side work span.
  [[nodiscard]] std::vector<std::vector<BasePageCandidate>> FindBasePagesBatch(
      std::span<const PageFingerprint> fingerprints, NodeId local_node,
      SandboxId exclude_sandbox, size_t max_results, SimDuration* lookup_cost = nullptr,
      const obs::MessageTrace& trace = {});

  // Convenience: the single best candidate (a batch of one).
  [[nodiscard]] std::optional<BasePageCandidate> FindBasePage(const PageFingerprint& fingerprint,
                                                              NodeId local_node,
                                                              SandboxId exclude_sandbox = {});

  // Base-sandbox refcounts (a base's memory is pinned while > 0).
  void Ref(SandboxId base_sandbox);
  void Unref(SandboxId base_sandbox);
  [[nodiscard]] int RefCount(SandboxId base_sandbox) const;

  [[nodiscard]] RegistryStats stats() const;
  size_t NumBaseSandboxes() const;

 private:
  // A location, by id, under its chunk key.
  struct Entry {
    uint64_t key;
    uint32_t id;
  };
  // One chunk key's run of entries_: [begin, begin + count). A slot with
  // begin == kEmptySlot holds no key.
  struct KeySlot {
    uint64_t key = 0;
    uint32_t begin = kEmptySlot;
    uint32_t count = 0;
  };
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  // FindBasePagesBatch's serving half: one kRegistryLookup message for the
  // batch (when a transport is bound) plus `lookup_per_page` per page added
  // into `cost`; then tallies each fingerprint's matches under one reader
  // lock and, once it is released, ranks them into `results[i]`. Returns
  // the number of keys found. A dropped lookup message leaves every result
  // empty: missing a candidate is always safe.
  uint64_t LookUpBatch(std::span<const PageFingerprint> fingerprints, NodeId local_node,
                       SandboxId exclude_sandbox, size_t max_results,
                       std::span<std::vector<BasePageCandidate>> results, SimDuration& cost,
                       const obs::MessageTrace& trace);

  // The slot a key's probe starts at in a table of 2^slot_bits slots: the
  // top slot_bits bits of a multiplicative hash, so small or clustered keys
  // spread too.
  static size_t Home(uint64_t key, unsigned slot_bits);
  // Replaces the table with `entries`, sorted by key and within the
  // per-key cap, whose ids index `locations`; ids are renumbered.
  void Rebuild(std::span<const Entry> entries, std::span<const PageLocation> locations)
      REQUIRES(mu_);
  // Refills the key table from entries_, which holds `keys` distinct keys.
  void IndexKeys(size_t keys) REQUIRES(mu_);

  RegistryOptions options_;

  mutable SharedMutex mu_;
  // The key table: 2^slot_bits_ slots, at most half full, linear probing.
  std::vector<KeySlot> slots_ GUARDED_BY(mu_);
  unsigned slot_bits_ GUARDED_BY(mu_) = 0;
  // Every key's location ids, sorted by key, each key's run in insertion
  // order; locations_[id] is the location behind an id.
  std::vector<Entry> entries_ GUARDED_BY(mu_);
  std::vector<PageLocation> locations_ GUARDED_BY(mu_);
  size_t num_keys_ GUARDED_BY(mu_) = 0;
  // Membership and refcounts of the registered base sandboxes.
  std::unordered_map<SandboxId, int> base_refcounts_ GUARDED_BY(mu_);

  // Optional shared transport (see BindTransport).
  std::shared_ptr<Transport> transport_;
  NodeId registry_node_ = kInvalidNode;

  // Insert, removal and lookup series.
  obs::Counter& inserts_ = obs::MetricsRegistry::Default().GetCounter(
      "medes_registry_inserts_total");
  obs::Counter& insert_keys_ = obs::MetricsRegistry::Default().GetCounter(
      "medes_registry_insert_keys_total");
  obs::Counter& removes_ = obs::MetricsRegistry::Default().GetCounter(
      "medes_registry_removes_total");
  obs::Counter& lookup_batches_ = obs::MetricsRegistry::Default().GetCounter(
      "medes_registry_lookup_batches_total");
  obs::Histogram& batch_cost_us_ = obs::MetricsRegistry::Default().GetHistogram(
      "medes_registry_batch_cost_us");
  // Page lookups and chunk-key hits, read back by stats().
  obs::StatCounter lookups_{"medes_registry_lookups_total"};
  std::atomic<uint64_t> key_hits_{0};
};

}  // namespace medes

#endif  // MEDES_REGISTRY_FINGERPRINT_REGISTRY_H_
