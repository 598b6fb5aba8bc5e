// Cluster state: nodes, sandboxes, the sandbox lifecycle (paper Fig. 4b),
// base-sandbox snapshots, and per-node memory accounting.
//
// The cluster is a passive data model — the scheduler/policy (controller) and
// the dedup/restore ops (dedup agent) mutate it; the platform orchestrates.
// Memory is accounted in *represented* MB: the synthetic images are built at
// a configurable byte scale, and every byte count is converted back through
// `bytes_per_mb`.
#ifndef MEDES_CLUSTER_CLUSTER_H_
#define MEDES_CLUSTER_CLUSTER_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "chunking/fingerprint.h"
#include "common/time.h"
#include "memstate/image.h"
#include "memstate/library_pool.h"
#include "memstate/profiles.h"
#include "registry/fingerprint_registry.h"

namespace medes {

// Lifecycle states of an in-memory sandbox (a purged sandbox simply ceases to
// exist — "cold" is the absence of a sandbox).
enum class SandboxState {
  kRunning,
  kWarm,
  kDedup,
};

const char* ToString(SandboxState state);

// A record of one deduplicated page: which base page(s) its patch was
// computed against (paper Section 4.1.2 computes the patch "relative to the
// base page(s) corresponding to its RSCs"; the default configuration uses
// one). Patch bytes live in the sandbox's checkpoint; this is the dedup
// agent's local metadata ("dedup page table"), kept on the sandbox's node so
// restores never talk to the controller (paper Section 4.2).
struct PatchRecord {
  PageIndex page;
  std::vector<PageLocation> bases;
};

// Keep-alive expiry state of a sandbox under the fixed and adaptive
// policies (see ServerlessPlatform). Completions move the deadline; at most
// one expiry event is queued, never later than the deadline. Seqs are the
// engine's tie-break numbers, and the queued event's seq is its identity.
struct KeepAliveExpiry {
  SimTime deadline;           // last completion + keep-alive window
  uint64_t deadline_seq = 0;  // seq reserved at that completion
  SimTime queued_at;          // fire time of the queued event
  uint64_t queued_seq = 0;    // its seq; 0 = none queued
};

struct Sandbox {
  SandboxId id;
  FunctionId function = -1;
  NodeId node = kInvalidNode;
  SandboxState state = SandboxState::kRunning;

  // Increments on every execution; seeds the instance image content (each
  // run leaves different request data in the heap).
  uint64_t generation = 0;

  SimTime created;
  // last_used and dedup_since key the cluster's recency indexes: only the
  // Cluster's lifecycle transitions write them.
  SimTime last_used;
  SimTime idle_since;
  SimTime dedup_since;

  // Present when state == kDedup (patches + unique leftover pages).
  std::optional<MemoryCheckpoint> checkpoint;
  std::vector<PatchRecord> patches;
  bool namespaces_prepared = false;
  // Footprint cached at dedup time — the accounting basis while in kDedup
  // (the live checkpoint mutates during restores, so it cannot be the basis).
  double dedup_footprint_mb = 0;

  // Pending Medes keep-dedup timer; 0 = none.
  uint64_t pending_timer = 0;
  // Deadline the platform's coalesced idle-expiry bucket expects this sandbox
  // to be handled at; 0 = not enrolled (see ServerlessPlatform).
  SimTime idle_deadline;
  KeepAliveExpiry expiry;

  // Statistic: how this sandbox last started.
  uint64_t runs = 0;
};

// A pinned snapshot of a base sandbox's memory: serves base pages to dedup
// and restore ops cluster-wide. Pinned (refcounted via the registry) until
// no dedup sandbox holds patches against it.
struct BaseSnapshot {
  SandboxId sandbox;
  FunctionId function = -1;
  NodeId node = kInvalidNode;
  MemoryCheckpoint checkpoint;  // always holds real payload bytes
  double memory_mb = 0;
};

struct NodeOptions {
  double memory_limit_mb = 2048;
};

struct Node {
  NodeId id = kInvalidNode;
  NodeOptions options;
  double used_mb = 0;  // maintained incrementally by the cluster
  std::vector<SandboxId> sandboxes;  // ids resident on this node
};

struct ClusterOptions {
  int num_nodes = 19;           // worker nodes (the paper's 20th is the controller)
  double node_memory_mb = 2048; // software-defined per-node limit
  size_t bytes_per_mb = 8192;   // image scale: real bytes per represented MB
  // Dedup-sandbox metadata overhead, as a fraction of the warm footprint
  // (paper Section 7.7: metadata stayed below 10% of node memory).
  double dedup_metadata_fraction = 0.02;
  bool aslr = false;
  uint64_t seed = 0xc105;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);

  const ClusterOptions& options() const { return options_; }
  int NumNodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(NodeId id) { return nodes_.at(static_cast<size_t>(id.value())); }
  const Node& node(NodeId id) const { return nodes_.at(static_cast<size_t>(id.value())); }

  const LibraryPool& library_pool() const { return pool_; }

  // ---- Sandbox lifecycle ----------------------------------------------

  // Creates a running sandbox of `profile` on `node` (a cold start's spawn).
  Sandbox& Spawn(const FunctionProfile& profile, NodeId node, SimTime now);

  // Removes the sandbox and releases its memory. Precondition: its state's
  // resources (base refs) were released by the caller (dedup agent).
  void Purge(SandboxId id);

  // O(1): a table indexed by id. Null for kNoSandbox, a purged id, or an
  // id never issued.
  Sandbox* Find(SandboxId id);
  const Sandbox* Find(SandboxId id) const;

  // All sandbox ids of `function` in `state`, in ascending id order. A scan
  // of every sandbox: the test oracle for CountIn and the recency indexes.
  std::vector<SandboxId> SandboxesIn(FunctionId function, SandboxState state) const;
  std::vector<SandboxId> AllSandboxes() const;

  // Visits every live sandbox in ascending id order (the order AllSandboxes
  // lists). `fn` must not spawn or purge.
  template <typename Fn>
  void ForEachSandbox(Fn&& fn) const {
    for (const std::unique_ptr<Sandbox>& sb : table_) {
      if (sb != nullptr) {
        fn(*sb);
      }
    }
  }

  // Number of `function` sandboxes in `state`, maintained incrementally at
  // every lifecycle transition. The test oracle is SandboxesIn(...).size().
  int CountIn(FunctionId function, SandboxState state) const {
    const FunctionState* fs = StateOf(function);
    return fs == nullptr ? 0 : fs->counts[static_cast<size_t>(state)];
  }

  // The warm sandbox of `function` with the latest last_used, or the dedup
  // sandbox with the latest dedup_since; on a tie the lowest id. Null when
  // there is none. O(1): the back of a per-function recency index.
  Sandbox* MostRecentWarm(FunctionId function) {
    const FunctionState* fs = StateOf(function);
    return fs == nullptr || fs->warm.empty() ? nullptr : Find(fs->warm.back().id);
  }
  Sandbox* MostRecentDedup(FunctionId function) {
    const FunctionState* fs = StateOf(function);
    return fs == nullptr || fs->dedup.empty() ? nullptr : Find(fs->dedup.back().id);
  }

  // State transitions with memory-accounting side effects.
  void MarkRunning(Sandbox& sb, SimTime now);
  void MarkWarm(Sandbox& sb, SimTime now);
  // kWarm -> kDedup: the caller (dedup agent) already installed the
  // checkpoint + patches; this adjusts accounting.
  void MarkDedup(Sandbox& sb, SimTime now);
  // kDedup -> kWarm (after a restore op). Memory accounting switches to the
  // full warm footprint either way; `release_checkpoint` additionally drops
  // the checkpoint and patch records. Lazy restores pass false — their
  // background phase still needs both and releases them on completion.
  void MarkRestored(Sandbox& sb, SimTime now, bool release_checkpoint = true);

  // ---- Base snapshots --------------------------------------------------

  // Pins a snapshot of a warm sandbox's memory as a base.
  BaseSnapshot& AddBaseSnapshot(const Sandbox& sb, MemoryCheckpoint checkpoint);
  void RemoveBaseSnapshot(SandboxId id);
  BaseSnapshot* FindBaseSnapshot(SandboxId id);
  const std::map<SandboxId, BaseSnapshot>& base_snapshots() const { return bases_; }
  // Base snapshots of a function.
  int NumBaseSnapshots(FunctionId function) const;

  // Reads the bytes of a base page (the RDMA fabric's page provider).
  std::vector<uint8_t> ReadBasePage(const PageLocation& location) const;

  // ---- Memory accounting ----------------------------------------------

  const FunctionProfile& ProfileOf(const Sandbox& sb) const;
  double WarmFootprintMb(const Sandbox& sb) const;
  double DedupFootprintMb(const Sandbox& sb) const;
  double SandboxFootprintMb(const Sandbox& sb) const;

  double TotalUsedMb() const;
  double TotalLimitMb() const;

  // Recomputes per-node usage from scratch (test oracle for the incremental
  // accounting).
  double RecomputeNodeUsedMb(NodeId id) const;

  // Builds the *current* memory image of a sandbox (depends on generation).
  MemoryImage BuildImage(const Sandbox& sb) const;

  // Least-used node; `required_mb` may exceed free space (caller evicts).
  NodeId LeastUsedNode() const;

 private:
  // One recency-index entry: a sandbox and the time it is ordered by
  // (last_used in the warm index, dedup_since in the dedup index).
  struct RecencyEntry {
    SimTime time;
    SandboxId id;
  };
  // Per-function lifecycle state, indexed by FunctionId. A sandbox is in
  // `warm` exactly while it is kWarm and in `dedup` exactly while it is
  // kDedup. Both are sorted by time ascending, then id descending, so back()
  // is the latest time and, among equal times, the lowest id. An update is a
  // binary search plus a shift of the entries behind it; a pick takes the
  // back and a new warm or dedup entry carries the latest time, so the
  // common updates shift only entries that share its time.
  struct FunctionState {
    std::array<int, 3> counts{};  // indexed by SandboxState
    std::vector<RecencyEntry> warm;
    std::vector<RecencyEntry> dedup;
  };

  const FunctionState* StateOf(FunctionId function) const {
    const auto f = static_cast<size_t>(function);
    return function >= 0 && f < functions_.size() ? &functions_[f] : nullptr;
  }
  // Every state write in this class funnels through these two: Leave takes
  // the sandbox out of its state's count and index (keyed by the sandbox's
  // current times), Enter puts it into `state`'s, keyed by the times the
  // caller has already set.
  void Leave(const Sandbox& sb);
  void Enter(Sandbox& sb, SandboxState state);
  void AddUsage(NodeId node, double mb);

  ClusterOptions options_;
  LibraryPool pool_;
  std::vector<Node> nodes_;
  // Sandboxes by id; ids are issued densely from 1, so table_.size() is the
  // next id, and slot 0 (kNoSandbox) and purged slots hold null.
  std::vector<std::unique_ptr<Sandbox>> table_;
  std::map<SandboxId, BaseSnapshot> bases_;
  std::vector<FunctionState> functions_;
};

}  // namespace medes

#endif  // MEDES_CLUSTER_CLUSTER_H_
