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
#include <unordered_map>
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

struct Sandbox {
  SandboxId id;
  FunctionId function = -1;
  NodeId node = kInvalidNode;
  SandboxState state = SandboxState::kRunning;

  // Increments on every execution; seeds the instance image content (each
  // run leaves different request data in the heap).
  uint64_t generation = 0;

  SimTime created;
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

  // Pending lifecycle timer (keep-alive / idle / keep-dedup); 0 = none.
  uint64_t pending_timer = 0;
  // Deadline the platform's coalesced idle-expiry bucket expects this sandbox
  // to be handled at; 0 = not enrolled (see ServerlessPlatform).
  SimTime idle_deadline;

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

  Sandbox* Find(SandboxId id);
  const Sandbox* Find(SandboxId id) const;

  // All sandbox ids of `function` in `state` (deterministic order).
  std::vector<SandboxId> SandboxesIn(FunctionId function, SandboxState state) const;
  std::vector<SandboxId> AllSandboxes() const;

  // Number of `function` sandboxes in `state`, maintained incrementally at
  // every lifecycle transition — O(1), no vector build. The test oracle is
  // SandboxesIn(...).size().
  int CountIn(FunctionId function, SandboxState state) const {
    auto it = counts_.find(function);
    return it == counts_.end() ? 0 : it->second[static_cast<size_t>(state)];
  }

  // Allocation-free scan over `function`'s sandboxes in `state`, in ascending
  // id order (same order as SandboxesIn). `fn` may mutate the sandbox but not
  // change its state or purge it mid-scan.
  template <typename Fn>
  void ForEachSandboxIn(FunctionId function, SandboxState state, Fn&& fn) {
    auto it = by_function_.find(function);
    if (it == by_function_.end()) {
      return;
    }
    for (Sandbox* sb : it->second) {
      if (sb->state == state) {
        fn(*sb);
      }
    }
  }
  template <typename Fn>
  void ForEachSandboxIn(FunctionId function, SandboxState state, Fn&& fn) const {
    auto it = by_function_.find(function);
    if (it == by_function_.end()) {
      return;
    }
    for (const Sandbox* sb : it->second) {
      if (sb->state == state) {
        fn(*sb);
      }
    }
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
  void AddUsage(NodeId node, double mb);
  // Incremental (function, state) count maintenance; every state write in
  // this class funnels through these.
  void CountAdjust(FunctionId function, SandboxState state, int delta) {
    counts_[function][static_cast<size_t>(state)] += delta;
  }
  void SetState(Sandbox& sb, SandboxState state) {
    CountAdjust(sb.function, sb.state, -1);
    CountAdjust(sb.function, state, +1);
    sb.state = state;
  }

  ClusterOptions options_;
  LibraryPool pool_;
  std::vector<Node> nodes_;
  SandboxId next_id_{1};
  std::map<SandboxId, Sandbox> sandboxes_;  // ordered => deterministic iteration
  std::map<SandboxId, BaseSnapshot> bases_;
  // Per-function index (ascending ids) so scheduling scans stay O(per-fn).
  // Raw pointers into sandboxes_ — std::map nodes are address-stable.
  std::unordered_map<FunctionId, std::vector<Sandbox*>> by_function_;
  // Per-function live-state counts, indexed by SandboxState.
  std::unordered_map<FunctionId, std::array<int, 3>> counts_;
};

}  // namespace medes

#endif  // MEDES_CLUSTER_CLUSTER_H_
