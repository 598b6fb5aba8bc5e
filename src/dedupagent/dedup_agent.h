// The per-node dedup agent: dedup and restore operations (paper Section 4).
//
// Dedup op (Fig. 5): checkpoint the warm sandbox; fingerprint each page with
// value-sampled 64 B chunks; look the fingerprints up in the controller's
// global registry to pick a *base page* per page (max sampled-chunk overlap,
// local pages preferred on ties); read the base pages (RDMA when remote);
// compute an Xdelta-style patch at compression level 1; keep the patch and
// purge the original page when the patch is small enough. The checkpoint's
// namespace/process-tree restoration work is done *now* so dedup starts skip
// it (Section 4.2).
//
// Restore op (Fig. 6): fetch referenced base pages (one-sided RDMA, no
// controller involvement), reconstruct original pages from patches, rebuild
// the memory dump, and restore the sandbox from it. The default mode is
// *lazy* (REAP-style, see DESIGN.md "Lazy restore"): only the function's
// predicted post-resume working set is fetched and mapped on the critical
// path (batched per owner node through RdmaFabric::ReadSharedPageBatch);
// touched pages outside the prediction pay a modelled demand-fault penalty,
// and the remaining patched pages are faulted in by a background phase the
// platform schedules on the event engine. RestoreMode::kEager keeps the original
// restore-everything-first behaviour as the regression reference; final
// memory images are bit-identical between the two modes.
//
// Timing is modelled against *represented* sizes: the synthetic images are
// built at `bytes_per_mb` scale, so modelled durations multiply measured
// byte/page counts by the scale ratio back to full size.
//
// Execution is a staged pipeline fanned out over a thread pool (paper
// Section 4 pipelines this work across sandboxes; we parallelise across
// pages, which are independent):
//   fingerprint (parallel) -> registry lookup (parallel, batched) ->
//   base-page read (serial, canonical page order, through the fabric cache)
//   -> delta encode/decode (parallel) -> merge (serial, page order).
// The serial read stage makes cache hit/miss decisions and all modelled
// SimDuration costs a function of page order alone, so every DedupOpResult,
// patch record, and cost is bit-identical across thread counts.
#ifndef MEDES_DEDUPAGENT_DEDUP_AGENT_H_
#define MEDES_DEDUPAGENT_DEDUP_AGENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "chunking/fingerprint.h"
#include "cluster/cluster.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "common/sha1.h"
#include "common/thread_pool.h"
#include "delta/delta.h"
#include "memstate/working_set.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "rdma/rdma.h"
#include "registry/fingerprint_registry.h"

namespace medes {

// How RestoreOp schedules the memory-state work (see file comment).
enum class RestoreMode {
  kLazy,   // working-set prefetch on the critical path, background the rest
  kEager,  // restore everything before resume (the regression reference)
};

const char* ToString(RestoreMode mode);

struct DedupAgentOptions {
  FingerprintOptions fingerprint;
  DeltaOptions delta{.level = 1};
  CheckpointCosts criu;
  // A patch is only kept if it is smaller than this fraction of the page
  // (otherwise deduplication of that page isn't worth the metadata).
  double patch_accept_max_ratio = 0.85;
  // DedupOpResult::lookup_time comes from the registry's cost model
  // (RegistryOptions::lookup_per_page plus transport message costs).
  // How many ranked base pages a patch may be computed against (Section
  // 4.1.2 says "base page(s)"; 1 keeps restore reads minimal — the Fig. 16
  // cardinality sensitivity raises it).
  size_t max_base_pages_per_page = 1;
  // Patch computation / application throughput, bytes per us (~1 GB/s).
  double patch_bytes_per_us = 1000.0;
  // Keep checkpoint payload bytes after the op (true = byte-exact restores
  // can be verified; false = size-only accounting for fast simulation).
  bool keep_payloads = true;
  // Pipeline worker threads: 0 = MEDES_THREADS env var, else hardware
  // concurrency; 1 = fully serial (the determinism-test reference).
  size_t num_threads = 0;
  // Pages per registry lookup batch (one FindBasePagesBatch call per task).
  size_t lookup_batch_pages = 64;
  // Restore scheduling mode (lazy = working-set prefetch, the default).
  RestoreMode restore_mode = RestoreMode::kLazy;
  // Working-set prediction knobs (EMA alpha + prefetch threshold).
  WorkingSetOptions working_set;
  // Modelled cost of a minor fault on a touched page the lazy critical path
  // chose not to map (per represented page; scaled like every other cost).
  SimDuration minor_fault_cost{2};
  // Extra userfaultfd/kernel overhead when the faulted page is still patched
  // and must be fetched + decoded on demand, on top of the fetch itself.
  SimDuration major_fault_cost{8};
  // Shared working-set table so profiles warm across platforms/runs of a
  // campaign; null = the agent creates a private table from `working_set`.
  std::shared_ptr<WorkingSetTable> working_sets;
};

struct DedupOpResult {
  size_t pages_total = 0;
  size_t pages_deduped = 0;   // replaced by patches
  size_t pages_zero = 0;
  size_t pages_unique = 0;    // kept resident (no acceptable base page)
  size_t patch_bytes = 0;     // real bytes at image scale
  size_t saved_bytes = 0;     // (page size - patch size) summed, image scale
  size_t same_function_pages = 0;   // deduped against a base of the same function
  size_t cross_function_pages = 0;  // ... of a different function (Section 7.3.1)
  // Modelled durations at represented scale.
  SimDuration checkpoint_time;
  // Registry lookups (the registry's modelled cost: transport messages plus
  // controller-side per-page work, summed across the op's batches).
  SimDuration lookup_time;
  SimDuration patch_time;    // base page reads + patch computation
  SimDuration total_time;
};

// Cumulative per-agent counters, aggregated across every op the agent has
// run. Ops on different sandboxes may execute concurrently (the controller
// schedules one op per sandbox), so the agent keeps them as atomics.
struct DedupAgentStats {
  uint64_t dedup_ops = 0;
  uint64_t restore_ops = 0;
  uint64_t bases_designated = 0;
  uint64_t pages_deduped = 0;
  uint64_t pages_restored = 0;
  uint64_t patch_bytes = 0;
  uint64_t saved_bytes = 0;
  uint64_t base_bytes_read = 0;
  // Lazy-restore accounting.
  uint64_t lazy_restores = 0;
  uint64_t ws_fault_pages = 0;          // mispredicted post-resume touches
  uint64_t background_completions = 0;  // background phases run to completion
  uint64_t background_pages = 0;        // patched pages faulted in off-path
};

struct RestoreOpResult {
  RestoreMode mode = RestoreMode::kEager;
  size_t base_pages_read = 0;
  size_t base_bytes_read = 0;    // real bytes at image scale
  size_t remote_reads = 0;
  // Modelled durations at represented scale — the three Fig. 8 components.
  // Lazy mode scopes them to the critical-path phase (working-set pages).
  SimDuration read_base_time;      // "base page reading"
  SimDuration compute_time;        // "original page computing"
  SimDuration sandbox_restore_time;  // "sandbox restoration" (CRIU)
  // Latency gating resume: the three components above. Eager mode:
  // critical_path_time == total_time and fault_time is zero.
  SimDuration critical_path_time;
  // Modelled post-resume demand-fault penalty (mispredicted working set:
  // minor faults, plus fetch + decode for pages that were still patched).
  SimDuration fault_time;
  SimDuration total_time;  // critical_path_time + fault_time
  // Working-set accounting (lazy mode). Hits/faults partition the touched
  // set; an unprofiled function prefetches the full image (predicted == all).
  size_t ws_predicted_pages = 0;
  size_t ws_touched_pages = 0;
  size_t ws_hit_pages = 0;
  size_t ws_fault_pages = 0;
  // Patched pages deferred to the background phase. When non-zero the caller
  // must eventually run CompleteBackgroundRestore (the platform schedules it
  // on the event engine) or abandon the restore on purge.
  size_t background_pages = 0;
  bool background_pending = false;
  bool verified = false;  // byte-exact reconstruction check ran and passed
};

// Outcome of the background phase of a lazy restore.
struct BackgroundRestoreResult {
  size_t pages = 0;  // patched pages faulted in
  size_t base_pages_read = 0;
  size_t base_bytes_read = 0;
  size_t remote_reads = 0;
  SimDuration total_time;  // modelled duration, entirely off the critical path
  // Deferred byte-exact check (digest captured at RestoreOp time) ran and
  // passed. False when verification was off or nothing was pending.
  bool verified = false;
};

class DedupAgent {
 public:
  // The agent mutates cluster sandboxes and reads pages through the fabric;
  // the registry belongs to the controller. All referenced objects must
  // outlive the agent.
  DedupAgent(Cluster& cluster, FingerprintRegistry& registry, RdmaFabric& fabric,
             DedupAgentOptions options = {});

  const DedupAgentOptions& options() const { return options_; }

  // Converts a warm sandbox into the dedup state. Builds the sandbox's
  // current image, checkpoints it, and eliminates redundancy page by page.
  // `ctx`, when sampled, becomes the parent of the op span and — through it
  // — of every stage span and wire-message span the op emits.
  DedupOpResult DedupOp(Sandbox& sb, SimTime now, const obs::TraceContext& ctx = {});

  // Restores a dedup sandbox to warm. When `verify` is set (and payloads
  // were kept) the reconstructed image is compared byte-for-byte against the
  // sandbox's regenerated source image — immediately when the restore
  // completes in one phase, or at background completion via a digest
  // captured here (the source image depends on the sandbox's generation,
  // which advances when it runs again). `ctx`, when sampled, parents the
  // restore's span tree (including the deferred background phase).
  RestoreOpResult RestoreOp(Sandbox& sb, SimTime now, bool verify = false,
                            const obs::TraceContext& ctx = {});

  // Completes the background phase of a lazy restore: batched fetch + decode
  // of every still-patched page, then releases the checkpoint. Returns a
  // zero result when nothing is pending for `sb`.
  BackgroundRestoreResult CompleteBackgroundRestore(Sandbox& sb, SimTime now);

  bool HasPendingBackgroundRestore(SandboxId id) const EXCLUDES(pending_mu_);

  // Forgets pending background state without fetching anything (sandbox
  // purged, or re-deduped so a fresh checkpoint supersedes the old one).
  // Does not touch refcounts: the caller owns the remaining patch refs.
  void AbandonBackgroundRestore(SandboxId id) EXCLUDES(pending_mu_);

  // The working-set profile table consulted by lazy restores (shared when
  // DedupAgentOptions::working_sets was set, agent-private otherwise).
  WorkingSetTable& working_sets() { return *working_sets_; }

  // Snapshot + fingerprint + registry insertion for a base sandbox
  // designation. Returns the registered snapshot. `now`/`ctx` anchor the
  // designation span in the trace timeline and parent the registry-insert
  // wire spans; the defaults keep standalone callers untraced.
  BaseSnapshot& DesignateBase(Sandbox& sb, SimTime now = {}, const obs::TraceContext& ctx = {});

  // Represented-scale multiplier for this cluster's image scale.
  double ScaleFactor() const;

  // Resolved pipeline width (>= 1).
  size_t NumThreads() const { return pool_->NumThreads(); }

  // The cumulative counters. Read at a quiescent point for exact totals.
  DedupAgentStats stats() const;

 private:
  // Deferred-verification state for a lazy restore with a pending background
  // phase. The digest is of the full source image, captured before the
  // platform marks the sandbox running (generation advances there).
  struct PendingRestore {
    Sha1Digest expected;
    bool verify = false;
    // Restore-op context captured at RestoreLazy time: the background phase
    // runs later (event engine) but its spans belong to the same trace.
    obs::TraceContext ctx;
  };

  // Fingerprints of the image's `pages` (parallel stage; the result is
  // positionally aligned with `pages`).
  std::vector<PageFingerprint> FingerprintPages(const MemoryImage& image,
                                                const std::vector<size_t>& pages);

  RestoreOpResult RestoreEager(Sandbox& sb, SimTime now, bool verify,
                               const obs::TraceContext& ctx);
  RestoreOpResult RestoreLazy(Sandbox& sb, SimTime now, bool verify,
                              const obs::TraceContext& ctx);

  // Base fetch for the patch records selected by `records` (indexes into
  // sb.patches). Returns each record's base: its one shared page, or its
  // pages joined end to end when it has several. Updates the read counters
  // and releases the records' base refs. `batched` reads all bases with one
  // RdmaFabric::ReadSharedPageBatch (one coalesced message per owner node),
  // parented to `trace`; otherwise each base is one ReadSharedPage, the
  // k-th taking trace ordinal `trace.ordinal + k`.
  std::vector<SharedPage> FetchBases(Sandbox& sb, const std::vector<size_t>& records, bool batched,
                                     SimDuration* cost, size_t* pages_read, size_t* bytes_read,
                                     size_t* remote_reads, const obs::MessageTrace& trace);

  // Throws std::logic_error (prefixed with `op`) unless sb's checkpoint
  // reconstructs the sandbox's memory image byte for byte.
  void VerifyReconstruction(const Sandbox& sb, const char* op) const;

  // Decode + merge `records` back into the checkpoint (parallel decode,
  // serial merge in record order). Returns decoded patch bytes applied.
  size_t DecodeAndRestore(Sandbox& sb, const std::vector<size_t>& records,
                          const std::vector<SharedPage>& bases);

  Cluster& cluster_;
  FingerprintRegistry& registry_;
  RdmaFabric& fabric_;
  DedupAgentOptions options_;
  PageFingerprinter fingerprinter_;
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<WorkingSetTable> working_sets_;  // never null

  // Lazy restores with an outstanding background phase, keyed by sandbox.
  mutable Mutex pending_mu_;
  std::unordered_map<SandboxId, PendingRestore> pending_ GUARDED_BY(pending_mu_);

  // Cumulative counters, recorded once per completed op. Those that feed a
  // series are bound to it here; the rest are stats-only.
  obs::StatCounter dedup_ops_{"medes_dedup_ops_total"};
  obs::StatCounter restore_ops_{"medes_restore_ops_total"};
  obs::StatCounter bases_designated_{"medes_bases_designated_total"};
  obs::StatCounter pages_deduped_{"medes_dedup_pages_deduped_total"};
  obs::StatCounter patch_bytes_{"medes_dedup_patch_bytes_total"};
  obs::StatCounter saved_bytes_{"medes_dedup_saved_bytes_total"};
  obs::StatCounter ws_fault_pages_{"medes_restore_ws_fault_pages_total"};
  std::atomic<uint64_t> pages_restored_{0};
  std::atomic<uint64_t> base_bytes_read_{0};
  std::atomic<uint64_t> lazy_restores_{0};
  std::atomic<uint64_t> background_completions_{0};
  std::atomic<uint64_t> background_pages_{0};

  // Series with no stats() field.
  obs::MetricsRegistry& series_ = obs::MetricsRegistry::Default();
  obs::Counter& pages_unique_ = series_.GetCounter("medes_dedup_pages_unique_total");
  obs::Counter& base_pages_read_ = series_.GetCounter("medes_restore_base_pages_read_total");
  obs::Counter& ws_hit_pages_ = series_.GetCounter("medes_restore_ws_hit_pages_total");
  obs::Counter& deferred_pages_ = series_.GetCounter("medes_restore_background_pages_total");
  obs::Histogram& dedup_op_us_ = series_.GetHistogram("medes_dedup_op_us");
  obs::Histogram& dedup_checkpoint_us_ = series_.GetHistogram("medes_dedup_checkpoint_us");
  obs::Histogram& dedup_lookup_us_ = series_.GetHistogram("medes_dedup_lookup_us");
  obs::Histogram& dedup_patch_us_ = series_.GetHistogram("medes_dedup_patch_us");
  obs::Histogram& restore_op_us_ = series_.GetHistogram("medes_restore_op_us");
  obs::Histogram& restore_base_read_us_ = series_.GetHistogram("medes_restore_base_read_us");
  obs::Histogram& restore_compute_us_ = series_.GetHistogram("medes_restore_compute_us");
  obs::Histogram& restore_criu_us_ = series_.GetHistogram("medes_restore_criu_us");
  obs::Histogram& restore_critical_us_ = series_.GetHistogram("medes_restore_critical_us");
  obs::Histogram& restore_fault_us_ = series_.GetHistogram("medes_restore_fault_us");
  obs::Histogram& restore_background_us_ = series_.GetHistogram("medes_restore_background_us");
};

}  // namespace medes

#endif  // MEDES_DEDUPAGENT_DEDUP_AGENT_H_
