#include "dedupagent/dedup_agent.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "workload/access_model.h"

namespace medes {

namespace {

// Indexes of the checkpoint's resident (non-zero) pages, in page order.
std::vector<size_t> ResidentPages(const MemoryCheckpoint& cp) {
  std::vector<size_t> resident;
  resident.reserve(cp.NumPages());
  for (size_t page = 0; page < cp.NumPages(); ++page) {
    if (cp.SlotState(page) == PageSlotState::kResident) {
      resident.push_back(page);
    }
  }
  return resident;
}

// A patch's base is its base pages laid end to end, and the encoder takes
// bases shorter than kDeltaBaseLimit only. A larger cardinality would make
// every encode throw and every page quietly count as unique, so refuse it.
const DedupAgentOptions& CheckedOptions(const DedupAgentOptions& options) {
  if (options.max_base_pages_per_page >= kDeltaBaseLimit / kPageSize) {
    throw std::invalid_argument("DedupAgent: max_base_pages_per_page * page size must be below " +
                                std::to_string(kDeltaBaseLimit) + " bytes");
  }
  return options;
}

// A patch's base as encode and decode read it: the page itself when the
// record has one base (shared with the fabric cache, no copy), else a new
// buffer holding its pages end to end.
SharedPage JoinBases(std::span<const SharedPage> pages) {
  if (pages.size() == 1) {
    return pages.front();
  }
  auto joined = std::make_shared<std::vector<uint8_t>>();
  joined->reserve(pages.size() * kPageSize);
  for (const SharedPage& page : pages) {
    joined->insert(joined->end(), page->begin(), page->end());
  }
  return joined;
}

// Indexes of every patch record of `sb`, in record order.
std::vector<size_t> AllRecords(const Sandbox& sb) {
  std::vector<size_t> records(sb.patches.size());
  std::iota(records.begin(), records.end(), size_t{0});
  return records;
}

}  // namespace

const char* ToString(RestoreMode mode) {
  switch (mode) {
    case RestoreMode::kLazy:
      return "lazy";
    case RestoreMode::kEager:
      return "eager";
  }
  return "?";
}

DedupAgent::DedupAgent(Cluster& cluster, FingerprintRegistry& registry, RdmaFabric& fabric,
                       DedupAgentOptions options)
    : cluster_(cluster),
      registry_(registry),
      fabric_(fabric),
      options_(CheckedOptions(options)),
      fingerprinter_(options.fingerprint),
      pool_(std::make_unique<ThreadPool>(options.num_threads)),
      working_sets_(options.working_sets != nullptr
                        ? options.working_sets
                        : std::make_shared<WorkingSetTable>(options.working_set)) {}

double DedupAgent::ScaleFactor() const {
  return static_cast<double>(1 << 20) / static_cast<double>(cluster_.options().bytes_per_mb);
}

std::vector<PageFingerprint> DedupAgent::FingerprintPages(const MemoryImage& image,
                                                          const std::vector<size_t>& pages) {
  std::vector<PageFingerprint> fingerprints(pages.size());
  pool_->ParallelFor(0, pages.size(), [&](size_t i) {
    fingerprints[i] = fingerprinter_.FingerprintPage(image.Page(pages[i]));
  });
  return fingerprints;
}

DedupOpResult DedupAgent::DedupOp(Sandbox& sb, SimTime now, const obs::TraceContext& ctx) {
  if (sb.state != SandboxState::kWarm) {
    throw std::logic_error("DedupOp: sandbox must be warm");
  }
  // Span-tree skeleton for this op: every stage context is a pure function
  // of the caller's context, so message spans sent from inside ParallelFor
  // below still get deterministic ids (the batch index is the ordinal).
  const obs::TraceContext op_ctx = ctx.Child("dedup_op");
  const obs::TraceContext lookup_ctx = op_ctx.Child("dedup/registry_lookup");
  const obs::TraceContext read_ctx = op_ctx.Child("dedup/base_read");
  // Re-dedup while a lazy restore's background phase is still outstanding:
  // the fresh checkpoint captured below supersedes the old one, so abandon
  // the pending fetch and release the leftover base refs instead of pulling
  // pages nobody will read.
  if (HasPendingBackgroundRestore(sb.id)) {
    for (const PatchRecord& record : sb.patches) {
      for (const PageLocation& base : record.bases) {
        registry_.Unref(base.sandbox);
      }
    }
    sb.patches.clear();
    sb.checkpoint.reset();
    AbandonBackgroundRestore(sb.id);
  }
  DedupOpResult result;
  const double scale = ScaleFactor();

  // 1. Memory checkpoint of the warm sandbox. The stages below read page
  // bytes from the image, so a checkpoint that drops payloads never copies
  // them.
  const bool keep_payloads = options_.keep_payloads;
  const MemoryImage image = cluster_.BuildImage(sb);
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image, keep_payloads);
  result.pages_total = cp.NumPages();
  result.pages_zero = cp.NumZero();
  result.checkpoint_time = SimDuration{static_cast<int64_t>(
      static_cast<double>(options_.criu.capture_per_page.value()) *
      static_cast<double>(cp.NumPages()) * scale)};

  const std::vector<size_t> resident = ResidentPages(cp);
  const size_t n = resident.size();

  // 2. Fingerprint every resident page (parallel).
  std::vector<PageFingerprint> fingerprints = FingerprintPages(image, resident);

  // 3. Registry lookups, batched and fanned out (parallel; lookups share the
  // registry's reader lock, and each task's FindBasePagesBatch call takes it
  // once per batch). Each
  // batch also reports its modelled cost — a pure function of the batch's
  // contents — into its own slot, so the serial sum below is identical at
  // every thread count.
  std::vector<std::vector<BasePageCandidate>> candidates(n);
  const size_t batch = std::max<size_t>(options_.lookup_batch_pages, 1);
  const size_t num_batches = (n + batch - 1) / batch;
  std::vector<SimDuration> batch_costs(num_batches);
  // Lookups leave the node once the checkpoint is captured; the batch index
  // is the ordinal, so message span ids are independent of which worker
  // issues which batch.
  const SimTime lookup_at = now + result.checkpoint_time;
  pool_->ParallelFor(0, num_batches, [&](size_t b) {
    const size_t lo = b * batch;
    const size_t hi = std::min(n, lo + batch);
    auto out = registry_.FindBasePagesBatch(
        std::span<const PageFingerprint>(fingerprints).subspan(lo, hi - lo), sb.node, sb.id,
        options_.max_base_pages_per_page, &batch_costs[b],
        obs::MessageTrace{lookup_ctx, lookup_at, b});
    std::move(out.begin(), out.end(), candidates.begin() + static_cast<ptrdiff_t>(lo));
  });
  SimDuration lookup_cost;
  for (SimDuration c : batch_costs) {
    lookup_cost += c;
  }

  // Scale the lookup time here so the base-read stage below knows its
  // position in the op's timeline.
  result.lookup_time =
      SimDuration{static_cast<int64_t>(static_cast<double>(lookup_cost.value()) * scale)};

  // 4. Base-page reads, serial in canonical page order: the fabric cache's
  // hit/miss sequence — and therefore the modelled RDMA cost — depends only
  // on page order, never on worker interleaving. A read dropped by the
  // transport's fault policy degrades that page to unique (the candidate is
  // discarded) instead of failing the op.
  SimDuration rdma_cost;
  const SimTime read_at = lookup_at + result.lookup_time;
  uint64_t read_ordinal = 0;
  std::vector<SharedPage> bases(n);
  std::vector<SharedPage> pages;
  for (size_t i = 0; i < n; ++i) {
    if (candidates[i].empty()) {
      continue;
    }
    // The patch is computed against the concatenation of the chosen base
    // page(s); restore must fetch them all.
    pages.clear();
    try {
      for (const BasePageCandidate& candidate : candidates[i]) {
        pages.push_back(fabric_.ReadSharedPage(
            candidate.location, sb.node, &rdma_cost,
            obs::MessageTrace{read_ctx, read_at, read_ordinal++}));
      }
    } catch (const RdmaUnavailable&) {
      candidates[i].clear();  // counted unique in the merge
      continue;
    }
    bases[i] = JoinBases(pages);
  }

  // 5. Delta-encode against the chosen bases (parallel; the accept decision
  // is per-page and deterministic). Each worker encodes into thread-local
  // scratch — its cache of seed tables and a patch buffer — so the steady
  // state allocates only the exact-size copy of each accepted patch, and
  // none when payloads are dropped: then only the size is kept.
  std::vector<std::vector<uint8_t>> patches(keep_payloads ? n : 0);
  std::vector<size_t> patch_size(n, 0);  // 0: not accepted (a patch is never empty)
  pool_->ParallelFor(0, n, [&](size_t i) {
    if (candidates[i].empty()) {
      return;
    }
    thread_local DeltaScratch delta_scratch;
    thread_local std::vector<uint8_t> patch_buf;
    try {
      DeltaEncodeInto(*bases[i], image.Page(resident[i]), options_.delta, patch_buf,
                      &delta_scratch);
    } catch (const DeltaError&) {
      return;  // counted unique in the merge
    }
    if (static_cast<double>(patch_buf.size()) >
        options_.patch_accept_max_ratio * static_cast<double>(kPageSize)) {
      return;  // patch too big to be worth it
    }
    if (keep_payloads) {
      patches[i].assign(patch_buf.begin(), patch_buf.end());
    }
    patch_size[i] = patch_buf.size();
  });

  // 6. Merge in page order: counters, refcounts, patch records, slot edits.
  sb.patches.clear();
  for (size_t i = 0; i < n; ++i) {
    const size_t page = resident[i];
    if (patch_size[i] == 0) {
      ++result.pages_unique;
      continue;
    }
    result.patch_bytes += patch_size[i];
    result.saved_bytes += kPageSize - patch_size[i];
    ++result.pages_deduped;
    const BaseSnapshot* snap = cluster_.FindBaseSnapshot(candidates[i].front().location.sandbox);
    if (snap != nullptr && snap->function == sb.function) {
      ++result.same_function_pages;
    } else {
      ++result.cross_function_pages;
    }
    PatchRecord record;
    record.page = PageIndex{static_cast<uint32_t>(page)};
    for (const BasePageCandidate& candidate : candidates[i]) {
      registry_.Ref(candidate.location.sandbox);
      record.bases.push_back(candidate.location);
    }
    sb.patches.push_back(std::move(record));
    if (keep_payloads) {
      cp.ReplaceWithPatch(page, std::move(patches[i]));
    } else {
      cp.MarkPatched(page, patch_size[i]);
    }
  }
  // Zero pages also count as saved memory relative to the warm state.
  result.saved_bytes += result.pages_zero * kPageSize;

  result.patch_time =
      SimDuration{static_cast<int64_t>(static_cast<double>(rdma_cost.value()) * scale)} +
      SimDuration{static_cast<int64_t>(static_cast<double>(result.patch_bytes) * scale /
                                       options_.patch_bytes_per_us)};
  result.total_time = result.checkpoint_time + result.lookup_time + result.patch_time;

  // Prepare namespaces / process tree now so dedup starts skip it.
  cp.set_namespaces_prepared(true);
  sb.namespaces_prepared = true;
  sb.checkpoint = std::move(cp);
  cluster_.MarkDedup(sb, now);
  dedup_ops_.Add();
  pages_deduped_.Add(result.pages_deduped);
  pages_unique_.Add(result.pages_unique);
  patch_bytes_.Add(result.patch_bytes);
  saved_bytes_.Add(result.saved_bytes);
  dedup_op_us_.Record(result.total_time.value());
  dedup_checkpoint_us_.Record(result.checkpoint_time.value());
  dedup_lookup_us_.Record(result.lookup_time.value());
  dedup_patch_us_.Record(result.patch_time.value());
  if (obs::TraceEnabled()) {
    // One span per pipeline stage, laid out sequentially from `now` in the
    // op's modelled timeline. Base reads and delta encoding split patch_time
    // into its wire and compute terms.
    const SimDuration base_read_time =
        SimDuration{static_cast<int64_t>(static_cast<double>(rdma_cost.value()) * scale)};
    const SimDuration delta_time = result.patch_time - base_read_time;
    obs::ScopedSpan op("dedup_op", "dedup", now, sb.node.value(), op_ctx);
    op.SetSimDuration(result.total_time);
    op.AddArg("pages", static_cast<int64_t>(result.pages_total));
    op.AddArg("deduped", static_cast<int64_t>(result.pages_deduped));
    op.AddArg("patch_bytes", static_cast<int64_t>(result.patch_bytes));
    SimTime cursor = now;
    // Stage contexts re-derive via op_ctx.Child(name) — the same pure
    // function the message sends above used, so the recorded lookup/read
    // stage spans carry exactly the ids their wire children point at.
    auto stage = [&](const char* name, SimDuration dur) {
      obs::ScopedSpan span(name, "dedup", cursor, sb.node.value(), op_ctx.Child(name));
      span.SetSimDuration(dur);
      cursor += dur;
    };
    stage("dedup/checkpoint", result.checkpoint_time);
    stage("dedup/fingerprint", SimDuration{});
    stage("dedup/registry_lookup", result.lookup_time);
    stage("dedup/base_read", base_read_time);
    stage("dedup/delta_encode", delta_time);
    obs::RecordInstant("dedup/merge", "dedup", cursor, sb.node.value(),
                       op_ctx.Child("dedup/merge"));
  }
  return result;
}

RestoreOpResult DedupAgent::RestoreOp(Sandbox& sb, SimTime now, bool verify,
                                      const obs::TraceContext& ctx) {
  if (sb.state != SandboxState::kDedup || !sb.checkpoint.has_value()) {
    throw std::logic_error("RestoreOp: sandbox not in dedup state");
  }
  return options_.restore_mode == RestoreMode::kEager ? RestoreEager(sb, now, verify, ctx)
                                                      : RestoreLazy(sb, now, verify, ctx);
}

RestoreOpResult DedupAgent::RestoreEager(Sandbox& sb, SimTime now, bool verify,
                                         const obs::TraceContext& ctx) {
  const obs::TraceContext op_ctx = ctx.Child("restore_op");
  const obs::TraceContext read_ctx = op_ctx.Child("restore/base_read");
  RestoreOpResult result;
  result.mode = RestoreMode::kEager;
  const double scale = ScaleFactor();
  MemoryCheckpoint& cp = *sb.checkpoint;
  const size_t n = sb.patches.size();
  const std::vector<size_t> records = AllRecords(sb);

  // 1. Base-page reads, one per base in patch-record order (deterministic
  // cache behaviour — see DedupOp), plus refcount release.
  SimDuration rdma_cost;
  const std::vector<SharedPage> bases =
      FetchBases(sb, records, /*batched=*/false, &rdma_cost, &result.base_pages_read,
                 &result.base_bytes_read, &result.remote_reads,
                 obs::MessageTrace{read_ctx, now, 0});

  // 2. Reconstruct original pages from patches (parallel) and put them back
  // in record order.
  const size_t patch_bytes_applied = DecodeAndRestore(sb, records, bases);

  result.read_base_time =
      SimDuration{static_cast<int64_t>(static_cast<double>(rdma_cost.value()) * scale)};
  result.compute_time = SimDuration{static_cast<int64_t>(
      static_cast<double>(result.base_bytes_read + patch_bytes_applied) * scale /
      options_.patch_bytes_per_us)};
  SimDuration criu = SimDuration{static_cast<int64_t>(
      static_cast<double>(options_.criu.restore_per_page.value()) *
      static_cast<double>(cp.NumPages()) * scale)};
  if (!sb.namespaces_prepared) {
    criu += options_.criu.namespace_and_ptree;
  }
  result.sandbox_restore_time = criu;
  result.total_time = result.read_base_time + result.compute_time + result.sandbox_restore_time;
  result.critical_path_time = result.total_time;

  if (verify && !cp.payloads_dropped()) {
    VerifyReconstruction(sb, "RestoreOp");
    result.verified = true;
  }

  sb.patches.clear();
  cluster_.MarkRestored(sb, now);
  restore_ops_.Add();
  pages_restored_.fetch_add(n, std::memory_order_relaxed);
  base_bytes_read_.fetch_add(result.base_bytes_read, std::memory_order_relaxed);
  base_pages_read_.Add(result.base_pages_read);
  restore_op_us_.Record(result.total_time.value());
  restore_base_read_us_.Record(result.read_base_time.value());
  restore_compute_us_.Record(result.compute_time.value());
  restore_criu_us_.Record(result.sandbox_restore_time.value());
  if (obs::TraceEnabled()) {
    // The three restore components of the paper's Fig. 8, sequential in the
    // modelled timeline: base page reading, original page computing, and
    // sandbox restoration (CRIU rebuild).
    obs::ScopedSpan op("restore_op", "restore", now, sb.node.value(), op_ctx);
    op.SetSimDuration(result.total_time);
    op.AddArg("patched_pages", static_cast<int64_t>(n));
    op.AddArg("base_pages_read", static_cast<int64_t>(result.base_pages_read));
    op.AddArg("remote_reads", static_cast<int64_t>(result.remote_reads));
    SimTime cursor = now;
    auto stage = [&](const char* name, SimDuration dur) {
      obs::ScopedSpan span(name, "restore", cursor, sb.node.value(), op_ctx.Child(name));
      span.SetSimDuration(dur);
      cursor += dur;
    };
    stage("restore/base_read", result.read_base_time);
    stage("restore/patch_apply", result.compute_time);
    stage("restore/criu_rebuild", result.sandbox_restore_time);
  }
  return result;
}

std::vector<SharedPage> DedupAgent::FetchBases(Sandbox& sb, const std::vector<size_t>& records,
                                               bool batched, SimDuration* cost,
                                               size_t* pages_read, size_t* bytes_read,
                                               size_t* remote_reads,
                                               const obs::MessageTrace& trace) {
  std::vector<PageLocation> locations;
  for (size_t idx : records) {
    locations.insert(locations.end(), sb.patches[idx].bases.begin(),
                     sb.patches[idx].bases.end());
  }
  std::vector<SharedPage> pages;
  if (batched) {
    pages = fabric_.ReadSharedPageBatch(locations, sb.node, cost, trace);
  } else {
    pages.reserve(locations.size());
    for (size_t k = 0; k < locations.size(); ++k) {
      pages.push_back(fabric_.ReadSharedPage(
          locations[k], sb.node, cost, obs::MessageTrace{trace.ctx, trace.at, trace.ordinal + k}));
    }
  }
  std::vector<SharedPage> bases(records.size());
  size_t k = 0;
  for (size_t j = 0; j < records.size(); ++j) {
    const PatchRecord& record = sb.patches[records[j]];
    for (size_t b = 0; b < record.bases.size(); ++b) {
      const PageLocation& base = record.bases[b];
      ++*pages_read;
      *bytes_read += pages[k + b]->size();
      if (base.node != sb.node) {
        ++*remote_reads;
      }
      registry_.Unref(base.sandbox);
    }
    bases[j] = JoinBases(std::span<const SharedPage>(pages).subspan(k, record.bases.size()));
    k += record.bases.size();
  }
  return bases;
}

void DedupAgent::VerifyReconstruction(const Sandbox& sb, const char* op) const {
  const std::vector<uint8_t> reconstructed = sb.checkpoint->ToBytes();
  const MemoryImage original = cluster_.BuildImage(sb);
  if (reconstructed.size() != original.SizeBytes() ||
      std::memcmp(reconstructed.data(), original.bytes().data(), reconstructed.size()) != 0) {
    throw std::logic_error(std::string(op) +
                           ": reconstruction does not match the original image");
  }
}

size_t DedupAgent::DecodeAndRestore(Sandbox& sb, const std::vector<size_t>& records,
                                    const std::vector<SharedPage>& bases) {
  MemoryCheckpoint& cp = *sb.checkpoint;
  const bool payloads = !cp.payloads_dropped();
  size_t patch_bytes_applied = 0;
  for (size_t idx : records) {
    patch_bytes_applied += cp.PatchSize(sb.patches[idx].page.value());
  }
  if (!payloads) {
    // Nothing to decode: the slots only record that their pages are back.
    for (size_t idx : records) {
      cp.MarkRestored(sb.patches[idx].page.value());
    }
    return patch_bytes_applied;
  }
  // DeltaDecodeInto writes straight into the output slot: the reconstructed
  // page is required storage anyway, and the pre-sized single-pass decode
  // avoids the growth reallocations DeltaDecode's incremental append incurs.
  std::vector<std::vector<uint8_t>> originals(records.size());
  pool_->ParallelFor(0, records.size(), [&](size_t j) {
    DeltaDecodeInto(*bases[j], cp.PatchData(sb.patches[records[j]].page.value()),
                    originals[j]);
  });
  for (size_t j = 0; j < records.size(); ++j) {
    cp.RestorePage(sb.patches[records[j]].page.value(), std::move(originals[j]));
  }
  return patch_bytes_applied;
}

RestoreOpResult DedupAgent::RestoreLazy(Sandbox& sb, SimTime now, bool verify,
                                        const obs::TraceContext& ctx) {
  const obs::TraceContext op_ctx = ctx.Child("restore_op");
  RestoreOpResult result;
  result.mode = RestoreMode::kLazy;
  const double scale = ScaleFactor();
  MemoryCheckpoint& cp = *sb.checkpoint;
  const bool payloads = !cp.payloads_dropped();
  const size_t num_pages = cp.NumPages();
  const FunctionProfile& profile = cluster_.ProfileOf(sb);
  auto scaled = [](double v) { return SimDuration{static_cast<int64_t>(v)}; };

  // 1. Predict the working set from *prior* invocations, then model the
  // upcoming invocation's touched pages and fold them into the EMA. An
  // unprofiled function prefetches the full image — the self-warming first
  // restore behaves exactly like an eager one (minus read batching).
  std::optional<std::vector<PageIndex>> predicted =
      working_sets_->Predict(sb.function, num_pages);
  std::vector<uint8_t> in_ws(num_pages, 1);
  if (predicted.has_value()) {
    std::fill(in_ws.begin(), in_ws.end(), 0);
    for (PageIndex p : *predicted) {
      in_ws[p.value()] = 1;
    }
    result.ws_predicted_pages = predicted->size();
  } else {
    result.ws_predicted_pages = num_pages;
  }
  const std::vector<PageIndex> touched =
      PostResumeAccessTrace(profile, num_pages, sb.generation + 1);
  result.ws_touched_pages = touched.size();
  std::vector<uint8_t> touched_map(num_pages, 0);
  for (PageIndex p : touched) {
    touched_map[p.value()] = 1;
    if (in_ws[p.value()] != 0) {
      ++result.ws_hit_pages;
    } else {
      ++result.ws_fault_pages;
    }
  }
  working_sets_->Record(sb.function, touched, num_pages);

  // 2. Partition the patch records: critical path (predicted working set),
  // demand faults (touched but not predicted), background (everything else).
  std::vector<size_t> critical_records;
  std::vector<size_t> fault_records;
  std::vector<size_t> background_records;
  for (size_t i = 0; i < sb.patches.size(); ++i) {
    const uint32_t page = sb.patches[i].page.value();
    if (in_ws[page] != 0) {
      critical_records.push_back(i);
    } else if (touched_map[page] != 0) {
      fault_records.push_back(i);
    } else {
      background_records.push_back(i);
    }
  }

  // 3. Critical path: one batched fetch of the working set's bases (one
  // coalesced message per owner node), parallel decode, and a CRIU rebuild
  // that maps only the predicted pages.
  SimDuration ws_fetch_cost;
  const std::vector<SharedPage> critical_bases = FetchBases(
      sb, critical_records, /*batched=*/true, &ws_fetch_cost, &result.base_pages_read,
      &result.base_bytes_read, &result.remote_reads,
      obs::MessageTrace{op_ctx.Child("restore/ws_fetch"), now, 0});
  const size_t critical_base_bytes = result.base_bytes_read;
  const size_t critical_patch_bytes = DecodeAndRestore(sb, critical_records, critical_bases);

  // Critical-phase timing (the Fig. 8 components) is final here; computing
  // it before the fault loop lets the on-demand fetches below anchor their
  // wire spans after resume, where they land in the modelled timeline.
  result.read_base_time = scaled(static_cast<double>(ws_fetch_cost.value()) * scale);
  result.compute_time =
      scaled(static_cast<double>(critical_base_bytes + critical_patch_bytes) * scale /
             options_.patch_bytes_per_us);
  SimDuration criu = scaled(static_cast<double>(options_.criu.restore_per_page.value()) *
                            static_cast<double>(result.ws_predicted_pages) * scale);
  if (!sb.namespaces_prepared) {
    criu += options_.criu.namespace_and_ptree;
  }
  result.sandbox_restore_time = criu;
  result.critical_path_time =
      result.read_base_time + result.compute_time + result.sandbox_restore_time;

  // 4. Demand faults: touched pages the prediction missed. Still-patched
  // ones pay an unbatched on-demand fetch + decode; every mispredicted
  // touch pays the minor-fault trap cost. This is the penalty that keeps a
  // bad working set from being free.
  SimDuration fault_fetch_cost;
  const size_t bytes_before_faults = result.base_bytes_read;
  const std::vector<SharedPage> fault_bases = FetchBases(
      sb, fault_records, /*batched=*/false, &fault_fetch_cost, &result.base_pages_read,
      &result.base_bytes_read, &result.remote_reads,
      obs::MessageTrace{op_ctx.Child("restore/fault_fetch"), now + result.critical_path_time, 0});
  const size_t fault_base_bytes = result.base_bytes_read - bytes_before_faults;
  const size_t fault_patch_bytes = DecodeAndRestore(sb, fault_records, fault_bases);

  // 5. Post-resume fault penalty (the platform still charges it to the
  // request's startup).
  result.fault_time =
      scaled((static_cast<double>(options_.minor_fault_cost.value()) *
                  static_cast<double>(result.ws_fault_pages) +
              static_cast<double>(options_.major_fault_cost.value()) *
                  static_cast<double>(fault_records.size()) +
              static_cast<double>(fault_fetch_cost.value())) *
                 scale +
             static_cast<double>(fault_base_bytes + fault_patch_bytes) * scale /
                 options_.patch_bytes_per_us);
  result.total_time = result.critical_path_time + result.fault_time;

  // 6. Background bookkeeping. With nothing deferred the restore completed
  // in one phase: verify now and release the checkpoint. Otherwise keep the
  // background records (and their base refs) on the sandbox and remember
  // the expected image digest — the source image regenerates differently
  // once the sandbox runs again, so verification must pin it here.
  result.background_pages = background_records.size();
  result.background_pending = !background_records.empty();
  if (!result.background_pending) {
    if (verify && payloads) {
      VerifyReconstruction(sb, "RestoreLazy");
      result.verified = true;
    }
    sb.patches.clear();
    cluster_.MarkRestored(sb, now, /*release_checkpoint=*/true);
  } else {
    std::vector<PatchRecord> remaining;
    remaining.reserve(background_records.size());
    for (size_t idx : background_records) {
      remaining.push_back(std::move(sb.patches[idx]));
    }
    sb.patches = std::move(remaining);
    PendingRestore pending;
    pending.verify = verify && payloads;
    pending.ctx = op_ctx;
    if (pending.verify) {
      MemoryImage original = cluster_.BuildImage(sb);
      pending.expected = Sha1::Hash(original.bytes());
    }
    {
      MutexLock lock(pending_mu_);
      pending_[sb.id] = pending;
    }
    cluster_.MarkRestored(sb, now, /*release_checkpoint=*/false);
  }

  restore_ops_.Add();
  lazy_restores_.fetch_add(1, std::memory_order_relaxed);
  pages_restored_.fetch_add(critical_records.size() + fault_records.size(),
                            std::memory_order_relaxed);
  base_bytes_read_.fetch_add(result.base_bytes_read, std::memory_order_relaxed);
  ws_fault_pages_.Add(result.ws_fault_pages);
  base_pages_read_.Add(result.base_pages_read);
  ws_hit_pages_.Add(result.ws_hit_pages);
  deferred_pages_.Add(result.background_pages);
  restore_op_us_.Record(result.total_time.value());
  restore_base_read_us_.Record(result.read_base_time.value());
  restore_compute_us_.Record(result.compute_time.value());
  restore_criu_us_.Record(result.sandbox_restore_time.value());
  restore_critical_us_.Record(result.critical_path_time.value());
  restore_fault_us_.Record(result.fault_time.value());
  if (obs::TraceEnabled()) {
    // Critical phase laid out sequentially; the fault penalty is an arg on
    // the op span (it has no fixed position in the modelled timeline).
    obs::ScopedSpan op("restore_op", "restore", now, sb.node.value(), op_ctx);
    op.SetSimDuration(result.total_time);
    op.AddArg("patched_pages", static_cast<int64_t>(sb.patches.size() + critical_records.size() +
                                                    fault_records.size()));
    op.AddArg("ws_predicted", static_cast<int64_t>(result.ws_predicted_pages));
    op.AddArg("ws_hits", static_cast<int64_t>(result.ws_hit_pages));
    op.AddArg("ws_faults", static_cast<int64_t>(result.ws_fault_pages));
    op.AddArg("background_pages", static_cast<int64_t>(result.background_pages));
    op.AddArg("fault_us", result.fault_time.value());
    SimTime cursor = now;
    auto stage = [&](const char* name, SimDuration dur) {
      obs::ScopedSpan span(name, "restore", cursor, sb.node.value(), op_ctx.Child(name));
      span.SetSimDuration(dur);
      cursor += dur;
    };
    stage("restore/ws_fetch", result.read_base_time);
    stage("restore/patch_apply", result.compute_time);
    stage("restore/criu_rebuild", result.sandbox_restore_time);
    if (!fault_records.empty()) {
      // Anchors the on-demand fetches' wire spans: they were parented to
      // this context, so it must be recorded for parent links to resolve.
      obs::ScopedSpan faults("restore/fault_fetch", "restore", cursor, sb.node.value(),
                             op_ctx.Child("restore/fault_fetch"));
      faults.SetSimDuration(result.fault_time);
      faults.AddArg("pages", static_cast<int64_t>(fault_records.size()));
    }
  }
  return result;
}

BackgroundRestoreResult DedupAgent::CompleteBackgroundRestore(Sandbox& sb, SimTime now) {
  PendingRestore pending;
  {
    MutexLock lock(pending_mu_);
    auto it = pending_.find(sb.id);
    if (it == pending_.end()) {
      return {};
    }
    pending = it->second;
    pending_.erase(it);
  }
  if (!sb.checkpoint.has_value()) {
    return {};  // superseded (re-deduped) between scheduling and firing
  }
  BackgroundRestoreResult result;
  const double scale = ScaleFactor();
  MemoryCheckpoint& cp = *sb.checkpoint;

  // Same trace as the restore op that deferred this work: the background
  // span is a child of the op span captured in the pending record.
  const obs::TraceContext bg_ctx = pending.ctx.Child("restore/bg_fault");
  const std::vector<size_t> records = AllRecords(sb);
  SimDuration fetch_cost;
  const std::vector<SharedPage> bases =
      FetchBases(sb, records, /*batched=*/true, &fetch_cost, &result.base_pages_read,
                 &result.base_bytes_read, &result.remote_reads, obs::MessageTrace{bg_ctx, now, 0});
  const size_t patch_bytes = DecodeAndRestore(sb, records, bases);
  result.pages = records.size();
  result.total_time =
      SimDuration{static_cast<int64_t>(static_cast<double>(fetch_cost.value()) * scale)} +
      SimDuration{static_cast<int64_t>(
          static_cast<double>(result.base_bytes_read + patch_bytes) * scale /
          options_.patch_bytes_per_us)} +
      SimDuration{static_cast<int64_t>(static_cast<double>(options_.criu.restore_per_page.value()) *
                                       static_cast<double>(result.pages) * scale)};

  if (pending.verify && !cp.payloads_dropped()) {
    std::vector<uint8_t> reconstructed = cp.ToBytes();
    if (Sha1::Hash(reconstructed) != pending.expected) {
      throw std::logic_error(
          "CompleteBackgroundRestore: reconstruction does not match the image digest");
    }
    result.verified = true;
  }
  sb.patches.clear();
  sb.checkpoint.reset();

  background_completions_.fetch_add(1, std::memory_order_relaxed);
  background_pages_.fetch_add(result.pages, std::memory_order_relaxed);
  pages_restored_.fetch_add(result.pages, std::memory_order_relaxed);
  base_bytes_read_.fetch_add(result.base_bytes_read, std::memory_order_relaxed);
  base_pages_read_.Add(result.base_pages_read);
  restore_background_us_.Record(result.total_time.value());
  if (obs::TraceEnabled()) {
    obs::ScopedSpan span("restore/bg_fault", "restore", now, sb.node.value(), bg_ctx);
    span.SetSimDuration(result.total_time);
    span.AddArg("pages", static_cast<int64_t>(result.pages));
    span.AddArg("base_pages_read", static_cast<int64_t>(result.base_pages_read));
    span.AddArg("verified", static_cast<int64_t>(result.verified ? 1 : 0));
  }
  return result;
}

bool DedupAgent::HasPendingBackgroundRestore(SandboxId id) const {
  MutexLock lock(pending_mu_);
  return pending_.contains(id);
}

void DedupAgent::AbandonBackgroundRestore(SandboxId id) {
  MutexLock lock(pending_mu_);
  pending_.erase(id);
}

BaseSnapshot& DedupAgent::DesignateBase(Sandbox& sb, SimTime now, const obs::TraceContext& ctx) {
  if (sb.state != SandboxState::kWarm) {
    throw std::logic_error("DesignateBase: sandbox must be warm");
  }
  // Recorded even when untraced (legacy behaviourally invisible: spans
  // without ids only appear once tracing is on). The designation span
  // anchors the registry-insert wire spans sent below.
  const obs::TraceContext designate_ctx = ctx.Child("designate_base");
  obs::ScopedSpan designate("designate_base", "dedup", now, sb.node.value(), designate_ctx);
  const MemoryImage image = cluster_.BuildImage(sb);
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image);
  const std::vector<size_t> resident = ResidentPages(cp);
  std::vector<PageFingerprint> resident_fps = FingerprintPages(image, resident);
  // Zero pages keep empty fingerprints (not inserted into the registry).
  std::vector<PageFingerprint> fingerprints(cp.NumPages());
  for (size_t i = 0; i < resident.size(); ++i) {
    fingerprints[resident[i]] = std::move(resident_fps[i]);
  }
  registry_.InsertBaseSandbox(sb.node, sb.id, fingerprints,
                              obs::MessageTrace{designate_ctx, now, 0});
  bases_designated_.Add();
  return cluster_.AddBaseSnapshot(sb, std::move(cp));
}

DedupAgentStats DedupAgent::stats() const {
  return DedupAgentStats{
      .dedup_ops = dedup_ops_.Value(),
      .restore_ops = restore_ops_.Value(),
      .bases_designated = bases_designated_.Value(),
      .pages_deduped = pages_deduped_.Value(),
      .pages_restored = pages_restored_.load(std::memory_order_relaxed),
      .patch_bytes = patch_bytes_.Value(),
      .saved_bytes = saved_bytes_.Value(),
      .base_bytes_read = base_bytes_read_.load(std::memory_order_relaxed),
      .lazy_restores = lazy_restores_.load(std::memory_order_relaxed),
      .ws_fault_pages = ws_fault_pages_.Value(),
      .background_completions = background_completions_.load(std::memory_order_relaxed),
      .background_pages = background_pages_.load(std::memory_order_relaxed),
  };
}

}  // namespace medes
