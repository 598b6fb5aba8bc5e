#include "platform/platform.h"

#include <algorithm>
#include <array>
#include <map>
#include <stdexcept>

#include "common/logging.h"
#include "common/mutex.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace medes {

namespace {

obs::Counter& RequestsSeries(StartType type) {
  return obs::MetricsRegistry::Default().GetCounter(
      "medes_platform_requests_total", "start_type", ToString(type));
}

}  // namespace

const char* ToString(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kFixedKeepAlive:
      return "fixed-keep-alive";
    case PolicyKind::kAdaptiveKeepAlive:
      return "adaptive-keep-alive";
    case PolicyKind::kMedes:
      return "medes";
  }
  return "?";
}

class ServerlessPlatform::Impl {
 public:
  explicit Impl(PlatformOptions options)
      : options_(std::move(options)),
        cluster_(options_.cluster),
        transport_(MakeTransport(options_)),
        registry_(options_.registry),
        fabric_(options_.rdma,
                [this](const PageLocation& loc) { return cluster_.ReadBasePage(loc); },
                transport_),
        agent_(cluster_, registry_, fabric_, WithPayloadPolicy(options_)),
        controller_(cluster_, options_.medes, transport_, ControllerNode(options_)),
        adaptive_(FunctionBenchProfiles().size(), AdaptiveKeepAlive(options_.adaptive)) {
    // The registry lives with the controller, so lookups and inserts are
    // charged as messages to the controller's node.
    registry_.BindTransport(transport_, ControllerNode(options_));
    MutexLock lock(metrics_mu_);
    metrics_.per_function.resize(FunctionBenchProfiles().size());
  }

  // The controller occupies the node right after the workers.
  static NodeId ControllerNode(const PlatformOptions& options) {
    return NodeId{options.cluster.num_nodes};
  }

  static std::shared_ptr<Transport> MakeTransport(const PlatformOptions& options) {
    Topology topology;
    topology.remote = options.network.remote;
    topology.local = options.network.local;
    return std::make_shared<Transport>(topology);
  }

  RunMetrics Run(const std::vector<TraceEvent>& trace) {
    if (ran_) {
      throw std::logic_error("ServerlessPlatform::Run may only be called once");
    }
    ran_ = true;
    {
      // Pre-size the per-request records and the sample timeline: both grow
      // to known sizes, so the hot path never pays a reallocation copy.
      MutexLock lock(metrics_mu_);
      metrics_.requests.reserve(trace.size());
      metrics_.memory_timeline.reserve(
          trace.empty() ? 1
                        : static_cast<size_t>((trace.back().time.value() + (10 * kMinute).value()) /
                                              options_.memory_sample_interval.value()) +
                              2);
    }
    // Reserve the whole trace's tie-break seqs up front: the chained feed then
    // fires in exactly the order scheduling the whole trace at once would,
    // while only one arrival is ever pending.
    arrival_seq_base_ = sim_.ReserveSeqBlock(trace.size());
    ScheduleArrivalChain(trace, 0);
    // Memory sampling covers the trace plus a drain tail.
    const SimTime end = trace.empty() ? SimTime{} : trace.back().time;
    for (SimTime t; t <= end + 10 * kMinute; t += options_.memory_sample_interval) {
      sim_.Schedule(t, [this] { SampleMemory(); });
    }
    sim_.Run();
    // Component stats are pulled before taking the metrics lock: their
    // accessors acquire lower-ranked locks (registry table, rdma cache).
    const RegistryStats registry_stats = registry_.stats();
    const RdmaStats rdma_stats = fabric_.stats();
    const TransportStats transport_stats = transport_->stats();
    MutexLock lock(metrics_mu_);
    metrics_.sandboxes_spawned = spawns_.Value();
    metrics_.evictions = evictions_.Value();
    metrics_.base_designations = base_designations_.Value();
    metrics_.overcommit_events = overcommits_.Value();
    metrics_.registry = registry_stats;
    metrics_.rdma = rdma_stats;
    metrics_.transport = transport_stats;
    return std::move(metrics_);
  }

  Cluster& cluster() { return cluster_; }
  FingerprintRegistry& registry() { return registry_; }
  MedesController& controller() { return controller_; }
  Transport& transport() { return *transport_; }
  Simulation& sim() { return sim_; }

 private:
  // Streams the sorted trace through the scheduler: each arrival's callback
  // schedules its successor, so pending arrivals never exceed one regardless
  // of trace length. `trace` is Run's argument and outlives every arrival
  // event (Run drains the simulation before returning).
  void ScheduleArrivalChain(const std::vector<TraceEvent>& trace, size_t index) {
    if (index >= trace.size()) {
      return;
    }
    sim_.ScheduleWithSeq(trace[index].time, arrival_seq_base_ + index, [this, &trace, index] {
      ScheduleArrivalChain(trace, index + 1);
      HandleRequest(trace[index]);
    });
  }

  static DedupAgentOptions WithPayloadPolicy(const PlatformOptions& options) {
    DedupAgentOptions agent = options.agent;
    agent.keep_payloads = options.verify_restores;
    return agent;
  }

  const FunctionProfile& Profile(FunctionId f) const {
    return FunctionBenchProfiles().at(static_cast<size_t>(f));
  }

  // Medes' lifecycle timers only. The keep-alive policies never cancel:
  // their expiry event lapses or re-arms when it fires (ArmKeepAlive), so
  // under them this finds nothing pending.
  void CancelTimer(Sandbox& sb) {
    if (sb.pending_timer != 0) {
      sim_.Cancel(sb.pending_timer);
      sb.pending_timer = 0;
    }
    // Coalesced idle-expiry enrollment cancels lazily: the bucket entry stays
    // queued and is skipped when its deadline no longer matches.
    sb.idle_deadline = SimTime{};
  }

  // Frees memory on `node` until `required_mb` fits under the limit.
  // Under the keep-alive baselines, pressure evicts idle warm sandboxes
  // (LRU). Under Medes, pressure first *deduplicates* idle warm sandboxes —
  // shrinking their footprint instead of destroying them (paper Section
  // 7.4) — and only then purges, oldest dedup sandboxes first and
  // unreferenced base snapshots last. Returns false if it cannot fit.
  // `exclude` protects the sandbox the caller is operating on;
  // `spare_warm` additionally forbids touching warm sandboxes (used when
  // making room for a base snapshot — displacing warm sandboxes for a base
  // costs more cold starts than the base saves).
  bool EnsureFits(NodeId node, double required_mb, SandboxId exclude = kNoSandbox,
                  bool spare_warm = false, const obs::TraceContext& ctx = {}) {
    const double limit = cluster_.node(node).options.memory_limit_mb;
    while (cluster_.node(node).used_mb + required_mb > limit) {
      Sandbox* warm_victim = nullptr;
      if (!spare_warm) {
        for (SandboxId id : cluster_.node(node).sandboxes) {
          Sandbox* sb = cluster_.Find(id);
          if (sb->state != SandboxState::kWarm || id == exclude) {
            continue;
          }
          if (warm_victim == nullptr || sb->last_used < warm_victim->last_used) {
            warm_victim = sb;
          }
        }
      }
      // Medes: shrink the oldest idle warm sandbox via dedup before
      // resorting to eviction (only worthwhile once base pages exist).
      if (warm_victim != nullptr && options_.policy == PolicyKind::kMedes &&
          !cluster_.base_snapshots().empty() &&
          cluster_.FindBaseSnapshot(warm_victim->id) == nullptr) {
        PressureDedup(*warm_victim, ctx);
        continue;
      }
      if (warm_victim != nullptr) {
        PurgeSandbox(*warm_victim);
        RecordEviction(node);
        continue;
      }
      Sandbox* dedup_victim = nullptr;
      for (SandboxId id : cluster_.node(node).sandboxes) {
        Sandbox* sb = cluster_.Find(id);
        if (sb->state != SandboxState::kDedup || id == exclude) {
          continue;
        }
        if (dedup_victim == nullptr || sb->dedup_since < dedup_victim->dedup_since) {
          dedup_victim = sb;
        }
      }
      if (dedup_victim != nullptr) {
        PurgeSandbox(*dedup_victim);
        RecordEviction(node);
        continue;
      }
      // Unreferenced base snapshots go last: evicting one forces an expensive
      // re-designation the next time the policy wants to dedup.
      SandboxId base_victim = kNoSandbox;
      for (const auto& [id, snap] : cluster_.base_snapshots()) {
        if (snap.node == node && registry_.RefCount(id) == 0) {
          base_victim = id;
          break;
        }
      }
      if (base_victim != kNoSandbox) {
        registry_.RemoveBaseSandbox(base_victim);
        cluster_.RemoveBaseSnapshot(base_victim);
        fabric_.InvalidateSandbox(base_victim);  // reclaim its cached pages
        RecordEviction(node);
        continue;
      }
      return false;  // only running sandboxes and referenced bases left
    }
    return true;
  }

  // True when `mb` fits in the node's free space without evicting anything.
  bool FitsWithoutEviction(NodeId node, double mb) const {
    return cluster_.node(node).used_mb + mb <= cluster_.node(node).options.memory_limit_mb;
  }

  // Dedups an idle warm sandbox to relieve memory pressure (keeps it usable
  // as a dedup start instead of destroying it).
  void PressureDedup(Sandbox& sb, const obs::TraceContext& ctx = {}) {
    CancelTimer(sb);
    const SimTime now = sim_.Now();
    // Several pressure dedups can hang off one root context (EnsureFits
    // loops over victims); the victim's id keeps their span ids distinct.
    const obs::TraceContext pd_ctx = ctx.Child("pressure_dedup", sb.id.value());
    const DedupOpResult result = agent_.DedupOp(sb, now, pd_ctx);
    {
      obs::ScopedSpan span("pressure_dedup", "platform", now, sb.node.value(), pd_ctx);
      span.SetSimDuration(result.total_time);
      span.AddArg("sandbox", static_cast<int64_t>(sb.id.value()));
    }
    RecordDedup(sb, result);
    const SandboxId id = sb.id;
    sb.pending_timer =
        sim_.ScheduleAfter(options_.medes.keep_dedup, [this, id] { OnKeepDedupTimer(id); });
  }

  void RecordEviction(NodeId node) {
    evictions_.Add();
    obs::RecordInstant("evict", "platform", sim_.Now(), node.value());
  }

  // Dedup-op metrics shared by the policy path and the pressure path.
  void RecordDedup(Sandbox& sb, const DedupOpResult& result) EXCLUDES(metrics_mu_) {
    controller_.RecordDedupResult(sb.function, result);
    MutexLock lock(metrics_mu_);
    ++metrics_.dedup_ops;
    ++metrics_.sandboxes_deduped;
    metrics_.same_function_pages += result.same_function_pages;
    metrics_.cross_function_pages += result.cross_function_pages;
    auto& fm = metrics_.per_function[static_cast<size_t>(sb.function)];
    ++fm.dedup_ops;
    fm.total_saved_mb += static_cast<double>(result.saved_bytes) /
                         static_cast<double>(cluster_.options().bytes_per_mb);
    fm.total_patch_bytes += result.patch_bytes;
    fm.total_pages_deduped += result.pages_deduped;
  }

  void PurgeSandbox(Sandbox& sb) {
    CancelTimer(sb);
    // Unconditional: a warm sandbox with a pending background restore still
    // holds patch records (and base refs) for its not-yet-fetched pages.
    for (const PatchRecord& record : sb.patches) {
      for (const PageLocation& base : record.bases) {
        registry_.Unref(base.sandbox);
      }
    }
    agent_.AbandonBackgroundRestore(sb.id);
    cluster_.Purge(sb.id);
  }

  void HandleRequest(const TraceEvent& ev) {
    const FunctionProfile& profile = Profile(ev.function);
    const SimTime now = sim_.Now();
    // Root trace identity for this invocation. The event loop is
    // single-threaded, so the serial sequence counter — and through it every
    // derived span id — is a pure function of arrival order.
    const obs::TraceContext ctx = obs::MintTraceContext(next_trace_seq_++);
    // Only the active policy's tracker: nothing else reads them.
    switch (options_.policy) {
      case PolicyKind::kFixedKeepAlive:
        break;
      case PolicyKind::kAdaptiveKeepAlive:
        adaptive_[static_cast<size_t>(ev.function)].RecordArrival(now);
        break;
      case PolicyKind::kMedes:
        controller_.RecordArrival(ev.function, now);
        break;
    }

    StartType type;
    SimDuration startup;
    // The most recently used warm sandbox, else the most recently
    // deduplicated one, else a cold spawn.
    Sandbox* sb = cluster_.MostRecentWarm(ev.function);
    if (sb != nullptr) {
      CancelTimer(*sb);
      type = StartType::kWarm;
      startup = profile.warm_start;
      cluster_.MarkRunning(*sb, now);
    } else if ((sb = cluster_.MostRecentDedup(ev.function)) != nullptr) {
      CancelTimer(*sb);
      RestoreOpResult restore = agent_.RestoreOp(*sb, now, options_.verify_restores, ctx);
      controller_.RecordRestoreResult(ev.function, restore);
      {
        MutexLock lock(metrics_mu_);
        auto& fm = metrics_.per_function[static_cast<size_t>(ev.function)];
        fm.restore_read_ms.Record(ToMillis(restore.read_base_time));
        fm.restore_compute_ms.Record(ToMillis(restore.compute_time));
        fm.restore_criu_ms.Record(ToMillis(restore.sandbox_restore_time));
        ++metrics_.restores;
        LazyRestoreStats& lz = metrics_.lazy_restore;
        if (restore.mode == RestoreMode::kLazy) {
          ++lz.lazy_restores;
          lz.ws_predicted_pages += restore.ws_predicted_pages;
          lz.ws_touched_pages += restore.ws_touched_pages;
          lz.ws_hit_pages += restore.ws_hit_pages;
          lz.ws_fault_pages += restore.ws_fault_pages;
          lz.fault_ms += ToMillis(restore.fault_time);
        } else {
          ++lz.eager_restores;
        }
        lz.critical_path_ms.Record(ToMillis(restore.critical_path_time));
      }
      if (restore.background_pending) {
        // The off-critical-path phase: fires once the request's startup
        // window has elapsed (the prefetcher works behind the resumed
        // function). A purge or re-dedup before then abandons it.
        const SandboxId restore_id = sb->id;
        sim_.ScheduleAfter(restore.total_time,
                           [this, restore_id] { OnBackgroundRestore(restore_id); });
      }
      type = StartType::kDedup;
      startup = restore.total_time;
      cluster_.MarkRunning(*sb, now);
    } else {
      NodeId node = cluster_.LeastUsedNode();
      if (!EnsureFits(node, profile.memory_mb, kNoSandbox, /*spare_warm=*/false, ctx)) {
        overcommits_.Add();
        obs::RecordInstant("overcommit", "platform", now, node.value());
      }
      sb = &cluster_.Spawn(profile, node, now);
      spawns_.Add();
      obs::RecordInstant("spawn", "platform", now, node.value());
      type = StartType::kCold;
      startup = options_.emulate_catalyzer ? options_.catalyzer_restore : profile.cold_start;
    }

    const SimDuration e2e = startup + profile.exec_time;
    RequestRecord record{now, startup, e2e, ev.function, type};
    {
      MutexLock lock(metrics_mu_);
      metrics_.requests.push_back(record);
      auto& fm = metrics_.per_function[static_cast<size_t>(ev.function)];
      switch (type) {
        case StartType::kWarm:
          ++fm.warm_starts;
          break;
        case StartType::kDedup:
          ++fm.dedup_starts;
          break;
        case StartType::kCold:
          ++fm.cold_starts;
          break;
      }
    }
    requests_by_start_[static_cast<size_t>(type)]->Add();
    e2e_us_.Record(e2e.value());
    startup_us_.Record(startup.value());
    if (obs::TraceEnabled()) {
      obs::ScopedSpan span("request", "platform", now, sb->node.value(), ctx);
      span.SetSimDuration(e2e);
      span.AddArg("function", static_cast<int64_t>(ev.function));
      span.AddArg("start_type", static_cast<int64_t>(type));
      span.AddArg("startup_us", startup.value());
    }

    const SandboxId id = sb->id;
    sim_.ScheduleAfter(e2e, [this, id] { OnComplete(id); });
  }

  // Completes a lazy restore's deferred page fetches. The pending entry may
  // be gone by now (purge, or a re-dedup flushed it) — then this is a no-op.
  void OnBackgroundRestore(SandboxId id) {
    Sandbox* sb = cluster_.Find(id);
    if (sb == nullptr) {
      agent_.AbandonBackgroundRestore(id);
      return;
    }
    const BackgroundRestoreResult result = agent_.CompleteBackgroundRestore(*sb, sim_.Now());
    if (result.pages == 0 && result.base_pages_read == 0) {
      return;
    }
    MutexLock lock(metrics_mu_);
    LazyRestoreStats& lz = metrics_.lazy_restore;
    ++lz.background_completions;
    lz.background_pages += result.pages;
  }

  void OnComplete(SandboxId id) {
    Sandbox* sb = cluster_.Find(id);
    if (sb == nullptr) {
      return;  // should not happen: running sandboxes are never evicted
    }
    cluster_.MarkWarm(*sb, sim_.Now());
    ArmPostCompletionTimer(*sb);
  }

  // Starts a warm sandbox's idle period: the keep-alive baselines move its
  // expiry deadline, Medes enrolls it for an idle-expiry decision.
  void ArmPostCompletionTimer(Sandbox& sb) {
    switch (options_.policy) {
      case PolicyKind::kFixedKeepAlive:
        ArmKeepAlive(sb, options_.fixed_keep_alive);
        break;
      case PolicyKind::kAdaptiveKeepAlive:
        ArmKeepAlive(sb, adaptive_[static_cast<size_t>(sb.function)].KeepAlive());
        break;
      case PolicyKind::kMedes:
        ArmIdle(sb);
        break;
    }
  }

  // Keep-alive expiry without cancellation. A completion sets the deadline
  // and reserves the tie-break seq a purge timer scheduled right now would
  // get, but queues an event only if none is queued or the new deadline is
  // earlier than the queued one (the adaptive window can shrink). Warm reuse
  // cancels nothing; the queued event, when it fires, lapses if the sandbox
  // is running or gone, re-arms at the deadline with the reserved seq if a
  // later completion moved it, and purges otherwise. Each purge therefore
  // fires at the (time, seq) the cancel-and-re-arm timer gave it.
  void ArmKeepAlive(Sandbox& sb, SimDuration window) {
    KeepAliveExpiry& e = sb.expiry;
    e.deadline = sim_.Now() + window;
    e.deadline_seq = sim_.ReserveSeqBlock(1);
    if (e.queued_seq == 0 || e.deadline < e.queued_at) {
      QueueExpiry(sb);
    }
  }

  // Queues the deadline's own event; one queued earlier stops being current.
  void QueueExpiry(Sandbox& sb) {
    KeepAliveExpiry& e = sb.expiry;
    e.queued_at = e.deadline;
    e.queued_seq = e.deadline_seq;
    const SandboxId id = sb.id;
    const uint64_t seq = e.deadline_seq;
    sim_.ScheduleWithSeq(e.deadline, seq, [this, id, seq] { OnExpiry(id, seq); });
  }

  // The seq, not the instant, tells the current event from a superseded one:
  // both can be due at the same instant.
  void OnExpiry(SandboxId id, uint64_t seq) {
    Sandbox* sb = cluster_.Find(id);
    if (sb == nullptr || sb->expiry.queued_seq != seq) {
      return;  // purged, or superseded by an earlier deadline's event
    }
    sb->expiry.queued_seq = 0;
    if (sb->state != SandboxState::kWarm) {
      return;  // running: its completion queues the next event
    }
    if (seq != sb->expiry.deadline_seq) {
      QueueExpiry(*sb);  // a later completion moved the deadline
      return;
    }
    PurgeSandbox(*sb);
  }

  // Enrolls a warm sandbox for an idle-expiry decision one idle period from
  // now. Every sandbox sharing a deadline waits behind one timer event.
  void ArmIdle(Sandbox& sb) {
    const SimTime deadline = sim_.Now() + options_.medes.idle_period;
    sb.idle_deadline = deadline;
    std::vector<SandboxId>& bucket = idle_buckets_[deadline];
    if (bucket.empty()) {
      sim_.Schedule(deadline, [this, deadline] { OnIdleBucket(deadline); });
    }
    bucket.push_back(sb.id);
  }

  // One deadline's worth of coalesced idle expiries. Entries whose sandbox
  // died, left kWarm, or re-enrolled under a different deadline are skipped —
  // that is the lazy cancellation CancelTimer relies on.
  void OnIdleBucket(SimTime deadline) {
    auto it = idle_buckets_.find(deadline);
    if (it == idle_buckets_.end()) {
      return;
    }
    const std::vector<SandboxId> due = std::move(it->second);
    idle_buckets_.erase(it);
    for (const SandboxId id : due) {
      Sandbox* sb = cluster_.Find(id);
      if (sb == nullptr || sb->state != SandboxState::kWarm || sb->idle_deadline != deadline) {
        continue;
      }
      sb->idle_deadline = SimTime{};
      IdleExpiry(*sb);
    }
  }

  // The Medes idle-period decision for one warm sandbox (paper Fig. 4b):
  // ask the controller, then keep-warm / designate-base / dedup.
  void IdleExpiry(Sandbox& sbox) {
    Sandbox* sb = &sbox;
    const SandboxId id = sb->id;
    const SimTime now = sim_.Now();
    const bool keep_alive_expired = now - sb->last_used >= options_.medes.keep_alive;
    // Idle decisions get their own root trace (they are not caused by any
    // single request): the decision message, a designation's registry
    // inserts, and a dedup op's whole span tree hang off this root.
    const obs::TraceContext ctx = obs::MintTraceContext(next_trace_seq_++);
    const IdleDecision decision =
        controller_.OnIdleExpiry(*sb, now, obs::MessageTrace{ctx, now, 0});
    // Function-scope RAII: the kDedup branch stamps the dedup op's modelled
    // duration so critical-path attribution over idle trees is meaningful.
    obs::ScopedSpan span("idle_decision", "platform", now, sb->node.value(), ctx);
    span.AddArg("decision", static_cast<int64_t>(decision));
    span.AddArg("function", static_cast<int64_t>(sb->function));
    switch (decision) {
      case IdleDecision::kKeepWarm: {
        if (keep_alive_expired) {
          PurgeSandbox(*sb);
          return;
        }
        ArmIdle(*sb);
        break;
      }
      case IdleDecision::kDesignateBase: {
        // The snapshot costs a full extra copy of the sandbox's memory.
        // Make room by purging dedup sandboxes / unreferenced bases if
        // necessary, but never displace warm sandboxes for it.
        if (EnsureFits(sb->node, cluster_.ProfileOf(*sb).memory_mb, sb->id,
                       /*spare_warm=*/true, ctx)) {
          agent_.DesignateBase(*sb, now, ctx);
          base_designations_.Add();
          obs::RecordInstant("base_designation", "platform", now, sb->node.value());
        } else if (keep_alive_expired) {
          // No room for a base; the sandbox follows the normal warm
          // lifecycle so it cannot linger forever.
          PurgeSandbox(*sb);
          return;
        }
        ArmIdle(*sb);
        break;
      }
      case IdleDecision::kDedup: {
        const DedupOpResult result = agent_.DedupOp(*sb, now, ctx);
        span.SetSimDuration(result.total_time);
        RecordDedup(*sb, result);
        sb->pending_timer =
            sim_.ScheduleAfter(options_.medes.keep_dedup, [this, id] { OnKeepDedupTimer(id); });
        break;
      }
    }
  }

  void OnKeepDedupTimer(SandboxId id) {
    Sandbox* sb = cluster_.Find(id);
    if (sb == nullptr || sb->state != SandboxState::kDedup) {
      return;
    }
    sb->pending_timer = 0;
    PurgeSandbox(*sb);
  }

  void SampleMemory() {
    MemorySample s;
    s.time = sim_.Now();
    s.used_mb = cluster_.TotalUsedMb();
    s.idle_warm_mb_per_function.assign(FunctionBenchProfiles().size(), 0.0);
    cluster_.ForEachSandbox([this, &s](const Sandbox& sb) {
      ++s.sandboxes;
      if (sb.state == SandboxState::kDedup) {
        ++s.dedup;
      } else if (sb.state == SandboxState::kWarm) {
        ++s.warm;
        s.idle_warm_mb_per_function[static_cast<size_t>(sb.function)] +=
            cluster_.WarmFootprintMb(sb);
      }
    });
    s.bases = cluster_.base_snapshots().size();
    // Refresh the level gauges.
    live_sandboxes_.Set(static_cast<int64_t>(s.sandboxes));
    warm_sandboxes_.Set(static_cast<int64_t>(s.warm));
    dedup_sandboxes_.Set(static_cast<int64_t>(s.dedup));
    base_snapshots_.Set(static_cast<int64_t>(s.bases));
    used_mb_.Set(static_cast<int64_t>(s.used_mb));
    MutexLock lock(metrics_mu_);
    metrics_.memory_timeline.push_back(std::move(s));
  }

  PlatformOptions options_;
  Simulation sim_;
  Cluster cluster_;
  std::shared_ptr<Transport> transport_;
  FingerprintRegistry registry_;
  RdmaFabric fabric_;
  DedupAgent agent_;
  MedesController controller_;
  std::vector<AdaptiveKeepAlive> adaptive_;

  // Coalesced Medes idle-expiry: sandboxes due for a decision, bucketed by
  // deadline. One timer event serves the whole bucket; lazily-cancelled
  // entries (idle_deadline mismatch) are skipped at fire time.
  std::map<SimTime, std::vector<SandboxId>> idle_buckets_;

  // The discrete-event loop is single-threaded today, but recording sites
  // take this lock so per-op metrics stay coherent when ops move onto the
  // pool. kMetrics is the leaf rank: never hold it while calling into the
  // agent, registry, or fabric.
  Mutex metrics_mu_;
  RunMetrics metrics_ GUARDED_BY(metrics_mu_);
  // RunMetrics' lifecycle counts, each bound to its series.
  obs::StatCounter spawns_{"medes_platform_spawns_total"};
  obs::StatCounter evictions_{"medes_platform_evictions_total"};
  obs::StatCounter overcommits_{"medes_platform_overcommit_events_total"};
  obs::StatCounter base_designations_{"medes_platform_base_designations_total"};
  // Series with no RunMetrics field.
  std::array<obs::Counter*, 3> requests_by_start_ = {&RequestsSeries(StartType::kWarm),
                                                     &RequestsSeries(StartType::kDedup),
                                                     &RequestsSeries(StartType::kCold)};
  obs::MetricsRegistry& series_ = obs::MetricsRegistry::Default();
  obs::Gauge& live_sandboxes_ = series_.GetGauge("medes_platform_live_sandboxes");
  obs::Gauge& warm_sandboxes_ = series_.GetGauge("medes_platform_warm_sandboxes");
  obs::Gauge& dedup_sandboxes_ = series_.GetGauge("medes_platform_dedup_sandboxes");
  obs::Gauge& base_snapshots_ = series_.GetGauge("medes_platform_base_snapshots");
  obs::Gauge& used_mb_ = series_.GetGauge("medes_platform_used_mb");
  obs::Histogram& e2e_us_ = series_.GetHistogram("medes_platform_e2e_us");
  obs::Histogram& startup_us_ = series_.GetHistogram("medes_platform_startup_us");
  bool ran_ = false;
  // First reserved tie-break seq of the streamed arrival chain.
  uint64_t arrival_seq_base_ = 0;
  // Serial trace-root counter (requests and idle decisions). Only the
  // single-threaded event loop advances it, so minted trace ids are a pure
  // function of event order.
  uint64_t next_trace_seq_ = 0;
};

ServerlessPlatform::ServerlessPlatform(PlatformOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

ServerlessPlatform::~ServerlessPlatform() = default;

RunMetrics ServerlessPlatform::Run(const std::vector<TraceEvent>& trace) {
  return impl_->Run(trace);
}

Cluster& ServerlessPlatform::cluster() { return impl_->cluster(); }
FingerprintRegistry& ServerlessPlatform::registry() { return impl_->registry(); }
MedesController& ServerlessPlatform::controller() { return impl_->controller(); }
Transport& ServerlessPlatform::transport() { return impl_->transport(); }
Simulation& ServerlessPlatform::sim() { return impl_->sim(); }

PlatformOptions MakePlatformOptions(PolicyKind policy) {
  PlatformOptions options;
  options.policy = policy;
  options.cluster.num_nodes = 19;
  options.cluster.node_memory_mb = 2048;
  options.cluster.bytes_per_mb = 8192;
  // Base-page read cache: hot bases (one per function, hit by every dedup
  // and restore of that function) stop paying repeated fabric reads.
  options.rdma.page_cache_capacity = 4096;
  return options;
}

}  // namespace medes
