#include "controller/medes_controller.h"

#include <algorithm>
#include <utility>

namespace medes {

namespace {

obs::Counter& DecisionsSeries(IdleDecision decision) {
  return obs::MetricsRegistry::Default().GetCounter(
      "medes_controller_decisions_total", "decision", ToString(decision));
}

}  // namespace

const char* ToString(IdleDecision decision) {
  switch (decision) {
    case IdleDecision::kKeepWarm:
      return "keep_warm";
    case IdleDecision::kDedup:
      return "dedup";
    case IdleDecision::kDesignateBase:
      return "designate_base";
  }
  return "?";
}

MedesController::MedesController(Cluster& cluster, MedesControllerOptions options,
                                 std::shared_ptr<Transport> transport, NodeId controller_node)
    : cluster_(cluster),
      options_(options),
      transport_(std::move(transport)),
      controller_node_(controller_node),
      tracking_(FunctionBenchProfiles().size()),
      scale_to_mb_(1.0 / static_cast<double>(cluster.options().bytes_per_mb)),
      decisions_{&DecisionsSeries(IdleDecision::kKeepWarm), &DecisionsSeries(IdleDecision::kDedup),
                 &DecisionsSeries(IdleDecision::kDesignateBase)} {}

void MedesController::RecordArrival(FunctionId function, SimTime now) {
  tracking_.at(static_cast<size_t>(function)).rate.RecordArrival(now);
}

void MedesController::RecordDedupResult(FunctionId function, const DedupOpResult& result) {
  auto& t = tracking_.at(static_cast<size_t>(function));
  ++t.dedups;
  const double total_mb =
      static_cast<double>(result.pages_total) * static_cast<double>(kPageSize) * scale_to_mb_;
  const double saved_mb = static_cast<double>(result.saved_bytes) * scale_to_mb_;
  UpdateEma(t.dedup_mb, std::max(0.0, total_mb - saved_mb));
  // Restore-time transient: base pages get read back into memory.
  const double read_mb = static_cast<double>(result.pages_deduped) *
                         static_cast<double>(kPageSize) * scale_to_mb_;
  UpdateEma(t.restore_overhead_mb, read_mb);
}

void MedesController::RecordRestoreResult(FunctionId function, const RestoreOpResult& result) {
  auto& t = tracking_.at(static_cast<size_t>(function));
  ++t.restores;
  UpdateEma(t.dedup_start_s, ToSeconds(result.total_time));
}

MedesPolicyInputs MedesController::EstimateInputs(FunctionId function, SimTime now) const {
  const FunctionProfile& profile = FunctionBenchProfiles().at(static_cast<size_t>(function));
  const auto& t = tracking_.at(static_cast<size_t>(function));

  MedesPolicyInputs in;
  in.total_sandboxes = cluster_.CountIn(function, SandboxState::kWarm) +
                       cluster_.CountIn(function, SandboxState::kDedup);
  in.lambda_max = t.rate.MaxRate(now);
  in.warm_start_s = ToSeconds(profile.warm_start);
  // Until measured, estimate the dedup start as a fifth of the cold start —
  // the rough ratio the paper reports (Fig. 8).
  in.dedup_start_s =
      t.dedup_start_s > 0 ? t.dedup_start_s : std::max(0.05, ToSeconds(profile.cold_start) / 5.0);
  in.reuse_warm_s = ToSeconds(profile.exec_time) + in.warm_start_s;
  in.reuse_dedup_s = ToSeconds(profile.exec_time) + in.dedup_start_s;
  in.warm_mb = profile.memory_mb;
  in.dedup_mb = t.dedup_mb > 0 ? t.dedup_mb : 0.5 * profile.memory_mb;
  in.restore_overhead_mb =
      t.restore_overhead_mb > 0 ? t.restore_overhead_mb : 0.3 * profile.memory_mb;
  return in;
}

double MedesController::MemoryCapShareMb(FunctionId function, SimTime now) const {
  double cap = options_.cluster_memory_cap_mb;
  if (cap <= 0) {
    cap = cluster_.TotalLimitMb();
  }
  double total_rate = 0;
  for (const auto& t : tracking_) {
    total_rate += t.rate.MeanRate(now);
  }
  const double fn_rate = tracking_.at(static_cast<size_t>(function)).rate.MeanRate(now);
  if (total_rate <= 0) {
    return cap / static_cast<double>(tracking_.size());
  }
  return cap * fn_rate / total_rate;
}

double MedesController::AlphaFor(FunctionId function) const {
  for (const FunctionPolicyOverride& o : options_.function_overrides) {
    if (o.function == function) {
      return o.alpha;
    }
  }
  return options_.alpha;
}

IdleDecision MedesController::OnIdleExpiry(const Sandbox& sb, SimTime now,
                                           const obs::MessageTrace& trace) {
  const IdleDecision decision = DecideIdleExpiry(sb, now, trace);
  decisions_[static_cast<size_t>(decision)]->Add();
  return decision;
}

IdleDecision MedesController::DecideIdleExpiry(const Sandbox& sb, SimTime now,
                                               const obs::MessageTrace& trace) {
  // The decision itself is computed controller-side; delivering it to the
  // sandbox's node is one small control-plane message. Drops are ignored —
  // an undelivered decision just leaves the sandbox warm until the next
  // idle-period expiry re-raises it.
  if (transport_ != nullptr) {
    (void)transport_->Send(MessageType::kControlDecision, controller_node_, sb.node,
                     kControlDecisionBytes, /*requests=*/1, trace);
  }
  const FunctionId f = sb.function;
  const int dedups = cluster_.CountIn(f, SandboxState::kDedup);
  const int bases = cluster_.NumBaseSnapshots(f);

  MedesPolicyInputs in = EstimateInputs(f, now);
  MedesPolicyTargets targets;
  switch (options_.objective) {
    case PolicyObjective::kLatency:
      targets = SolveLatencyObjective(in, AlphaFor(f));
      break;
    case PolicyObjective::kMemory:
      targets = SolveMemoryObjective(in, MemoryCapShareMb(f, now));
      break;
    case PolicyObjective::kCombined:
      targets = SolveCombinedObjective(in, AlphaFor(f), MemoryCapShareMb(f, now));
      break;
  }

  const Node& node = cluster_.node(sb.node);
  const bool under_pressure =
      node.used_mb > options_.pressure_threshold * node.options.memory_limit_mb;

  bool want_dedup;
  if (under_pressure || !targets.feasible) {
    // Paper fallback: deduplicate aggressively; keep the sandbox warm only
    // when it is needed to sustain the arrival rate.
    const int idle_warm = cluster_.CountIn(f, SandboxState::kWarm);
    want_dedup = ServiceableRate(in, idle_warm - 1, dedups + 1) >= in.lambda_max;
  } else {
    want_dedup = dedups < targets.dedup;
  }
  if (!want_dedup) {
    return IdleDecision::kKeepWarm;
  }
  // Base promotion (Section 4.1.3): first base for the function, or D/B > T.
  const FunctionProfile& profile = FunctionBenchProfiles().at(static_cast<size_t>(f));
  const bool base_fits =
      profile.memory_mb <= options_.max_base_node_fraction * node.options.memory_limit_mb;
  if (base_fits &&
      (bases == 0 || static_cast<double>(dedups) / static_cast<double>(bases) >
                         options_.base_promotion_threshold)) {
    // Never promote a sandbox that is already a base.
    if (cluster_.FindBaseSnapshot(sb.id) == nullptr) {
      return IdleDecision::kDesignateBase;
    }
  }
  if (cluster_.FindBaseSnapshot(sb.id) != nullptr) {
    // A base sandbox's memory must stay available; keep it warm.
    return IdleDecision::kKeepWarm;
  }
  if (bases == 0 && cluster_.base_snapshots().empty()) {
    // Nothing to dedup against anywhere in the cluster.
    return IdleDecision::kKeepWarm;
  }
  return IdleDecision::kDedup;
}

}  // namespace medes
