// The Medes controller's policy module + per-function bookkeeping.
//
// Runs at idle-period expiry for each warm sandbox (paper Fig. 4b): using
// cluster-wide metrics (per-function arrival rates, measured dedup footprints
// and restore latencies) it solves the Section 5 optimisation problem and
// decides whether the sandbox stays warm, becomes a base sandbox, or is
// deduplicated. Base promotion follows Section 4.1.3: promote a new base for
// function f whenever f has no base yet or D_f / B_f exceeds the threshold T
// (the paper uses T = 40).
#ifndef MEDES_CONTROLLER_MEDES_CONTROLLER_H_
#define MEDES_CONTROLLER_MEDES_CONTROLLER_H_

#include <array>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/time.h"
#include "dedupagent/dedup_agent.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "policy/keep_alive.h"
#include "policy/medes_policy.h"

namespace medes {

enum class PolicyObjective {
  kLatency,   // P1: min memory s.t. S <= alpha * sW
  kMemory,    // P2: min S s.t. M <= per-function share of the cluster cap
  kCombined,  // min memory s.t. both the P1 and P2 constraints hold
};

// Per-function policy override (paper Section 5.3: "critical functions can
// be run on a tight latency constraint while best-effort functions can be
// run on a loose latency constraint").
struct FunctionPolicyOverride {
  FunctionId function = -1;
  double alpha = 2.5;
};

struct MedesControllerOptions {
  PolicyObjective objective = PolicyObjective::kLatency;
  double alpha = 2.5;                    // latency target multiplier (P1)
  double cluster_memory_cap_mb = 0;      // total budget for P2 (0 = node limits)
  // Per-function latency-criticality overrides (empty = uniform alpha).
  std::vector<FunctionPolicyOverride> function_overrides;
  double base_promotion_threshold = 40;  // T
  // A base snapshot pins a full copy of the sandbox's memory; refuse to
  // designate one whose footprint exceeds this fraction of a node's limit
  // (irrelevant at the paper's 2 GB/node scale, protective on small nodes).
  double max_base_node_fraction = 0.25;
  // Node-memory fraction above which the policy deduplicates regardless of
  // the objective's answer (the paper's infeasibility fallback: under
  // pressure, keep sandboxes warm only when the request rate needs them).
  double pressure_threshold = 0.75;
  SimDuration keep_alive = 10 * kMinute;
  SimDuration idle_period = 1 * kMinute;
  SimDuration keep_dedup = 10 * kMinute;
};

enum class IdleDecision {
  kKeepWarm,
  kDedup,
  kDesignateBase,
};

const char* ToString(IdleDecision decision);

// Modelled wire size of one controller decision message (a verdict plus
// sandbox identity — tiny; the latency term dominates).
inline constexpr Bytes kControlDecisionBytes{64};

class MedesController {
 public:
  // With a transport bound, every idle-expiry decision is charged as one
  // kControlDecision message from `controller_node` to the sandbox's node.
  // The default (no transport) keeps the controller purely local — existing
  // standalone users and tests are unaffected.
  MedesController(Cluster& cluster, MedesControllerOptions options,
                  std::shared_ptr<Transport> transport = nullptr,
                  NodeId controller_node = kInvalidNode);

  const MedesControllerOptions& options() const { return options_; }

  // Request arrival bookkeeping (rate estimation for lambda_max).
  void RecordArrival(FunctionId function, SimTime now);

  // Measurement feedback: refreshes the per-function EMA estimates the
  // optimisation problem consumes (mD, mR, sD).
  void RecordDedupResult(FunctionId function, const DedupOpResult& result);
  void RecordRestoreResult(FunctionId function, const RestoreOpResult& result);

  // The policy decision for an idle warm sandbox. `trace`, when sampled,
  // parents the kControlDecision wire span delivering the verdict.
  IdleDecision OnIdleExpiry(const Sandbox& sb, SimTime now,
                            const obs::MessageTrace& trace = {});

  // Exposed for tests/benches: the optimisation inputs currently estimated
  // for a function.
  MedesPolicyInputs EstimateInputs(FunctionId function, SimTime now) const;

  // Memory cap share of `function` under P2 (proportional to mean arrival
  // rates, paper Section 5.3).
  double MemoryCapShareMb(FunctionId function, SimTime now) const;

  // Effective latency multiplier for `function` (override or global alpha).
  double AlphaFor(FunctionId function) const;

 private:
  IdleDecision DecideIdleExpiry(const Sandbox& sb, SimTime now, const obs::MessageTrace& trace);

  struct FunctionTracking {
    RateTracker rate;
    // EMAs seeded lazily from the first measurements.
    double dedup_mb = -1;
    double restore_overhead_mb = -1;
    double dedup_start_s = -1;
    uint64_t dedups = 0;
    uint64_t restores = 0;
  };

  static void UpdateEma(double& ema, double sample) {
    constexpr double kAlpha = 0.25;
    ema = (ema < 0) ? sample : (1 - kAlpha) * ema + kAlpha * sample;
  }

  Cluster& cluster_;
  MedesControllerOptions options_;
  std::shared_ptr<Transport> transport_;
  NodeId controller_node_ = kInvalidNode;
  std::vector<FunctionTracking> tracking_;
  double scale_to_mb_;  // 1 / bytes_per_mb
  // Decisions issued, one series per IdleDecision (indexed by its value).
  std::array<obs::Counter*, 3> decisions_;
};

}  // namespace medes

#endif  // MEDES_CONTROLLER_MEDES_CONTROLLER_H_
