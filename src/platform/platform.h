// ServerlessPlatform: the end-to-end simulated cluster.
//
// Wires the discrete-event engine, cluster model, fingerprint registry, RDMA
// fabric, dedup agents, and a sandbox-management policy into a platform that
// replays a request trace and reports the metrics the paper evaluates. Three
// policies are provided: the two state-of-the-art keep-alive baselines and
// Medes itself. An emulated-Catalyzer mode (paper Section 7.6) replaces cold
// starts with snapshot restores for both baselines and Medes.
#ifndef MEDES_PLATFORM_PLATFORM_H_
#define MEDES_PLATFORM_PLATFORM_H_

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "controller/medes_controller.h"
#include "dedupagent/dedup_agent.h"
#include "net/transport.h"
#include "platform/metrics.h"
#include "policy/keep_alive.h"
#include "rdma/rdma.h"
#include "registry/fingerprint_registry.h"
#include "sim/simulation.h"
#include "workload/trace.h"

namespace medes {

enum class PolicyKind {
  kFixedKeepAlive,
  kAdaptiveKeepAlive,
  kMedes,
};

const char* ToString(PolicyKind kind);

struct PlatformOptions {
  ClusterOptions cluster;
  RegistryOptions registry;
  RdmaOptions rdma;
  DedupAgentOptions agent;
  MedesControllerOptions medes;
  AdaptiveKeepAliveOptions adaptive;
  // Link parameters for the shared cluster transport. Node numbering:
  // workers are 0..num_nodes-1 and the controller, which holds the
  // fingerprint registry, sits on node num_nodes. Every cross-node charge —
  // registry lookups/inserts, base-page reads, control decisions — flows
  // through one Transport built from this model.
  NetworkModel network;

  PolicyKind policy = PolicyKind::kMedes;
  SimDuration fixed_keep_alive = 10 * kMinute;

  // Emulated Catalyzer (Section 7.6): cold starts become snapshot restores.
  bool emulate_catalyzer = false;
  SimDuration catalyzer_restore = 150 * kMillisecond;

  // Byte-exact reconstruction checks on every restore (slow; for tests).
  bool verify_restores = false;

  SimDuration memory_sample_interval = 10 * kSecond;
};

class ServerlessPlatform {
 public:
  explicit ServerlessPlatform(PlatformOptions options);
  ~ServerlessPlatform();

  ServerlessPlatform(const ServerlessPlatform&) = delete;
  ServerlessPlatform& operator=(const ServerlessPlatform&) = delete;

  // Replays `trace` to completion and returns the collected metrics.
  // Run() may be called once per platform instance.
  RunMetrics Run(const std::vector<TraceEvent>& trace);

  // Component access for tests and benches.
  Cluster& cluster();
  FingerprintRegistry& registry();
  MedesController& controller();
  Transport& transport();
  Simulation& sim();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience: build options for a named experiment configuration.
PlatformOptions MakePlatformOptions(PolicyKind policy);

}  // namespace medes

#endif  // MEDES_PLATFORM_PLATFORM_H_
