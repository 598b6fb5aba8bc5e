// Determinism of the parallel dedup/restore pipeline: every DedupOpResult
// counter, modelled duration, patch record, and patch byte must be
// bit-identical between the serial reference (num_threads = 1) and a wide
// pipeline, with the base-page cache enabled in both.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "dedupagent/dedup_agent.h"
#include "registry/fingerprint_registry.h"

namespace medes {
namespace {

ClusterOptions SmallCluster() {
  ClusterOptions opts;
  opts.num_nodes = 2;
  opts.node_memory_mb = 4096;
  opts.bytes_per_mb = 16384;
  return opts;
}

DedupAgentOptions AgentOpts(size_t num_threads) {
  DedupAgentOptions opts;
  opts.num_threads = num_threads;
  return opts;
}

// One self-contained environment: cluster, registry, cached fabric, agent.
struct Env {
  explicit Env(size_t num_threads)
      : cluster(SmallCluster()),
        fabric({.page_cache_capacity = 512},
               [this](const PageLocation& loc) { return cluster.ReadBasePage(loc); }),
        agent(cluster, registry, fabric, AgentOpts(num_threads)) {}

  Sandbox& WarmSandbox(const std::string& name, NodeId node, SimTime now = SimTime{}) {
    Sandbox& sb = cluster.Spawn(ProfileByName(name), node, now);
    cluster.MarkWarm(sb, now);
    return sb;
  }

  Cluster cluster;
  FingerprintRegistry registry;
  RdmaFabric fabric;
  DedupAgent agent;
};

void ExpectSameDedupResult(const DedupOpResult& a, const DedupOpResult& b,
                           const std::string& what) {
  EXPECT_EQ(a.pages_total, b.pages_total) << what;
  EXPECT_EQ(a.pages_deduped, b.pages_deduped) << what;
  EXPECT_EQ(a.pages_zero, b.pages_zero) << what;
  EXPECT_EQ(a.pages_unique, b.pages_unique) << what;
  EXPECT_EQ(a.patch_bytes, b.patch_bytes) << what;
  EXPECT_EQ(a.saved_bytes, b.saved_bytes) << what;
  EXPECT_EQ(a.same_function_pages, b.same_function_pages) << what;
  EXPECT_EQ(a.cross_function_pages, b.cross_function_pages) << what;
  EXPECT_EQ(a.checkpoint_time, b.checkpoint_time) << what;
  EXPECT_EQ(a.lookup_time, b.lookup_time) << what;
  EXPECT_EQ(a.patch_time, b.patch_time) << what;
  EXPECT_EQ(a.total_time, b.total_time) << what;
}

void ExpectSamePatches(const Sandbox& a, const Sandbox& b) {
  ASSERT_EQ(a.patches.size(), b.patches.size());
  for (size_t i = 0; i < a.patches.size(); ++i) {
    EXPECT_EQ(a.patches[i].page, b.patches[i].page) << "patch " << i;
    ASSERT_EQ(a.patches[i].bases.size(), b.patches[i].bases.size()) << "patch " << i;
    for (size_t j = 0; j < a.patches[i].bases.size(); ++j) {
      EXPECT_EQ(a.patches[i].bases[j], b.patches[i].bases[j]) << "patch " << i << " base " << j;
    }
  }
  ASSERT_TRUE(a.checkpoint.has_value());
  ASSERT_TRUE(b.checkpoint.has_value());
  const MemoryCheckpoint& ca = *a.checkpoint;
  const MemoryCheckpoint& cb = *b.checkpoint;
  ASSERT_EQ(ca.NumPages(), cb.NumPages());
  for (size_t page = 0; page < ca.NumPages(); ++page) {
    ASSERT_EQ(ca.SlotState(page), cb.SlotState(page)) << "page " << page;
    if (ca.SlotState(page) == PageSlotState::kPatched) {
      auto pa = ca.PatchData(page);
      auto pb = cb.PatchData(page);
      ASSERT_EQ(pa.size(), pb.size()) << "page " << page;
      EXPECT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin()))
          << "patch bytes differ at page " << page;
    }
  }
}

TEST(DedupPipelineTest, ParallelDedupOpMatchesSerialPageForPage) {
  Env serial(1);
  Env parallel(8);
  ASSERT_EQ(serial.agent.NumThreads(), 1u);
  ASSERT_EQ(parallel.agent.NumThreads(), 8u);

  // Identical clusters (same seed, same operation sequence) in both envs:
  // a base per function plus victims on both nodes, cross- and same-function.
  for (Env* env : {&serial, &parallel}) {
    Sandbox& vanilla_base = env->WarmSandbox("Vanilla", NodeId{0});
    env->agent.DesignateBase(vanilla_base);
    Sandbox& linalg_base = env->WarmSandbox("LinAlg", NodeId{0});
    env->agent.DesignateBase(linalg_base);
  }

  const struct {
    const char* function;
    NodeId node;
  } victims[] = {{"Vanilla", NodeId{0}},
                 {"Vanilla", NodeId{1}},
                 {"LinAlg", NodeId{1}},
                 {"FeatureGen", NodeId{0}}};

  std::vector<SandboxId> serial_ids;
  std::vector<SandboxId> parallel_ids;
  for (const auto& v : victims) {
    Sandbox& sa = serial.WarmSandbox(v.function, v.node, SimTime{10});
    Sandbox& sb = parallel.WarmSandbox(v.function, v.node, SimTime{10});
    ASSERT_EQ(sa.id, sb.id) << "environments diverged";
    DedupOpResult ra = serial.agent.DedupOp(sa, SimTime{20});
    DedupOpResult rb = parallel.agent.DedupOp(sb, SimTime{20});
    ExpectSameDedupResult(ra, rb, v.function);
    ExpectSamePatches(sa, sb);
    EXPECT_GT(ra.pages_total, 0u);
    serial_ids.push_back(sa.id);
    parallel_ids.push_back(sb.id);
  }
  // The dedup path exercised the cache identically in both environments.
  EXPECT_EQ(serial.fabric.stats().cache_hits, parallel.fabric.stats().cache_hits);
  EXPECT_EQ(serial.fabric.stats().cache_misses, parallel.fabric.stats().cache_misses);

  // Restores: identical modelled costs and byte-exact reconstructions.
  for (size_t i = 0; i < serial_ids.size(); ++i) {
    Sandbox* sa = serial.cluster.Find(serial_ids[i]);
    Sandbox* sb = parallel.cluster.Find(parallel_ids[i]);
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    RestoreOpResult ra = serial.agent.RestoreOp(*sa, SimTime{30}, /*verify=*/true);
    RestoreOpResult rb = parallel.agent.RestoreOp(*sb, SimTime{30}, /*verify=*/true);
    // Trained working sets defer some pages; drive the background phase to
    // completion so verification and refcounts cover the whole image.
    ASSERT_EQ(ra.background_pending, rb.background_pending) << "victim " << i;
    if (ra.background_pending) {
      BackgroundRestoreResult bga = serial.agent.CompleteBackgroundRestore(*sa, SimTime{31});
      BackgroundRestoreResult bgb = parallel.agent.CompleteBackgroundRestore(*sb, SimTime{31});
      EXPECT_TRUE(bga.verified);
      EXPECT_TRUE(bgb.verified);
      EXPECT_EQ(bga.base_pages_read, bgb.base_pages_read) << "victim " << i;
      EXPECT_EQ(bga.total_time, bgb.total_time) << "victim " << i;
    } else {
      EXPECT_TRUE(ra.verified);
      EXPECT_TRUE(rb.verified);
    }
    EXPECT_EQ(ra.base_pages_read, rb.base_pages_read) << "victim " << i;
    EXPECT_EQ(ra.base_bytes_read, rb.base_bytes_read) << "victim " << i;
    EXPECT_EQ(ra.remote_reads, rb.remote_reads) << "victim " << i;
    EXPECT_EQ(ra.read_base_time, rb.read_base_time) << "victim " << i;
    EXPECT_EQ(ra.compute_time, rb.compute_time) << "victim " << i;
    EXPECT_EQ(ra.sandbox_restore_time, rb.sandbox_restore_time) << "victim " << i;
    EXPECT_EQ(ra.critical_path_time, rb.critical_path_time) << "victim " << i;
    EXPECT_EQ(ra.fault_time, rb.fault_time) << "victim " << i;
    EXPECT_EQ(ra.total_time, rb.total_time) << "victim " << i;
  }
}

TEST(DedupPipelineTest, CacheServesRepeatBaseReads) {
  Env env(4);
  Sandbox& base = env.WarmSandbox("Vanilla", NodeId{0});
  env.agent.DesignateBase(base);
  Sandbox& first = env.WarmSandbox("Vanilla", NodeId{1}, SimTime{5});
  Sandbox& second = env.WarmSandbox("Vanilla", NodeId{1}, SimTime{5});
  env.agent.DedupOp(first, SimTime{10});
  const uint64_t misses_after_first = env.fabric.stats().cache_misses;
  const uint64_t remote_after_first = env.fabric.stats().remote_reads;
  env.agent.DedupOp(second, SimTime{10});
  // The second sandbox dedups against the same hot base pages: its reads are
  // (almost all) cache hits, not new fabric traffic.
  EXPECT_GT(env.fabric.stats().cache_hits, 0u);
  EXPECT_LT(env.fabric.stats().cache_misses - misses_after_first, misses_after_first / 2 + 8);
  EXPECT_LT(env.fabric.stats().remote_reads - remote_after_first, remote_after_first / 2 + 8);
}

TEST(DedupPipelineTest, ThreadCountDoesNotChangePlatformObservables) {
  // A dedup + restore round trip must leave the same cluster state whatever
  // MEDES_THREADS resolves to (the agent reads it when num_threads = 0).
  Env wide(6);
  Sandbox& base = wide.WarmSandbox("FeatureGen", NodeId{0});
  wide.agent.DesignateBase(base);
  Sandbox& victim = wide.WarmSandbox("FeatureGen", NodeId{1}, SimTime{1});
  DedupOpResult dedup = wide.agent.DedupOp(victim, SimTime{2});
  EXPECT_GT(dedup.pages_deduped, 0u);
  RestoreOpResult restore = wide.agent.RestoreOp(victim, SimTime{3}, /*verify=*/true);
  EXPECT_TRUE(restore.verified);
  EXPECT_EQ(victim.state, SandboxState::kWarm);
  EXPECT_TRUE(victim.patches.empty());
  EXPECT_EQ(wide.registry.RefCount(base.id), 0);
}

// ---- Lookup-cost regression (the registry model, not a flat constant) ----

TEST(DedupPipelineTest, CentralizedLookupTimeIsTheRegistryModel) {
  // Without a bound transport, the centralized registry charges exactly
  // lookup_per_page (default 80 us) per looked-up page — the same figure the
  // agent's removed `controller_lookup_per_page` constant used to model, so
  // standalone results are unchanged by the refactor.
  Env env(1);
  Sandbox& base = env.WarmSandbox("Vanilla", NodeId{0});
  env.agent.DesignateBase(base);
  Sandbox& victim = env.WarmSandbox("Vanilla", NodeId{1}, SimTime{1});
  DedupOpResult r = env.agent.DedupOp(victim, SimTime{2});
  const size_t resident = r.pages_total - r.pages_zero;
  ASSERT_GT(resident, 0u);
  const SimDuration expected{static_cast<int64_t>(
      static_cast<double>((RegistryOptions().lookup_per_page * static_cast<int64_t>(resident)).value()) *
      env.agent.ScaleFactor())};
  EXPECT_EQ(r.lookup_time, expected);
}

// An environment sharing one transport between the registry (bound to its
// own controller node) and the fabric — what the platform wires up.
struct NetEnv {
  static constexpr NodeId kControllerNode{2};  // after SmallCluster's two workers

  explicit NetEnv(size_t num_threads, Topology topology = {})
      : cluster(SmallCluster()),
        transport(std::make_shared<Transport>(std::move(topology))),
        fabric({.page_cache_capacity = 512},
               [this](const PageLocation& loc) { return cluster.ReadBasePage(loc); }, transport),
        agent(cluster, registry, fabric, AgentOpts(num_threads)) {
    registry.BindTransport(transport, kControllerNode);
  }

  Sandbox& WarmSandbox(const std::string& name, NodeId node, SimTime now = SimTime{}) {
    Sandbox& sb = cluster.Spawn(ProfileByName(name), node, now);
    cluster.MarkWarm(sb, now);
    return sb;
  }

  Cluster cluster;
  std::shared_ptr<Transport> transport;
  FingerprintRegistry registry;
  RdmaFabric fabric;
  DedupAgent agent;
};

TEST(DedupPipelineTest, LookupTimeMatchesTransportModel) {
  // An infinite-bandwidth link makes the registry's modelled cost
  // recoverable from the transport's own counters: each lookup message
  // costs the link latency, plus lookup_per_page for each page it carried
  // (its request count). The agent must report exactly that, scaled.
  Topology topo;
  topo.remote = {.latency = SimDuration{7}, .bandwidth_gbps = 0.0};
  topo.local = {.latency = SimDuration{7}, .bandwidth_gbps = 0.0};  // node-independent cost
  NetEnv env(1, topo);

  Sandbox& base = env.WarmSandbox("Vanilla", NodeId{0});
  env.agent.DesignateBase(base);
  env.transport->ResetStats();  // isolate the dedup op's lookup messages

  Sandbox& victim = env.WarmSandbox("Vanilla", NodeId{1}, SimTime{1});
  DedupOpResult r = env.agent.DedupOp(victim, SimTime{2});

  const TransportStats net_stats = env.transport->stats();
  const MessageStats& lookups = net_stats.For(MessageType::kRegistryLookup);
  ASSERT_GT(lookups.messages, 0u);
  EXPECT_EQ(lookups.dropped, 0u);
  const SimDuration raw =
      SimDuration{7} * static_cast<int64_t>(lookups.messages) +
      RegistryOptions().lookup_per_page * static_cast<int64_t>(lookups.requests);
  EXPECT_EQ(r.lookup_time,
            SimDuration{static_cast<int64_t>(static_cast<double>(raw.value()) *
                                             env.agent.ScaleFactor())});
}

// ---- Transport determinism across thread counts --------------------------

TEST(DedupPipelineTest, TransportStatsIdenticalAcrossThreadCounts) {
  // A full dedup + restore workload against a registry and fabric sharing
  // one transport: per-message-type counters, byte totals, and latency
  // histograms — and every modelled duration — must be bit-identical at
  // 1 thread, 4 threads, and whatever MEDES_THREADS/hardware resolves to.
  NetEnv one(1);
  NetEnv four(4);
  NetEnv hw(0);
  std::vector<NetEnv*> envs = {&one, &four, &hw};

  for (NetEnv* env : envs) {
    Sandbox& vanilla_base = env->WarmSandbox("Vanilla", NodeId{0});
    env->agent.DesignateBase(vanilla_base);
    Sandbox& linalg_base = env->WarmSandbox("LinAlg", NodeId{0});
    env->agent.DesignateBase(linalg_base);
  }

  const struct {
    const char* function;
    NodeId node;
  } victims[] = {{"Vanilla", NodeId{0}},
                 {"Vanilla", NodeId{1}},
                 {"LinAlg", NodeId{1}},
                 {"FeatureGen", NodeId{0}}};

  for (const auto& v : victims) {
    std::vector<DedupOpResult> results;
    std::vector<SandboxId> ids;
    for (NetEnv* env : envs) {
      Sandbox& sb = env->WarmSandbox(v.function, v.node, SimTime{10});
      results.push_back(env->agent.DedupOp(sb, SimTime{20}));
      ids.push_back(sb.id);
    }
    ExpectSameDedupResult(results[0], results[1], v.function);
    ExpectSameDedupResult(results[0], results[2], v.function);
    for (size_t e = 0; e < envs.size(); ++e) {
      Sandbox* sb = envs[e]->cluster.Find(ids[e]);
      ASSERT_NE(sb, nullptr);
      RestoreOpResult restore = envs[e]->agent.RestoreOp(*sb, SimTime{30}, /*verify=*/true);
      if (restore.background_pending) {
        EXPECT_TRUE(envs[e]->agent.CompleteBackgroundRestore(*sb, SimTime{31}).verified);
      } else {
        EXPECT_TRUE(restore.verified);
      }
    }
  }

  const TransportStats ref = one.transport->stats();
  EXPECT_GT(ref.For(MessageType::kRegistryLookup).messages, 0u);
  EXPECT_GT(ref.For(MessageType::kRegistryInsert).messages, 0u);
  EXPECT_GT(ref.For(MessageType::kBaseRead).messages, 0u);
  EXPECT_EQ(ref, four.transport->stats());
  EXPECT_EQ(ref, hw.transport->stats());
  EXPECT_EQ(ref.TotalLatency(), four.transport->stats().TotalLatency());
}

}  // namespace
}  // namespace medes
