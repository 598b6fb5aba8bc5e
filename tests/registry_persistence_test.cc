// End-to-end crash/restart recovery and the backend determinism pin.
//
// Runs the full platform on the persistent state-store backend, "restarts"
// by reopening the surviving log+checkpoint directory, and replays the
// recovered state into a fresh registry with the live-cluster validator —
// the same drill bench/registry_persistence.cc performs, here asserted as a
// regression test. Also pins the ISSUE's determinism contract: the memory
// and persistent backends (at 1 and 4 pipeline threads) produce byte-
// identical dedup decisions and RunMetrics when the RAM budget is unbounded.
#include <algorithm>
#include <filesystem>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "medes.h"

namespace medes {
namespace {

std::string FreshStoreDir(const char* name) {
  // medes-lint: allow(direct-filesystem) test scaffolding for the store's files
  const std::string dir = (std::filesystem::temp_directory_path() / name).string();
  // medes-lint: allow(direct-filesystem) test scaffolding for the store's files
  std::filesystem::remove_all(dir);
  return dir;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  // medes-lint: allow(direct-filesystem) test scaffolding for the store's files
  std::filesystem::remove_all(dir, ec);
}

PlatformOptions SmallClusterOptions() {
  PlatformOptions options = MakePlatformOptions(PolicyKind::kMedes);
  options.cluster.num_nodes = 4;
  options.cluster.node_memory_mb = 2048;
  options.cluster.bytes_per_mb = 4096;
  options.medes.alpha = 20.0;
  return options;
}

std::vector<TraceEvent> ShortTrace() {
  TraceOptions topts;
  topts.duration = 4 * kMinute;
  topts.rate_scale = 1.0;
  return GenerateTrace(DefaultAzurePatterns(), topts);
}

// Canonical ordering so lookup results can be compared as sets: the ranked
// prefix is identical either way, but equal-overlap ties may order by
// insertion history, which differs between a live and a recovered registry.
void Canonicalize(std::vector<BasePageCandidate>& candidates) {
  auto key = [](const BasePageCandidate& c) {
    return std::tie(c.overlap, c.location.node, c.location.sandbox, c.location.page_index);
  };
  std::sort(candidates.begin(), candidates.end(),
            [&key](const BasePageCandidate& a, const BasePageCandidate& b) {
              return key(a) < key(b);
            });
}

TEST(RegistryPersistenceTest, CrashRestartRecoversRegistryAndRevalidates) {
  const std::string dir = FreshStoreDir("medes_persistence_test.store");
  PlatformOptions options = SmallClusterOptions();
  options.store.backend = store::StoreBackend::kPersistent;
  options.store.directory = dir;
  options.store.checkpoint_every_records = 128;  // force several compactions

  ServerlessPlatform platform(options);
  (void)platform.Run(ShortTrace());
  const size_t live = platform.cluster().base_snapshots().size();
  ASSERT_GT(live, 0u) << "the trace should have designated base sandboxes";
  EXPECT_GT(platform.state_store().durability_stats().checkpoints, 0u);

  // "Restart": reopen the surviving files, replay into a fresh registry,
  // re-validating every sandbox against the still-live cluster.
  const auto reopened = store::MakeStateStore(options.store);
  FingerprintRegistry recovered(options.registry);
  const RecoveryReport report =
      RecoverInto(*reopened, recovered, MakeRecoveryValidator(platform.cluster()));

  EXPECT_TRUE(report.store_state.clean);
  EXPECT_EQ(report.rejected_sandboxes, 0u);
  EXPECT_EQ(report.recovered_sandboxes, live);
  EXPECT_GT(report.recovered_pages, 0u);
  EXPECT_GT(report.store_state.checkpoint_records + report.store_state.log_records, 0u);

  // The recovered registry must answer lookups exactly like the live one.
  RegistryBackend& live_registry = platform.registry();
  size_t fingerprints_checked = 0;
  for (const store::RecoveredSandbox& sb : report.store_state.sandboxes) {
    for (const PageFingerprint& fp : sb.fingerprints) {
      auto want = live_registry.FindBasePagesBatch(std::span(&fp, 1), NodeId{0}, kNoSandbox, 4)
                      .front();
      auto got = recovered.FindBasePagesBatch(std::span(&fp, 1), NodeId{0}, kNoSandbox, 4).front();
      Canonicalize(want);
      Canonicalize(got);
      ASSERT_EQ(want.size(), got.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].overlap, got[i].overlap);
        EXPECT_EQ(want[i].location.node, got[i].location.node);
        EXPECT_EQ(want[i].location.sandbox, got[i].location.sandbox);
        EXPECT_EQ(want[i].location.page_index, got[i].location.page_index);
      }
      ++fingerprints_checked;
      if (fingerprints_checked >= 512) {
        break;  // plenty of coverage; keep the test fast
      }
    }
    if (fingerprints_checked >= 512) {
      break;
    }
  }
  EXPECT_GT(fingerprints_checked, 0u);
  RemoveDir(dir);
}

// Recovered entries are not trusted: a sandbox whose live base snapshot is
// gone by restart time must be rejected by the validator, not served.
TEST(RegistryPersistenceTest, StaleSandboxesAreRejectedByValidator) {
  const std::string dir = FreshStoreDir("medes_persistence_stale.store");
  PlatformOptions options = SmallClusterOptions();
  options.store.backend = store::StoreBackend::kPersistent;
  options.store.directory = dir;

  ServerlessPlatform platform(options);
  (void)platform.Run(ShortTrace());
  auto& bases = platform.cluster().base_snapshots();
  ASSERT_GT(bases.size(), 1u);
  const SandboxId purged = bases.begin()->first;
  platform.cluster().RemoveBaseSnapshot(purged);
  const size_t live_after = platform.cluster().base_snapshots().size();

  const auto reopened = store::MakeStateStore(options.store);
  FingerprintRegistry recovered(options.registry);
  const RecoveryReport report =
      RecoverInto(*reopened, recovered, MakeRecoveryValidator(platform.cluster()));

  EXPECT_TRUE(report.store_state.clean);  // the *files* are fine...
  EXPECT_GE(report.rejected_sandboxes, 1u);  // ...but the purged base is not
  EXPECT_EQ(report.recovered_sandboxes, live_after);
  EXPECT_FALSE(recovered.IsBaseSandbox(purged));
  RemoveDir(dir);
}

// Determinism pin (ISSUE satellite): with an unbounded RAM budget the store
// backend is invisible — memory and persistent backends, at 1 and 4 pipeline
// threads, make byte-identical dedup decisions and report identical
// RunMetrics.
TEST(RegistryPersistenceTest, BackendsAndThreadCountsAreByteIdentical) {
  const std::vector<TraceEvent> trace = ShortTrace();

  auto run = [&trace](store::StoreBackend backend, size_t threads,
                      const std::string& dir) {
    PlatformOptions options = SmallClusterOptions();
    options.agent.num_threads = threads;
    options.store.backend = backend;
    options.store.directory = dir;
    return ServerlessPlatform(options).Run(trace);
  };

  const RunMetrics ref = run(store::StoreBackend::kMemory, 1, "");
  struct Variant {
    const char* label;
    store::StoreBackend backend;
    size_t threads;
  };
  const Variant variants[] = {
      {"memory/4", store::StoreBackend::kMemory, 4},
      {"persistent/1", store::StoreBackend::kPersistent, 1},
      {"persistent/4", store::StoreBackend::kPersistent, 4},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.label);
    std::string dir;
    if (v.backend == store::StoreBackend::kPersistent) {
      dir = FreshStoreDir("medes_persistence_pin.store");
    }
    const RunMetrics m = run(v.backend, v.threads, dir);

    EXPECT_EQ(m.TotalColdStarts(), ref.TotalColdStarts());
    EXPECT_EQ(m.dedup_ops, ref.dedup_ops);
    EXPECT_EQ(m.restores, ref.restores);
    EXPECT_EQ(m.sandboxes_spawned, ref.sandboxes_spawned);
    EXPECT_EQ(m.sandboxes_deduped, ref.sandboxes_deduped);
    EXPECT_EQ(m.evictions, ref.evictions);
    EXPECT_EQ(m.base_designations, ref.base_designations);
    ASSERT_EQ(m.requests.size(), ref.requests.size());
    for (size_t i = 0; i < m.requests.size(); ++i) {
      ASSERT_EQ(m.requests[i].e2e, ref.requests[i].e2e) << "request " << i;
    }

    // StoreStats is backend-independent by contract: identical appends,
    // residency, and (unbounded) zero cold traffic either way.
    EXPECT_EQ(m.store.appends, ref.store.appends);
    EXPECT_EQ(m.store.append_bytes, ref.store.append_bytes);
    EXPECT_EQ(m.store.removes, ref.store.removes);
    EXPECT_EQ(m.store.registry_entries, ref.store.registry_entries);
    EXPECT_EQ(m.store.base_pages, ref.store.base_pages);
    EXPECT_EQ(m.store.hot_hits, ref.store.hot_hits);
    EXPECT_EQ(m.store.peak_state_bytes, ref.store.peak_state_bytes);
    EXPECT_EQ(m.store.cold_fetches, 0u);
    EXPECT_EQ(m.store.evictions, 0u);

    if (!dir.empty()) {
      RemoveDir(dir);
    }
  }
}

}  // namespace
}  // namespace medes
