#include "registry/registry_recovery.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace medes {

RecoveryReport RecoverInto(store::StateStore& store, RegistryBackend& registry,
                           const RecoveryValidator& validate) {
  obs::ScopedSpan span("store/recover", "store", SimTime{});
  RecoveryReport report;
  report.store_state = store.Recover();

  // Recovered state is already durable: suppress re-logging while replaying
  // it into the registry (residency is still admitted).
  store.SetReplaying(true);
  for (const store::RecoveredSandbox& sb : report.store_state.sandboxes) {
    if (validate != nullptr && !validate(sb)) {
      ++report.rejected_sandboxes;
      continue;
    }
    registry.InsertBaseSandbox(sb.node, sb.sandbox, sb.fingerprints);
    ++report.recovered_sandboxes;
    report.recovered_pages += sb.pages.size();
  }
  store.SetReplaying(false);

  // A free function has no owner to register these at construction; every
  // one of them is recorded on each call.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Default();
  static obs::Counter& recoveries = metrics.GetCounter(
      "medes_store_recoveries_total", "Registry recoveries driven from the state store");
  static obs::Counter& recovered = metrics.GetCounter(
      "medes_store_recovered_sandboxes_total",
      "Base sandboxes restored and validated from the store");
  static obs::Counter& rejected =
      metrics.GetCounter("medes_store_rejected_sandboxes_total",
                          "Recovered base sandboxes rejected by live-sandbox re-validation");
  static obs::Counter& recovered_pages = metrics.GetCounter(
      "medes_store_recovered_pages_total", "Base pages carried by restored sandboxes");
  static obs::Counter& torn_bytes = metrics.GetCounter(
      "medes_store_recovery_torn_bytes_total", "Log bytes truncated as torn tails during recovery");
  static obs::Counter& corrupt_records = metrics.GetCounter(
      "medes_store_recovery_corrupt_records_total",
      "Log records rejected by magic/CRC/sequence checks during recovery");
  recoveries.Add();
  recovered.Add(report.recovered_sandboxes);
  rejected.Add(report.rejected_sandboxes);
  recovered_pages.Add(report.recovered_pages);
  torn_bytes.Add(report.store_state.torn_bytes);
  corrupt_records.Add(report.store_state.corrupt_records);
  return report;
}

}  // namespace medes
