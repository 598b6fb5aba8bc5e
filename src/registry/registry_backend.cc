#include "registry/registry_backend.h"

#include <algorithm>
#include <utility>

namespace medes {

namespace {

// Top-k of one page's tally under a total order: max overlap first,
// local-node pages preferred on ties, then lowest (sandbox, page). The order
// is total over distinct locations, so a partial sort keeps exactly the
// candidates a full sort truncated to `max_results` would.
std::vector<BasePageCandidate> RankCandidates(CandidateTally tally, NodeId local_node,
                                              size_t max_results) {
  std::vector<BasePageCandidate> ranked = std::move(tally.entries);
  const auto k = static_cast<ptrdiff_t>(std::min(max_results, ranked.size()));
  std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                    [&](const BasePageCandidate& a, const BasePageCandidate& b) {
                      if (a.overlap != b.overlap) {
                        return a.overlap > b.overlap;
                      }
                      const bool a_local = a.location.node == local_node;
                      const bool b_local = b.location.node == local_node;
                      if (a_local != b_local) {
                        return a_local;
                      }
                      if (a.location.sandbox != b.location.sandbox) {
                        return a.location.sandbox < b.location.sandbox;
                      }
                      return a.location.page_index < b.location.page_index;
                    });
  ranked.resize(static_cast<size_t>(k));
  return ranked;
}

}  // namespace

std::vector<std::vector<BasePageCandidate>> RegistryBackend::FindBasePagesBatch(
    std::span<const PageFingerprint> fingerprints, NodeId local_node, SandboxId exclude_sandbox,
    size_t max_results, SimDuration* lookup_cost, const obs::MessageTrace& trace) {
  std::vector<CandidateTally> tallies(fingerprints.size());
  SimDuration cost;
  const uint64_t hits =
      TallyBatch(fingerprints, local_node, exclude_sandbox, tallies, cost, trace);
  lookups_.Add(fingerprints.size());
  key_hits_.fetch_add(hits, std::memory_order_relaxed);
  lookup_batches_.Add();
  batch_cost_us_.Record(cost.value());
  if (lookup_cost != nullptr) {
    *lookup_cost += cost;
  }
  std::vector<std::vector<BasePageCandidate>> results;
  results.reserve(fingerprints.size());
  for (CandidateTally& tally : tallies) {
    results.push_back(RankCandidates(std::move(tally), local_node, max_results));
  }
  return results;
}

std::optional<BasePageCandidate> RegistryBackend::FindBasePage(const PageFingerprint& fingerprint,
                                                               NodeId local_node,
                                                               SandboxId exclude_sandbox) {
  auto results = FindBasePagesBatch(std::span<const PageFingerprint>(&fingerprint, 1), local_node,
                                    exclude_sandbox, 1);
  if (results.front().empty()) {
    return std::nullopt;
  }
  return results.front().front();
}

}  // namespace medes
