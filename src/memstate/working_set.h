// Per-function post-resume working-set profiles (lazy restore, REAP-style).
//
// REAP ("Benchmarking, Analysis, and Optimization of Serverless Function
// Snapshots") observed that the large majority of snapshot pages are never
// touched after a function resumes, so restoring them before resume is pure
// wasted critical-path latency. A WorkingSetProfile records, per function,
// an exponential moving average of how often each PageIndex is touched after
// resume; the dedup agent prefetches only the pages whose EMA frequency
// clears `predict_threshold` and background-faults the rest.
//
// EMA semantics: the first observation seeds the frequency table with the
// raw touch indicator (so a single warm-up invocation already yields a
// usable prediction); every later observation folds in with weight
// `ema_alpha`. Stable working-set pages therefore sit near 1.0, one-off
// churn pages decay below the threshold within a couple of invocations.
//
// Profiles are plain deterministic state: recording the same observation
// sequence always produces the same table, and Serialize() emits a
// byte-stable little-endian encoding so a campaign can warm profiles from a
// previous run (round-trip is exact — doubles travel as their bit patterns).
//
// Thread safety: WorkingSetTable guards its map with a leaf-rank mutex so
// concurrent agent ops on different sandboxes may record/predict freely.
// WorkingSetProfile itself is a value type with no internal locking.
#ifndef MEDES_MEMSTATE_WORKING_SET_H_
#define MEDES_MEMSTATE_WORKING_SET_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/types.h"
#include "memstate/profiles.h"

namespace medes {

struct WorkingSetOptions {
  // Weight of the newest observation in the per-page EMA (first observation
  // seeds the table directly; see file comment).
  double ema_alpha = 0.3;
  // Pages with EMA frequency >= threshold form the predicted working set.
  double predict_threshold = 0.5;
};

// EMA touch-frequency table for one function. Page indexes beyond the table's
// current size are implicitly frequency 0 (images can grow across versions).
class WorkingSetProfile {
 public:
  WorkingSetProfile() = default;

  // Folds one post-resume observation into the EMA. `touched` must be the
  // touched page set (duplicates are harmless; out-of-range indexes grow the
  // table). `num_pages` is the image size the observation was made against.
  void Record(std::span<const PageIndex> touched, size_t num_pages, double ema_alpha);

  // Sorted unique pages with frequency >= threshold, clamped to < num_pages.
  std::vector<PageIndex> Predict(size_t num_pages, double predict_threshold) const;

  uint64_t observations() const { return observations_; }
  size_t tracked_pages() const { return freq_.size(); }
  double Frequency(PageIndex page) const;

  // Byte-stable serialization (little-endian; doubles as bit patterns).
  void AppendTo(std::string& out) const;
  // Consumes one profile from the front of `in`; false on malformed input.
  static bool ConsumeFrom(std::string_view& in, WorkingSetProfile& out);

  bool operator==(const WorkingSetProfile&) const = default;

 private:
  std::vector<double> freq_;
  uint64_t observations_ = 0;
};

// Profiles for every function, keyed by FunctionId. The table the platform's
// dedup agent consults; share one instance across runs (or serialize and
// re-load) to warm predictions across a campaign.
class WorkingSetTable {
 public:
  explicit WorkingSetTable(WorkingSetOptions options = {}) : options_(options) {}

  const WorkingSetOptions& options() const { return options_; }

  void Record(FunctionId function, std::span<const PageIndex> touched, size_t num_pages)
      EXCLUDES(mu_);

  // Predicted working set, or nullopt when the function has no observations
  // yet (callers fall back to a full prefetch — the self-warming path).
  std::optional<std::vector<PageIndex>> Predict(FunctionId function, size_t num_pages) const
      EXCLUDES(mu_);

  uint64_t Observations(FunctionId function) const EXCLUDES(mu_);
  size_t NumFunctions() const EXCLUDES(mu_);

  // Whole-table serialization; functions are emitted in FunctionId order so
  // the bytes are independent of recording order interleavings.
  std::string Serialize() const EXCLUDES(mu_);
  // Replaces `out`'s profiles from serialized bytes (`out` keeps its own
  // options). False on malformed input, with `out` left empty. Fills an
  // existing table instead of returning one because the table owns a mutex
  // and cannot move.
  static bool Deserialize(std::string_view data, WorkingSetTable& out) EXCLUDES(out.mu_);

 private:
  WorkingSetOptions options_;
  mutable Mutex mu_;
  std::map<FunctionId, WorkingSetProfile> profiles_ GUARDED_BY(mu_);
};

}  // namespace medes

#endif  // MEDES_MEMSTATE_WORKING_SET_H_
