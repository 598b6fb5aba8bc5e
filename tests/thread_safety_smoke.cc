// Thread-safety analysis smoke check.
//
// Two jobs in one translation unit:
//
//  1. As a regular test, it exercises a small GUARDED_BY/REQUIRES-annotated
//     class through the medes::Mutex wrappers, proving the annotation macros
//     compile away cleanly under GCC and pass analysis under Clang.
//
//  2. As a negative-compile check: defining MEDES_TS_NEGATIVE_COMPILE adds a
//     method that reads a GUARDED_BY field without holding its lock. A Clang
//     build with -Wthread-safety -Werror=thread-safety must REJECT that
//     configuration. CI compiles this file both ways (see the thread-safety
//     job's "Negative-compile smoke check" step):
//
//       clang++ -std=c++20 -fsyntax-only -Isrc -Wthread-safety
//           -Werror=thread-safety tests/thread_safety_smoke.cc
//       # succeeds; adding -DMEDES_TS_NEGATIVE_COMPILE must fail.
//
//     GCC has no thread-safety analysis, so the violation is inert there —
//     which is exactly why the hard gate lives in the Clang CI job.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace medes {
namespace {

// A miniature of the pattern used across the tree (the registry table, the rdma
// cache, stats sinks): public methods EXCLUDES the lock, private helpers
// REQUIRES it, data is GUARDED_BY it.
class GuardedCounter {
 public:
  void Add(int delta) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    AddLocked(delta);
  }

  int value() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return value_;
  }

#ifdef MEDES_TS_NEGATIVE_COMPILE
  // Deliberate violation: touches the guarded field with no lock held. Clang
  // -Wthread-safety diagnoses "reading variable 'value_' requires holding
  // mutex 'mu_'"; with -Werror=thread-safety the build fails, which is the
  // outcome the CI negative-compile step asserts.
  int UnguardedRead() const { return value_; }
#endif

 private:
  void AddLocked(int delta) REQUIRES(mu_) { value_ += delta; }

  mutable Mutex mu_{"smoke counter"};
  int value_ GUARDED_BY(mu_) = 0;
};

TEST(ThreadSafetySmoke, AnnotatedCounterIsCoherent) {
  GuardedCounter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        counter.Add(1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), 2000);
}

// Reader/writer flavour of the same pattern, against SharedMutex.
class GuardedTable {
 public:
  void Put(int v) EXCLUDES(mu_) {
    WriterLock lock(mu_);
    values_.push_back(v);
  }

  size_t size() const EXCLUDES(mu_) {
    ReaderLock lock(mu_);
    return values_.size();
  }

 private:
  mutable SharedMutex mu_{"smoke table"};
  std::vector<int> values_ GUARDED_BY(mu_);
};

TEST(ThreadSafetySmoke, SharedMutexAnnotationsCompile) {
  GuardedTable table;
  table.Put(1);
  table.Put(2);
  EXPECT_EQ(table.size(), 2u);
}

}  // namespace
}  // namespace medes

#ifdef MEDES_TS_NEGATIVE_COMPILE
// Keep the violating method reachable so it cannot be optimised out of the
// analysis (which runs on the AST regardless, but this also guards against a
// future -Wunused-member-function cleanup deleting the violation).
namespace medes {
int TouchUnguarded() {
  GuardedCounter counter;  // NOLINT
  return counter.UnguardedRead();
}
}  // namespace medes
#endif
