// Thread-safety analysis smoke check.
//
// Two jobs in one translation unit:
//
//  1. As a regular test, it exercises small GUARDED_BY/REQUIRES/
//     ACQUIRED_AFTER-annotated classes through the medes::Mutex wrappers,
//     proving the annotation macros compile away cleanly under GCC and pass
//     analysis under Clang.
//
//  2. As a negative-compile check, two ways:
//
//     - MEDES_TS_NEGATIVE_COMPILE adds a method that reads a GUARDED_BY field
//       without holding its lock;
//     - MEDES_TS_NEGATIVE_ORDER adds a function that takes two locks against
//       their ACQUIRED_AFTER order.
//
//     A Clang build with -Wthread-safety -Werror=thread-safety (plus
//     -Wthread-safety-beta -Werror=thread-safety-beta, which the ordering
//     check needs) must REJECT either configuration. CI compiles this file
//     all three ways (see the thread-safety job's negative-compile steps):
//
//       clang++ -std=c++20 -fsyntax-only -Isrc -Wthread-safety
//           -Werror=thread-safety tests/thread_safety_smoke.cc
//       # succeeds; adding -DMEDES_TS_NEGATIVE_COMPILE must fail.
//
//     GCC has no thread-safety analysis, so the violations are inert there —
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

  mutable Mutex mu_;
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
  mutable SharedMutex mu_;
  std::vector<int> values_ GUARDED_BY(mu_);
};

TEST(ThreadSafetySmoke, SharedMutexAnnotationsCompile) {
  GuardedTable table;
  table.Put(1);
  table.Put(2);
  EXPECT_EQ(table.size(), 2u);
}

// The shape of obs::Tracer and its per-thread span buffers, the tree's one
// nested lock pair: the registry lock is taken first, then each buffer's.
struct SmokeBuffer;

class SmokeRegistry {
 public:
  void Register(SmokeBuffer* buffer) EXCLUDES(registry_mu_) {
    MutexLock lock(registry_mu_);
    buffers_.push_back(buffer);
  }

  // Empties every registered buffer, returning how many values it held.
  size_t Drain() EXCLUDES(registry_mu_);

#ifdef MEDES_TS_NEGATIVE_ORDER
  // Deliberate inversion: takes the buffer's lock before the registry's.
  // Clang -Wthread-safety-beta diagnoses "mutex 'registry_mu_' must be
  // acquired before 'mu'", which the CI negative-order step asserts.
  size_t InvertedSize(SmokeBuffer& buffer) EXCLUDES(registry_mu_);
#endif

 private:
  friend struct SmokeBuffer;

  Mutex registry_mu_;
  std::vector<SmokeBuffer*> buffers_ GUARDED_BY(registry_mu_);
};

struct SmokeBuffer {
  void Append(int v) EXCLUDES(mu) {
    MutexLock lock(mu);
    values.push_back(v);
  }

  Mutex mu ACQUIRED_AFTER(SmokeRegistry::registry_mu_);
  std::vector<int> values GUARDED_BY(mu);
};

size_t SmokeRegistry::Drain() {
  MutexLock lock(registry_mu_);
  size_t drained = 0;
  for (SmokeBuffer* buffer : buffers_) {
    MutexLock buffer_lock(buffer->mu);
    drained += buffer->values.size();
    buffer->values.clear();
  }
  return drained;
}

#ifdef MEDES_TS_NEGATIVE_ORDER
size_t SmokeRegistry::InvertedSize(SmokeBuffer& buffer) {
  MutexLock buffer_lock(buffer.mu);
  MutexLock lock(registry_mu_);
  return buffers_.size() + buffer.values.size();
}
#endif

TEST(ThreadSafetySmoke, NestedLocksInDeclaredOrder) {
  SmokeRegistry registry;
  SmokeBuffer a;
  SmokeBuffer b;
  registry.Register(&a);
  registry.Register(&b);
  std::thread writer([&] {
    for (int i = 0; i < 100; ++i) {
      a.Append(i);
    }
  });
  for (int i = 0; i < 50; ++i) {
    b.Append(i);
  }
  writer.join();
  EXPECT_EQ(registry.Drain(), 150u);
  EXPECT_EQ(registry.Drain(), 0u);
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

#ifdef MEDES_TS_NEGATIVE_ORDER
namespace medes {
size_t TouchInverted() {
  SmokeRegistry registry;  // NOLINT
  SmokeBuffer buffer;
  return registry.InvertedSize(buffer);
}
}  // namespace medes
#endif
