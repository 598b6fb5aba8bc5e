// Annotated mutex wrappers and the runtime lock-rank checker.
//
// Every mutex in medes is one of these wrappers instead of a raw
// std::mutex / std::shared_mutex, for two reasons:
//
//  1. Compile-time analysis. The wrappers carry Clang `capability`
//     attributes (common/annotations.h), so a Clang build with
//     -Wthread-safety (-DMEDES_THREAD_SAFETY=ON) proves that every
//     GUARDED_BY field is only touched under its lock and every REQUIRES
//     helper is only called with the lock held.
//
//  2. Runtime lock-ordering. Each mutex is constructed with a name and a
//     LockRank. When lock debugging is enabled, a per-thread stack of held
//     locks is maintained and acquiring a ranked lock while holding one of
//     equal or higher rank reports a lock-order violation (by default:
//     print both stacks' names and abort). Ranks form a global hierarchy —
//     lower ranks must be acquired first — so any two threads that respect
//     it can never deadlock on these mutexes.
//
// Lock debugging is enabled by setting the MEDES_DEBUG_LOCKS environment
// variable to a nonzero value, or programmatically via
// SetLockDebugging(true) (used by tests). When disabled, the per-acquisition
// overhead is one relaxed atomic load.
#ifndef MEDES_COMMON_MUTEX_H_
#define MEDES_COMMON_MUTEX_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "common/annotations.h"

namespace medes {

// The global lock hierarchy (paper components, leaf-most last). A thread may
// only acquire a ranked lock whose rank is strictly greater than every
// ranked lock it already holds; kUnranked locks opt out of order checking.
enum class LockRank : int {
  kUnranked = 0,
  kPoolQueue = 1,      // ThreadPool queue/state lock
  kRegistryTable = 2,  // FingerprintRegistry table, reverse index and refcounts
  kRdmaCache = 3,      // RdmaFabric base-page LRU cache
  kTransport = 4,      // Transport fault-policy slot / StaticFaultPolicy state
  kMetrics = 5,        // stats/metrics sinks (platform, agents, registries)
  kObsRegistry = 6,    // obs instrument map / tracer thread-buffer registry
  kObsBuffer = 7,      // obs per-thread span buffers (after kObsRegistry in drains)
};

const char* ToString(LockRank rank);

// ---- Runtime lock-rank checker ------------------------------------------

// True when out-of-order acquisitions are being checked on this process.
bool LockDebuggingEnabled();
// Turns checking on/off at runtime (tests flip this; production binaries
// normally rely on the environment variable).
void SetLockDebugging(bool enabled);

// Replaces the violation handler, returning the previous one. The default
// handler writes the message (both locks plus the thread's full held stack)
// to stderr and aborts. A test handler that returns lets execution continue,
// so inversions can be asserted on without a death test.
using LockOrderViolationHandler = std::function<void(const std::string& message)>;
LockOrderViolationHandler SetLockOrderViolationHandler(LockOrderViolationHandler handler);

// Number of locks the calling thread currently holds (debugging aid; always
// 0 when lock debugging is disabled).
size_t HeldLockCount();

// ---- Annotated wrappers --------------------------------------------------

// Exclusive mutex. Prefer the RAII MutexLock to manual Lock()/Unlock().
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* name, LockRank rank = LockRank::kUnranked)
      : name_(name), rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE();
  void Unlock() RELEASE();
  bool TryLock() TRY_ACQUIRE(true);

  const char* name() const { return name_; }
  LockRank rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* name_ = "mutex";
  LockRank rank_ = LockRank::kUnranked;
};

// Reader/writer mutex: any number of shared holders or one exclusive holder.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const char* name, LockRank rank = LockRank::kUnranked)
      : name_(name), rank_(rank) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE();
  void Unlock() RELEASE();
  void LockShared() ACQUIRE_SHARED();
  void UnlockShared() RELEASE_SHARED();
  bool TryLock() TRY_ACQUIRE(true);

  const char* name() const { return name_; }
  LockRank rank() const { return rank_; }

 private:
  std::shared_mutex mu_;
  const char* name_ = "shared_mutex";
  LockRank rank_ = LockRank::kUnranked;
};

// RAII exclusive hold of a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// RAII exclusive (writer) hold of a SharedMutex.
class SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterLock() RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII shared (reader) hold of a SharedMutex.
class SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) { mu_.LockShared(); }
  ~ReaderLock() RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to medes::Mutex. Wait() atomically releases the
// mutex while blocked and reacquires it before returning, like
// std::condition_variable; the capability annotation stays "held" across the
// call because the caller observes it held on both sides.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu);
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace medes

#endif  // MEDES_COMMON_MUTEX_H_
