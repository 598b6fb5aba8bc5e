// Annotated mutex wrappers.
//
// Every mutex in medes is one of these wrappers instead of a raw
// std::mutex / std::shared_mutex. The wrappers carry Clang `capability`
// attributes (common/annotations.h), so a Clang build with -Wthread-safety
// (-DMEDES_THREAD_SAFETY=ON) proves that every GUARDED_BY field is only
// touched under its lock, every REQUIRES helper is only called with the lock
// held, and every ACQUIRED_AFTER ordering is respected. Each method is one
// inline call into the std primitive.
#ifndef MEDES_COMMON_MUTEX_H_
#define MEDES_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/annotations.h"

namespace medes {

// Exclusive mutex. Prefer the RAII MutexLock to manual Lock()/Unlock().
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// Reader/writer mutex: any number of shared holders or one exclusive holder.
//
// Readers are preferred: std::shared_mutex is glibc's pthread_rwlock in its
// default kind, which grants a shared hold whenever another reader holds
// the lock, even with a writer waiting. Overlapping readers can so keep a
// writer out for as long as they keep overlapping. The rule that follows:
// keep reader sections short and bounded, and do nothing under a shared
// hold that can be done after it (no allocation, no sorting or ranking).
// An intermediate FingerprintRegistry lookup that allocated its results
// under the reader lock made RegistryConcurrencyTest's writer wait 274 s
// under ASan.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  void LockShared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
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

  // The adopt/release pair lends the already-held std::mutex to a
  // unique_lock for the duration of the wait.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace medes

#endif  // MEDES_COMMON_MUTEX_H_
