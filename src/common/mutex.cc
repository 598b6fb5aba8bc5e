#include "common/mutex.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace medes {

namespace {

// One entry per lock the thread currently holds (shared or exclusive).
struct HeldLock {
  const void* lock = nullptr;
  const char* name = "";
  LockRank rank = LockRank::kUnranked;
};

// The checker's own state is synchronized with raw std primitives — it must
// never re-enter the instrumented wrappers.
std::vector<HeldLock>& HeldStack() {
  static thread_local std::vector<HeldLock> stack;
  return stack;
}

bool DefaultEnabled() {
  const char* env = std::getenv("MEDES_DEBUG_LOCKS");
  return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled(DefaultEnabled());
  return enabled;
}

std::mutex& HandlerMutex() {
  static std::mutex mu;
  return mu;
}

LockOrderViolationHandler& HandlerSlot() {
  static LockOrderViolationHandler handler;  // empty = default (print + abort)
  return handler;
}

void ReportViolation(const HeldLock& offender, const char* name, LockRank rank) {
  std::string message = "lock-order violation: acquiring \"";
  message += name;
  message += "\" (";
  message += ToString(rank);
  message += ") while holding \"";
  message += offender.name;
  message += "\" (";
  message += ToString(offender.rank);
  message += "); locks held by this thread, oldest first:";
  for (const HeldLock& held : HeldStack()) {
    message += " \"";
    message += held.name;
    message += "\" (";
    message += ToString(held.rank);
    message += ")";
  }
  LockOrderViolationHandler handler;
  {
    std::lock_guard<std::mutex> lock(HandlerMutex());
    handler = HandlerSlot();
  }
  if (handler) {
    handler(message);
    return;  // test hook chose to continue
  }
  std::fprintf(stderr, "%s\n", message.c_str());
  std::abort();
}

// Called before blocking on the lock so a violation is reported even when
// the inversion would deadlock rather than proceed.
void OnAcquire(const void* lock, const char* name, LockRank rank) {
  if (!EnabledFlag().load(std::memory_order_relaxed)) {
    return;
  }
  std::vector<HeldLock>& stack = HeldStack();
  if (rank != LockRank::kUnranked) {
    // Scan newest-first so the message names the most recent offender.
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->rank != LockRank::kUnranked && it->rank >= rank) {
        ReportViolation(*it, name, rank);
        break;
      }
    }
  }
  stack.push_back(HeldLock{lock, name, rank});
}

void OnRelease(const void* lock) {
  std::vector<HeldLock>& stack = HeldStack();
  // Unlock order need not mirror lock order; erase the newest match. The
  // stack may lack an entry when checking was enabled mid-critical-section.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->lock == lock) {
      stack.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace

const char* ToString(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked:
      return "unranked";
    case LockRank::kPoolQueue:
      return "rank 1: pool queue";
    case LockRank::kRegistryTable:
      return "rank 2: registry table";
    case LockRank::kRdmaCache:
      return "rank 3: rdma cache";
    case LockRank::kTransport:
      return "rank 4: transport";
    case LockRank::kMetrics:
      return "rank 5: metrics";
    case LockRank::kObsRegistry:
      return "rank 6: obs registry";
    case LockRank::kObsBuffer:
      return "rank 7: obs span buffer";
  }
  return "unknown";
}

bool LockDebuggingEnabled() { return EnabledFlag().load(std::memory_order_relaxed); }

void SetLockDebugging(bool enabled) {
  EnabledFlag().store(enabled, std::memory_order_relaxed);
}

LockOrderViolationHandler SetLockOrderViolationHandler(LockOrderViolationHandler handler) {
  std::lock_guard<std::mutex> lock(HandlerMutex());
  LockOrderViolationHandler previous = HandlerSlot();
  HandlerSlot() = std::move(handler);
  return previous;
}

size_t HeldLockCount() { return HeldStack().size(); }

void Mutex::Lock() {
  OnAcquire(this, name_, rank_);
  mu_.lock();
}

void Mutex::Unlock() {
  mu_.unlock();
  OnRelease(this);
}

bool Mutex::TryLock() {
  if (!mu_.try_lock()) {
    return false;
  }
  // Record after the fact: a failed try_lock is not an acquisition, and a
  // successful one cannot deadlock — but it still enters the held stack so
  // later acquisitions are checked against it.
  OnAcquire(this, name_, rank_);
  return true;
}

void SharedMutex::Lock() {
  OnAcquire(this, name_, rank_);
  mu_.lock();
}

void SharedMutex::Unlock() {
  mu_.unlock();
  OnRelease(this);
}

void SharedMutex::LockShared() {
  OnAcquire(this, name_, rank_);
  mu_.lock_shared();
}

void SharedMutex::UnlockShared() {
  mu_.unlock_shared();
  OnRelease(this);
}

bool SharedMutex::TryLock() {
  if (!mu_.try_lock()) {
    return false;
  }
  OnAcquire(this, name_, rank_);
  return true;
}

// The adopt/release dance hands the already-held std::mutex to a unique_lock
// for the duration of the wait. The capability stays held from the caller's
// perspective (REQUIRES on the declaration); the held-lock stack likewise
// keeps its entry — while blocked this thread acquires nothing, so no
// ordering decision can depend on it.
void CondVar::Wait(Mutex& mu) {
  std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
  cv_.wait(lock);
  lock.release();
}

}  // namespace medes
