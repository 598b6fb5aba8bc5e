// A small reusable worker pool for the dedup/restore pipeline.
//
// Page-granular dedup work (fingerprinting, registry lookups, delta
// encode/decode) is embarrassingly parallel: every page is independent and
// the results are merged in page order, so parallel execution is
// deterministic by construction. The pool is deliberately minimal — a fixed
// set of workers draining a FIFO of std::function tasks — because callers
// (DedupAgent, benchmarks) only need fork/join parallelism over index
// ranges, not futures or work stealing.
//
// A pool of size <= 1 spawns no threads at all: Submit() and ParallelFor()
// run inline on the caller's thread. This keeps the serial configuration
// (MEDES_THREADS=1) byte-identical in behaviour and free of thread overhead,
// and makes it the reference the determinism tests compare against.
#ifndef MEDES_COMMON_THREAD_POOL_H_
#define MEDES_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace medes {

class ThreadPool {
 public:
  // Worker count resolution: explicit argument > MEDES_THREADS environment
  // variable > std::thread::hardware_concurrency(). Pass 0 to defer to the
  // environment/hardware default.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of workers this pool schedules onto (>= 1; 1 = inline execution).
  size_t NumThreads() const { return num_threads_; }

  // Enqueues one task. Inline pools run it before returning.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  // Blocks until every submitted task has finished. Rethrows the first
  // exception a task raised (subsequent ones are dropped).
  void Wait() EXCLUDES(mu_);

  // fn(i) for every i in [begin, end), fanned out across the workers in
  // contiguous chunks, then joined. Safe to call with an empty range.
  // Exceptions from fn propagate to the caller (first one wins).
  void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn);

  // MEDES_THREADS if set to a positive integer (clamped to [1, 256]),
  // otherwise hardware_concurrency(), otherwise 1.
  static size_t DefaultThreadCount();

 private:
  void WorkerLoop() EXCLUDES(mu_);
  void RecordException() REQUIRES(mu_);

  size_t num_threads_ = 1;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar work_cv_;  // workers: queue non-empty or stopping
  CondVar done_cv_;  // Wait(): all tasks drained
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t in_flight_ GUARDED_BY(mu_) = 0;  // queued + currently executing
  std::exception_ptr first_error_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
};

}  // namespace medes

#endif  // MEDES_COMMON_THREAD_POOL_H_
