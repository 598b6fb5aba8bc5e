// The annotated mutex wrappers (common/mutex.h): exclusion, shared readers,
// writer exclusion and condition-variable waits.
#include "common/mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace medes {
namespace {

TEST(MutexTest, MutexProvidesExclusion) {
  Mutex mu;
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter, 4000);
}

TEST(MutexTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mu;
  ReaderLock first(mu);
  std::atomic<bool> second_reader_ok{false};
  std::thread reader([&] {
    ReaderLock second(mu);
    second_reader_ok = true;
  });
  reader.join();
  EXPECT_TRUE(second_reader_ok);
}

TEST(MutexTest, WriterExcludesReaders) {
  SharedMutex mu;
  int value = 0;
  std::atomic<bool> reader_done{false};
  std::thread reader;
  {
    WriterLock writer(mu);
    reader = std::thread([&] {
      ReaderLock lock(mu);
      reader_done = true;
    });
    // The reader must block until the writer releases; give it a moment to
    // park, mutate, then check it has not observed the intermediate state.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(reader_done);
    value = 42;
  }
  // Join (never detach): a detached reader could outlive this frame and race
  // on the stack-allocated mutex and flag.
  reader.join();
  EXPECT_TRUE(reader_done);
  ReaderLock lock(mu);
  EXPECT_EQ(value, 42);
}

TEST(MutexTest, CondVarWaitReacquiresMutex) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  bool saw_ready = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) {
      cv.Wait(mu);
    }
    saw_ready = ready;  // read under the reacquired mutex
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(saw_ready);
}

}  // namespace
}  // namespace medes
