// The annotated mutex wrappers (common/mutex.h) and the runtime lock-rank
// checker. Violations are observed through the handler hook instead of death
// tests: an installed handler that returns lets execution continue, so a
// single process can assert on many inversions.
#include "common/mutex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define MEDES_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MEDES_TSAN_BUILD 1
#endif
#endif

#ifdef MEDES_TSAN_BUILD
// Several tests below acquire locks in deliberately inverted order — that is
// the behavior under test (the runtime lock-rank checker must report it).
// TSan's own potential-deadlock detector would flag those same acquisitions,
// so it is disabled for this binary only; data-race detection stays on.
extern "C" const char* __tsan_default_options() {
  return "detect_deadlocks=0";
}
#endif

namespace medes {
namespace {

// Enables lock debugging and captures violations for the duration of a test,
// restoring whatever state the process started with (CI runs the suite with
// MEDES_DEBUG_LOCKS=1, so the previous state is not necessarily "off").
class MutexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = LockDebuggingEnabled();
    SetLockDebugging(true);
    previous_handler_ = SetLockOrderViolationHandler(
        [this](const std::string& message) { violations_.push_back(message); });
  }

  void TearDown() override {
    SetLockOrderViolationHandler(previous_handler_);
    SetLockDebugging(was_enabled_);
  }

  std::vector<std::string> violations_;

 private:
  bool was_enabled_ = false;
  LockOrderViolationHandler previous_handler_;
};

TEST_F(MutexTest, MutexProvidesExclusion) {
  Mutex mu("test counter");
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
  EXPECT_EQ(HeldLockCount(), 0u);
}

TEST_F(MutexTest, TryLockFailsWhenHeldElsewhere) {
  Mutex mu("try target");
  mu.Lock();
  std::atomic<bool> acquired{true};
  std::thread other([&] {
    acquired = mu.TryLock();
    if (acquired) {
      mu.Unlock();
    }
  });
  other.join();
  EXPECT_FALSE(acquired);
  mu.Unlock();

  // Uncontended TryLock succeeds and is tracked like a normal acquisition.
  ASSERT_TRUE(mu.TryLock());
  EXPECT_EQ(HeldLockCount(), 1u);
  mu.Unlock();
  EXPECT_EQ(HeldLockCount(), 0u);
}

TEST_F(MutexTest, SharedMutexAllowsConcurrentReaders) {
  SharedMutex mu("shared state");
  ReaderLock first(mu);
  std::atomic<bool> second_reader_ok{false};
  std::thread reader([&] {
    ReaderLock second(mu);
    second_reader_ok = true;
  });
  reader.join();
  EXPECT_TRUE(second_reader_ok);
}

TEST_F(MutexTest, WriterExcludesReaders) {
  SharedMutex mu("shared state");
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

TEST_F(MutexTest, CondVarWaitReacquiresMutex) {
  Mutex mu("cv state");
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) {
      cv.Wait(mu);
    }
    // The mutex is held again here; the held-lock stack must agree.
    EXPECT_EQ(HeldLockCount(), 1u);
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
}

TEST_F(MutexTest, AscendingRankOrderIsClean) {
  Mutex pool("pool", LockRank::kPoolQueue);
  SharedMutex table("table", LockRank::kRegistryTable);
  Mutex cache("cache", LockRank::kRdmaCache);
  Mutex metrics("metrics", LockRank::kMetrics);
  {
    MutexLock a(pool);
    ReaderLock b(table);
    MutexLock c(cache);
    MutexLock d(metrics);
    EXPECT_EQ(HeldLockCount(), 4u);
  }
  EXPECT_EQ(HeldLockCount(), 0u);
  EXPECT_TRUE(violations_.empty()) << violations_.front();
}

TEST_F(MutexTest, InvertedAcquisitionReportsBothLocks) {
  Mutex low("registry table lock", LockRank::kRegistryTable);
  Mutex high("metrics sink lock", LockRank::kMetrics);
  {
    MutexLock a(high);
    MutexLock b(low);  // rank 2 after rank 5: inversion
  }
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_NE(violations_[0].find("lock-order violation"), std::string::npos);
  EXPECT_NE(violations_[0].find("registry table lock"), std::string::npos);
  EXPECT_NE(violations_[0].find("metrics sink lock"), std::string::npos);
}

TEST_F(MutexTest, EqualRankNestingIsAViolation) {
  SharedMutex a("table a", LockRank::kRegistryTable);
  SharedMutex b("table b", LockRank::kRegistryTable);
  {
    ReaderLock first(a);
    ReaderLock second(b);  // same rank while the first is held
  }
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_NE(violations_[0].find("table a"), std::string::npos);
  EXPECT_NE(violations_[0].find("table b"), std::string::npos);
}

TEST_F(MutexTest, UnrankedLocksOptOutOfOrdering) {
  Mutex metrics("metrics", LockRank::kMetrics);
  Mutex plain;  // kUnranked
  {
    MutexLock a(metrics);
    MutexLock b(plain);
    EXPECT_EQ(HeldLockCount(), 2u);
  }
  EXPECT_TRUE(violations_.empty()) << violations_.front();
}

TEST_F(MutexTest, ViolationListsHeldStackOldestFirst) {
  Mutex pool("pool", LockRank::kPoolQueue);
  Mutex metrics("metrics", LockRank::kMetrics);
  Mutex cache("cache", LockRank::kRdmaCache);
  {
    MutexLock a(pool);
    MutexLock b(metrics);
    MutexLock c(cache);  // rank 3 after rank 5
  }
  ASSERT_EQ(violations_.size(), 1u);
  const std::string& message = violations_[0];
  // Both held locks appear, in acquisition order.
  size_t pool_pos = message.find("\"pool\"");
  size_t metrics_pos = message.rfind("\"metrics\"");
  ASSERT_NE(pool_pos, std::string::npos);
  ASSERT_NE(metrics_pos, std::string::npos);
  EXPECT_LT(pool_pos, metrics_pos);
}

TEST_F(MutexTest, DisabledCheckerStaysSilent) {
  SetLockDebugging(false);
  Mutex low("low", LockRank::kPoolQueue);
  Mutex high("high", LockRank::kMetrics);
  {
    MutexLock a(high);
    MutexLock b(low);
    EXPECT_EQ(HeldLockCount(), 0u);  // nothing tracked while disabled
  }
  EXPECT_TRUE(violations_.empty());
}

TEST_F(MutexTest, RankNamesAreHumanReadable) {
  EXPECT_EQ(std::string(ToString(LockRank::kPoolQueue)), "rank 1: pool queue");
  EXPECT_NE(std::string(ToString(LockRank::kMetrics)).find("metrics"), std::string::npos);
}

}  // namespace
}  // namespace medes
