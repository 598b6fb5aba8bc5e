#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace medes {
namespace {

class SimulationTest : public ::testing::Test {
 protected:
  Simulation sim;
};

TEST_F(SimulationTest, EventsFireInTimeOrder) {
  std::vector<int> order;
  sim.Schedule(SimTime{30}, [&] { order.push_back(3); });
  sim.Schedule(SimTime{10}, [&] { order.push_back(1); });
  sim.Schedule(SimTime{20}, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST_F(SimulationTest, EqualTimesFifoByScheduleOrder) {
  std::vector<int> order;
  sim.Schedule(SimTime{5}, [&] { order.push_back(1); });
  sim.Schedule(SimTime{5}, [&] { order.push_back(2); });
  sim.Schedule(SimTime{5}, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_F(SimulationTest, NowAdvancesWithEvents) {
  SimTime seen{-1};
  sim.Schedule(SimTime{42}, [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, SimTime{42});
  EXPECT_EQ(sim.Now(), SimTime{42});
}

TEST_F(SimulationTest, ScheduleAfterUsesCurrentTime) {
  SimTime seen{-1};
  sim.Schedule(SimTime{10}, [&] {
    sim.ScheduleAfter(SimDuration{5}, [&] { seen = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(seen, SimTime{15});
}

TEST_F(SimulationTest, CancelPreventsExecution) {
  bool fired = false;
  EventId id = sim.Schedule(SimTime{10}, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST_F(SimulationTest, CancelIsIdempotent) {
  EventId id = sim.Schedule(SimTime{10}, [] {});
  sim.Cancel(id);
  sim.Cancel(id);
  sim.Run();
}

TEST_F(SimulationTest, CancelFromWithinEvent) {
  bool fired = false;
  EventId later = sim.Schedule(SimTime{20}, [&] { fired = true; });
  sim.Schedule(SimTime{10}, [&] { sim.Cancel(later); });
  sim.Run();
  EXPECT_FALSE(fired);
}

// Edge pin: an event may cancel a *same-timestamp* event scheduled after it.
// The victim sits in the already-sorted cursor bucket right behind the
// firing index — the laziest possible moment to cancel — and must still be
// suppressed.
TEST_F(SimulationTest, CancelSameTimePendingEvent) {
  std::vector<int> order;
  EventId victim = 0;
  sim.Schedule(SimTime{10}, [&] {
    order.push_back(1);
    sim.Cancel(victim);
  });
  sim.Schedule(SimTime{10}, [&] { order.push_back(2); });
  victim = sim.Schedule(SimTime{10}, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST_F(SimulationTest, RunUntilStopsEarly) {
  std::vector<int> order;
  sim.Schedule(SimTime{10}, [&] { order.push_back(1); });
  sim.Schedule(SimTime{100}, [&] { order.push_back(2); });
  sim.RunUntil(SimTime{50});
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.Now(), SimTime{50});
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Edge pin: RunUntil's bound is inclusive — an event at exactly `until`
// fires; one microsecond later stays queued.
TEST_F(SimulationTest, RunUntilBoundaryIsInclusive) {
  std::vector<int> order;
  sim.Schedule(SimTime{50}, [&] { order.push_back(1); });
  sim.Schedule(SimTime{51}, [&] { order.push_back(2); });
  sim.RunUntil(SimTime{50});
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.Now(), SimTime{50});
  EXPECT_FALSE(sim.Empty());
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// Edge pin: scheduling after an early-stopped RunUntil works even at times
// the engine's cursor has already swept past in wall position (the engine
// folds such entries into the cursor bucket).
TEST_F(SimulationTest, ScheduleAfterEarlyStop) {
  std::vector<int> order;
  sim.Schedule(SimTime{10}, [&] { order.push_back(1); });
  sim.RunUntil(SimTime{1000});
  EXPECT_EQ(sim.Now(), SimTime{1000});
  sim.Schedule(SimTime{1001}, [&] { order.push_back(2); });
  sim.Schedule(SimTime{5000}, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Edge pin: events_processed counts fired events only — cancellations are
// invisible to it no matter when they happen.
TEST_F(SimulationTest, EventsProcessedExcludesCancelled) {
  EventId a = sim.Schedule(SimTime{10}, [] {});
  sim.Schedule(SimTime{20}, [] {});
  EventId c = sim.Schedule(SimTime{30}, [] {});
  sim.Cancel(a);
  sim.Schedule(SimTime{15}, [&] { sim.Cancel(c); });
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 2u);
  EXPECT_EQ(sim.stats().cancelled, 2u);
  EXPECT_EQ(sim.stats().fired, 2u);
}

TEST_F(SimulationTest, PastSchedulingRejected) {
  sim.Schedule(SimTime{10}, [] {});
  sim.Run();
  EXPECT_THROW(sim.Schedule(SimTime{5}, [] {}), std::invalid_argument);
}

TEST_F(SimulationTest, RecursiveSchedulingChain) {
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) {
      sim.ScheduleAfter(SimDuration{1}, tick);
    }
  };
  sim.Schedule(SimTime{0}, tick);
  sim.Run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.Now(), SimTime{99});
}

TEST_F(SimulationTest, EmptyReflectsPendingWork) {
  EXPECT_TRUE(sim.Empty());
  EventId id = sim.Schedule(SimTime{10}, [] {});
  EXPECT_FALSE(sim.Empty());
  sim.Cancel(id);
  EXPECT_TRUE(sim.Empty());
}

// A stale handle must never cancel an unrelated event that recycled the same
// arena slot (generation tags).
TEST_F(SimulationTest, StaleHandleCannotCancelRecycledSlot) {
  EventId old_id = sim.Schedule(SimTime{10}, [] {});
  sim.Cancel(old_id);
  // Recycle aggressively: the engine reuses the freed slot for the very next
  // schedule.
  bool fired = false;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(sim.Schedule(SimTime{20 + i}, [&] { fired = true; }));
  }
  sim.Cancel(old_id);  // stale: must be a no-op
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.events_processed(), 8u);
}

// Callbacks larger than the inline small-buffer budget must still work (heap
// fallback path in the arena).
TEST_F(SimulationTest, LargeCallbacksSupported) {
  struct Big {
    uint64_t payload[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  };
  Big big;
  uint64_t sum = 0;
  sim.Schedule(SimTime{10}, [&sum, big] {
    for (uint64_t v : big.payload) {
      sum += v;
    }
  });
  sim.Run();
  EXPECT_EQ(sum, 36u);
}

// Timers far beyond the calendar window (the 15-minute keep-dedup regime)
// must fire correctly after queue-empty stretches: the wheel jumps instead of
// stepping through millions of empty buckets.
TEST_F(SimulationTest, LongRangeTimersFire) {
  std::vector<SimTime> fired;
  sim.Schedule(SimTime{1}, [&] { fired.push_back(sim.Now()); });
  sim.Schedule(SimTime{} + 15 * kMinute, [&] { fired.push_back(sim.Now()); });
  sim.Schedule(SimTime{} + 2 * kHour, [&] { fired.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<SimTime>{SimTime{1}, SimTime{} + 15 * kMinute,
                                       SimTime{} + 2 * kHour}));
  EXPECT_EQ(sim.Now(), SimTime{} + 2 * kHour);
}

// Reserved seqs pin the tie-break order no matter when events physically
// enter the queue: scheduling a same-timestamp batch lazily (each event
// scheduling its successor, as the streamed trace feed does) must fire in
// reserved order, interleaved correctly with later plain Schedule calls.
TEST_F(SimulationTest, ReservedSeqsPinEqualTimeOrder) {
  std::vector<int> order;
  const uint64_t base = sim.ReserveSeqBlock(3);
  // Plain schedules issued *after* the reservation get later seqs, so at an
  // equal timestamp they fire after every reserved event.
  sim.Schedule(SimTime{10}, [&] { order.push_back(99); });
  std::function<void(int)> chain = [&](int i) {
    sim.ScheduleWithSeq(SimTime{10}, base + static_cast<uint64_t>(i), [&order, &chain, i] {
      if (i + 1 < 3) {
        chain(i + 1);
      }
      order.push_back(i);
    });
  };
  chain(0);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 99}));
}

// Tiny wheel geometry forces constant window slides and overflow migrations;
// the contract must hold regardless of geometry.
TEST(SimulationGeometryTest, TinyWheelPreservesOrder) {
  SimulationOptions opts;
  opts.bucket_width_log2 = 2;  // 4 us buckets
  opts.num_buckets_log2 = 2;   // 4-bucket wheel => 16 us window
  Simulation sim(opts);
  std::vector<SimTime> fired;
  for (int64_t t_us : {900, 5, 300, 17, 16, 64, 3, 1000, 31}) {
    const SimTime t{t_us};
    sim.Schedule(t, [&fired, &sim] { fired.push_back(sim.Now()); });
  }
  sim.Run();
  EXPECT_EQ(fired,
            (std::vector<SimTime>{SimTime{3}, SimTime{5}, SimTime{16}, SimTime{17},
                                  SimTime{31}, SimTime{64}, SimTime{300}, SimTime{900},
                                  SimTime{1000}}));
  EXPECT_GT(sim.stats().overflow_migrations, 0u);
}

TEST(SimulationStatsTest, CountersTrackActivity) {
  Simulation sim;
  EventId a = sim.Schedule(SimTime{10}, [] {});
  sim.Schedule(SimTime{20}, [] {});
  sim.Cancel(a);
  sim.Run();
  const SimStats s = sim.stats();
  EXPECT_EQ(s.scheduled, 2u);
  EXPECT_EQ(s.fired, 1u);
  EXPECT_EQ(s.cancelled, 1u);
  EXPECT_EQ(s.max_live, 2u);
}

}  // namespace
}  // namespace medes
