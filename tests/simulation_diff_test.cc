// Fire-order proof for the event engine.
//
// The calendar queue's correctness claim is behavioural equivalence with the
// textbook discrete-event queue: a binary heap of (time, seq) entries. These
// tests drive the engine and an in-test reference model of that queue with
// identical randomized workloads — including nested scheduling, cancels from
// inside callbacks, chunked RunUntil, and adversarial wheel geometries — and
// require the observed fire sequences to match element-for-element.
#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"

namespace medes {
namespace {

// The reference model: a std::priority_queue ordered by (time, seq), with
// std::function callbacks in a side table keyed by handle. A handle is its
// event's seq; seqs are never reused, so Cancel erases the callback and a
// stale handle matches nothing. Cancelled entries stay queued and are
// dropped when they reach the top.
class ReferenceSim {
 public:
  SimTime Now() const { return now_; }
  uint64_t events_processed() const { return events_processed_; }
  bool Empty() const { return callbacks_.empty(); }

  EventId Schedule(SimTime t, std::function<void()> cb) {
    const EventId id = next_seq_++;
    queue_.push(Entry{t, id});
    callbacks_.emplace(id, std::move(cb));
    return id;
  }
  EventId ScheduleAfter(SimDuration delay, std::function<void()> cb) {
    return Schedule(now_ + delay, std::move(cb));
  }
  void Cancel(EventId id) { callbacks_.erase(id); }

  void Run() { RunUntil(kSimTimeMax); }
  void RunUntil(SimTime until) {
    while (!queue_.empty()) {
      const Entry next = queue_.top();
      const auto it = callbacks_.find(next.seq);
      if (it == callbacks_.end()) {
        queue_.pop();  // cancelled
        continue;
      }
      if (next.time > until) {
        break;
      }
      queue_.pop();
      const std::function<void()> cb = std::move(it->second);
      callbacks_.erase(it);
      now_ = next.time;
      ++events_processed_;
      cb();
    }
    if (until != kSimTimeMax && now_ < until) {
      now_ = until;
    }
  }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    bool operator>(const Entry& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_map<EventId, std::function<void()>> callbacks_;
  SimTime now_;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
};

struct WorkloadResult {
  std::vector<uint64_t> fire_sequence;  // event labels in fire order
  uint64_t events_processed = 0;
  SimTime end_time;
};

// A deterministic randomized workload driven purely through the public API.
// Given the same seed it issues the same operation sequence against either
// simulator: bursts of schedules (short, medium, and beyond-window delays),
// cancels of random live handles (sometimes twice, sometimes stale), nested
// scheduling and cancelling from inside callbacks, and chunked RunUntil
// progress with fresh schedules between chunks.
template <typename Sim>
WorkloadResult RunWorkload(Sim& sim, uint64_t seed) {
  Rng rng(seed);
  WorkloadResult out;
  std::vector<EventId> handles;
  uint64_t next_label = 0;

  std::function<void(uint64_t, int)> fire = [&](uint64_t label, int depth) {
    out.fire_sequence.push_back(label);
    // Nested behaviour is derived from the label, not a shared RNG, so it is
    // identical across simulators regardless of memory layout.
    Rng local(seed ^ (label * 0x9e3779b97f4a7c15ull));
    if (depth < 3 && local.Bernoulli(0.4)) {
      const int children = static_cast<int>(local.Range(1, 3));
      for (int c = 0; c < children; ++c) {
        const uint64_t child = next_label++;
        const SimDuration delay{local.Range(0, 40'000)};
        handles.push_back(
            sim.ScheduleAfter(delay, [&fire, child, depth] { fire(child, depth + 1); }));
      }
    }
    if (!handles.empty() && local.Bernoulli(0.3)) {
      sim.Cancel(handles[local.Below(handles.size())]);
    }
  };

  SimTime horizon;
  for (int chunk = 0; chunk < 5; ++chunk) {
    for (int i = 0; i < 120; ++i) {
      const uint64_t label = next_label++;
      // Mix of near (in-bucket), mid (in-window), and far (overflow) delays.
      SimDuration delay;
      switch (rng.Below(3)) {
        case 0:
          delay = SimDuration{rng.Range(0, 100)};
          break;
        case 1:
          delay = SimDuration{rng.Range(0, 20'000)};
          break;
        default:
          delay = SimDuration{rng.Range(0, 2'000'000)};
          break;
      }
      handles.push_back(
          sim.Schedule(sim.Now() + delay, [&fire, label] { fire(label, 0); }));
    }
    for (int i = 0; i < 30 && !handles.empty(); ++i) {
      sim.Cancel(handles[rng.Below(handles.size())]);
    }
    horizon += SimDuration{300'000};
    sim.RunUntil(horizon);
  }
  sim.Run();
  out.events_processed = sim.events_processed();
  out.end_time = sim.Now();
  return out;
}

WorkloadResult RunCalendar(uint64_t seed, int width_log2 = 14, int buckets_log2 = 10) {
  Simulation sim(
      SimulationOptions{.bucket_width_log2 = width_log2, .num_buckets_log2 = buckets_log2});
  return RunWorkload(sim, seed);
}

WorkloadResult RunReference(uint64_t seed) {
  ReferenceSim sim;
  return RunWorkload(sim, seed);
}

TEST(SimulationDiffTest, RandomizedWorkloadsMatchHeap) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const WorkloadResult cal = RunCalendar(seed);
    const WorkloadResult ref = RunReference(seed);
    ASSERT_EQ(cal.fire_sequence, ref.fire_sequence) << "seed " << seed;
    EXPECT_EQ(cal.events_processed, ref.events_processed) << "seed " << seed;
    EXPECT_EQ(cal.end_time, ref.end_time) << "seed " << seed;
  }
}

// Adversarial geometries: one-bucket wheels, tiny windows (every event
// overflows and migrates), and wide buckets that pile everything into one
// lazily-sorted bucket must all preserve the contract.
TEST(SimulationDiffTest, AdversarialGeometriesMatchHeap) {
  const WorkloadResult ref = RunReference(0xfeed);
  const int geometries[][2] = {{0, 1}, {1, 2}, {4, 1}, {20, 2}, {2, 12}};
  for (const auto& g : geometries) {
    const WorkloadResult cal = RunCalendar(0xfeed, g[0], g[1]);
    ASSERT_EQ(cal.fire_sequence, ref.fire_sequence)
        << "geometry width_log2=" << g[0] << " buckets_log2=" << g[1];
    EXPECT_EQ(cal.events_processed, ref.events_processed);
    EXPECT_EQ(cal.end_time, ref.end_time);
  }
}

// Every queued entry is either pending or cancelled: a bookkeeping slip in
// the purge or the release would break this before it broke fire order.
void CheckQueueAccounting(const Simulation& sim) {
  const SimStats st = sim.stats();
  ASSERT_EQ(st.queued - st.stale, st.scheduled - st.fired - st.cancelled);
}
void CheckQueueAccounting(const ReferenceSim&) {}

// The platform's fixed keep-alive pattern, scaled to the wheel: bursts of
// requests, each of which re-arms one of a few keep-alive timers (cancel,
// then schedule most of a window ahead) and schedules a completion a
// quarter bucket ahead at most, usually into the bucket being drained.
// Every re-arm strands a cancelled entry ahead of the
// cursor, so cancelled entries outnumber live ones about 100 to 1 — the
// backlog that the purge of full buckets and the release of drained ones
// exist for. Times are fractions of the window, so the workload means the
// same thing at every geometry.
template <typename Sim>
WorkloadResult RunRearmWorkload(Sim& sim, uint64_t seed, int width_log2, int buckets_log2) {
  const int64_t width = int64_t{1} << width_log2;
  const int64_t window = width << buckets_log2;
  constexpr int kTimers = 8;
  constexpr int kBurst = 50;
  constexpr int kBursts = 80;
  Rng rng(seed);
  WorkloadResult out;
  std::vector<EventId> timers(kTimers, 0);
  uint64_t next_label = 0;
  int requests = 0;
  std::function<void()> request = [&] {
    out.fire_sequence.push_back(next_label++);
    CheckQueueAccounting(sim);
    const size_t k = rng.Below(kTimers);
    sim.Cancel(timers[k]);
    const uint64_t expiry = next_label++;
    const SimDuration keep_alive{window * 9 / 10 - rng.Range(0, width)};
    timers[k] =
        sim.ScheduleAfter(keep_alive, [&out, expiry] { out.fire_sequence.push_back(expiry); });
    const uint64_t done = next_label++;
    sim.ScheduleAfter(SimDuration{rng.Range(0, width / 4)},
                      [&out, done] { out.fire_sequence.push_back(done); });
    if (++requests < kBurst * kBursts) {
      const int64_t gap = requests % kBurst == 0 ? window / 20 : rng.Range(0, width / 64);
      sim.ScheduleAfter(SimDuration{gap}, request);
    }
  };
  sim.Schedule(SimTime{}, request);
  // Chunked progress leaves the cursor parked ahead of Now() between chunks.
  for (SimTime horizon; !sim.Empty(); ) {
    horizon += SimDuration{window / 7};
    sim.RunUntil(horizon);
    CheckQueueAccounting(sim);
  }
  out.events_processed = sim.events_processed();
  out.end_time = sim.Now();
  return out;
}

TEST(SimulationDiffTest, KeepAliveRearmMatchesHeap) {
  const int geometries[][2] = {{15, 15}, {6, 5}};
  for (const auto& g : geometries) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Simulation cal(SimulationOptions{.bucket_width_log2 = g[0], .num_buckets_log2 = g[1]});
      const WorkloadResult got = RunRearmWorkload(cal, seed, g[0], g[1]);
      ReferenceSim ref;
      const WorkloadResult want = RunRearmWorkload(ref, seed, g[0], g[1]);
      ASSERT_EQ(got.fire_sequence, want.fire_sequence)
          << "geometry width_log2=" << g[0] << " buckets_log2=" << g[1] << " seed " << seed;
      EXPECT_EQ(got.events_processed, want.events_processed);
      EXPECT_EQ(got.end_time, want.end_time);
    }
  }
}

}  // namespace
}  // namespace medes
