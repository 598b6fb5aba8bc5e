// Discrete-event simulation engine.
//
// Single-threaded and fully deterministic: events at equal timestamps fire
// in scheduling order (a monotonically increasing sequence number breaks
// ties). Cancellation is by handle and O(1); cancelling a fired event is a
// no-op.
//
// The engine is a two-tier calendar queue. Events due within the wheel
// window land in one of 2^num_buckets_log2 unsorted buckets of
// 2^bucket_width_log2 microseconds each; buckets are sorted lazily when the
// cursor reaches them. A full bucket ahead of the cursor sheds its cancelled
// entries before it grows, and a drained bucket above 8 entries frees its
// storage, so the wheel's footprint follows the live set, not the cancel
// backlog. Events beyond the window wait in an overflow min-heap
// of 24-byte POD entries and migrate into the wheel as it slides. Callbacks
// live in a slab-allocated event arena with inline small-buffer storage (no
// per-event std::function heap allocation), and handles carry a generation
// tag so Cancel is one array probe — no side table, and a stale handle can
// never cancel a recycled slot.
//
// Fire order is exactly (time, seq) under any wheel geometry;
// tests/simulation_diff_test.cc pins it element-for-element against a plain
// priority-queue reference model.
#ifndef MEDES_SIM_SIMULATION_H_
#define MEDES_SIM_SIMULATION_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <queue>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/time.h"

namespace medes {

namespace obs {
class Counter;
}  // namespace obs

using EventId = uint64_t;  // 0 is never a valid handle

struct SimulationOptions {
  // Calendar-queue geometry. Defaults: 32.8 ms buckets, 32768-bucket wheel
  // => a ~17.9 min window that covers every recurring platform timer
  // (completions, 30 s idle-expiry, 10 min keep-alive, 15 min keep-dedup), so
  // in steady state the entire live set sits in O(1) wheel buckets and the
  // overflow heap stays empty.
  int bucket_width_log2 = 15;
  int num_buckets_log2 = 15;
};

// Engine-internal counters (not part of the determinism contract: migration
// counts depend on wheel geometry).
struct SimStats {
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  uint64_t overflow_migrations = 0;  // entries moved overflow tier -> wheel
  uint64_t max_live = 0;             // high-water mark of pending events
  // Entries queued in the wheel and overflow tier, and how many of them are
  // cancelled; queued - stale is always the number of pending events.
  uint64_t queued = 0;
  uint64_t stale = 0;
};

class Simulation {
 public:
  Simulation() : Simulation(SimulationOptions{}) {}
  explicit Simulation(SimulationOptions options);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime Now() const { return now_; }

  // Schedules `cb` at absolute time `t` (>= Now()). Returns a handle usable
  // with Cancel(). Accepts any callable; small callables (<= 32 bytes) are
  // stored inline in the event arena.
  template <typename F>
  EventId Schedule(SimTime t, F&& cb) {
    return ScheduleWithSeq(t, next_seq_++, std::forward<F>(cb));
  }
  template <typename F>
  EventId ScheduleAfter(SimDuration delay, F&& cb) {
    return Schedule(now_ + delay, std::forward<F>(cb));
  }

  // Reserves `n` consecutive tie-break sequence numbers and returns the
  // first. With ScheduleWithSeq this lets a caller feed a pre-sorted batch
  // lazily (e.g. chaining trace arrivals), or queue an event later than it
  // was decided (the platform's keep-alive expiry), while keeping the exact
  // fire order scheduling at reservation time would have produced —
  // equal-time events still fire in reserved-seq order no matter when they
  // physically enter the queue.
  uint64_t ReserveSeqBlock(uint64_t n) {
    const uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  // Schedule with an explicit tie-break seq from ReserveSeqBlock. Seqs must
  // never be reused.
  template <typename F>
  EventId ScheduleWithSeq(SimTime t, uint64_t seq, F&& cb) {
    if (t < now_) {
      throw std::invalid_argument("Simulation::Schedule: time in the past");
    }
    const uint32_t slot = AllocSlot();
    Slot& s = SlotRef(slot);
    s.cb.Emplace(std::forward<F>(cb));
    return CommitSlot(t, s, slot, seq);
  }

  // Cancels a pending event. Idempotent; cancelling a fired event is a no-op,
  // and a stale handle can never hit an event that recycled the same arena
  // slot (generation tag mismatch).
  void Cancel(EventId id);

  // Runs until the queue drains or `until` is reached (events beyond `until`
  // stay queued and the clock stops at `until`). Events scheduled at exactly
  // `until` fire.
  void Run();
  void RunUntil(SimTime until);

  // Fired events only — cancelled events are never counted.
  uint64_t events_processed() const { return events_processed_; }
  bool Empty() const { return live_count_ == 0; }

  SimStats stats() const;

 private:
  // Type-erased callable with inline small-buffer storage. Lifecycle is
  // managed by the arena (Emplace/Invoke/Destroy) — no destructor, so slots
  // recycle without touching cold memory.
  class EventCallback {
   public:
    static constexpr size_t kInlineBytes = 32;

    template <typename F>
    void Emplace(F&& f) {
      using Fn = std::decay_t<F>;
      if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*)) {
        ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
        invoke_ = [](EventCallback* self) {
          (*std::launder(reinterpret_cast<Fn*>(self->inline_)))();
        };
        // Most event callbacks are trivially destructible lambdas; a null
        // destroy_ lets the reclaim path skip the indirect call entirely.
        if constexpr (std::is_trivially_destructible_v<Fn>) {
          destroy_ = nullptr;
        } else {
          destroy_ = [](EventCallback* self) {
            std::launder(reinterpret_cast<Fn*>(self->inline_))->~Fn();
          };
        }
      } else {
        heap_ = new Fn(std::forward<F>(f));
        invoke_ = [](EventCallback* self) { (*static_cast<Fn*>(self->heap_))(); };
        destroy_ = [](EventCallback* self) { delete static_cast<Fn*>(self->heap_); };
      }
    }
    void Invoke() { invoke_(this); }
    void Destroy() {
      if (destroy_ != nullptr) {
        destroy_(this);
      }
    }

   private:
    union {
      alignas(void*) unsigned char inline_[kInlineBytes];
      void* heap_;
    };
    void (*invoke_)(EventCallback*) = nullptr;
    void (*destroy_)(EventCallback*) = nullptr;
  };

  // One cache line per slot: the fire path touches a slot twice (liveness
  // probe, then invoke), and a straddling slot would double those misses.
  struct alignas(64) Slot {
    uint32_t gen = 1;   // bumped on every free; 0 is skipped so ids stay nonzero
    bool live = false;  // a pending event occupies this slot
    EventCallback cb;
  };
  static_assert(sizeof(Slot) == 64, "Slot should stay one cache line");

  // A queued event: POD, 24 bytes. Fire order is (time, seq).
  struct CalEntry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
    uint32_t gen;
  };
  struct EntryAfter {
    bool operator()(const CalEntry& a, const CalEntry& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  struct EntryBefore {
    bool operator()(const CalEntry& a, const CalEntry& b) const {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
  };

  // A drained bucket keeps up to this many entries of storage for its next
  // window; above it the storage is freed, or each bucket would hold its peak
  // capacity (cancelled timers included) for the rest of the run.
  static constexpr size_t kKeptBucketCapacity = 8;

  // Slab chunks keep slot addresses stable while callbacks execute (a
  // callback scheduling new events may grow the arena under its own feet).
  static constexpr uint32_t kChunkSizeLog2 = 10;
  static constexpr uint32_t kChunkSize = 1u << kChunkSizeLog2;

  Slot& SlotRef(uint32_t index) {
    return chunks_[index >> kChunkSizeLog2][index & (kChunkSize - 1)];
  }
  const Slot& SlotRef(uint32_t index) const {
    return chunks_[index >> kChunkSizeLog2][index & (kChunkSize - 1)];
  }

  static EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }

  // Inline so the header-template schedule path avoids cross-TU calls for
  // everything but the rare chunk refill and the wheel insert itself.
  uint32_t AllocSlot() {
    if (free_slots_.empty()) {
      RefillSlots();
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  void RefillSlots();
  EventId CommitSlot(SimTime t, Slot& s, uint32_t slot, uint64_t seq) {
    s.live = true;
    InsertEntry(CalEntry{t, seq, slot, s.gen});
    ++live_count_;
    ++stat_scheduled_;
    stat_max_live_ = std::max(stat_max_live_, live_count_);
    return MakeId(slot, s.gen);
  }

  bool EntryLive(const CalEntry& e) const {
    const Slot& s = SlotRef(e.slot);
    return s.live && s.gen == e.gen;
  }

  // Inline: schedule-heavy workloads (e.g. a chained trace feed) hit the
  // sorted cursor-bucket insert on nearly every schedule.
  void InsertEntry(const CalEntry& e) {
    if (e.time >= window_end_) {
      InsertOverflow(e);
      return;
    }
    int64_t abs_bucket = e.time.value() >> options_.bucket_width_log2;
    // The cursor can sit ahead of Now() (it advanced while peeking an event
    // beyond a RunUntil horizon). Events scheduled behind it are still in the
    // future, so fold them into the cursor bucket: the lazy (time, seq) sort
    // puts them ahead of that bucket's own, strictly later, entries.
    if (abs_bucket < cursor_bucket_) {
      abs_bucket = cursor_bucket_;
    }
    auto& bucket = buckets_[static_cast<uint32_t>(abs_bucket) & bucket_mask_];
    ++in_wheel_;
    if (abs_bucket == cursor_bucket_ && !cursor_dirty_) {
      // The unfired remainder of the cursor bucket is already sorted. A sorted
      // insert keeps it that way: callbacks that schedule back into the bucket
      // being drained (e.g. a chained trace arrival scheduling its successor)
      // would otherwise trigger a full re-sort per fire.
      const auto pos = std::upper_bound(bucket.begin() + static_cast<std::ptrdiff_t>(fire_idx_),
                                        bucket.end(), e, EntryBefore{});
      bucket.insert(pos, e);
      return;
    }
    if (abs_bucket == cursor_bucket_) {
      cursor_dirty_ = true;
    } else if (bucket.size() == bucket.capacity() && stale_pending_ != 0) {
      PurgeStale(bucket);
    }
    bucket.push_back(e);
  }
  void InsertOverflow(const CalEntry& e);
  // Erases the cancelled entries of a full bucket ahead of the cursor, so
  // re-armed timers do not grow it with dead entries.
  void PurgeStale(std::vector<CalEntry>& bucket);
  // Inline fast path for the common case: the cursor bucket is sorted, has an
  // unfired entry, and no stale entries exist anywhere (so it is provably
  // live — no slot probe needed). Falls through to PeekNext otherwise.
  bool PeekNextFast(CalEntry& out) {
    if (cursor_dirty_ || stale_pending_ != 0) {
      return false;
    }
    const auto& bucket = buckets_[static_cast<uint32_t>(cursor_bucket_) & bucket_mask_];
    if (fire_idx_ >= bucket.size()) {
      return false;
    }
    out = bucket[fire_idx_];
#if defined(__GNUC__)
    if (fire_idx_ + 1 < bucket.size()) {
      __builtin_prefetch(&SlotRef(bucket[fire_idx_ + 1].slot), 1, 3);
    }
#endif
    return true;
  }
  // Locates the next live entry, dropping stale (cancelled) ones and sliding
  // the wheel / migrating overflow entries as needed. Returns false when no
  // live events remain. The entry stays queued until ConsumeNext().
  bool PeekNext(CalEntry& out);
  void ConsumeNext();
  void Fire(const CalEntry& e);
  void FlushObs(uint64_t fired_delta);

  SimulationOptions options_;
  // medes_sim_events_fired_total, fed in batches by FlushObs.
  obs::Counter& fired_series_;
  SimTime now_;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t live_count_ = 0;

  // --- calendar queue state ---
  SimDuration bucket_width_;
  uint32_t bucket_mask_ = 0;
  int64_t cursor_bucket_ = 0;  // absolute bucket number (time / width)
  SimTime window_end_;     // exclusive upper bound of the wheel window
  size_t fire_idx_ = 0;        // next unfired entry in the cursor bucket
  bool cursor_dirty_ = false;  // cursor bucket gained entries since last sort
  uint64_t in_wheel_ = 0;      // physical entries resident in buckets
  // Stale (cancelled-but-still-queued) entries across wheel + overflow. Every
  // effective Cancel strands exactly one; while zero, every queued entry is
  // provably live and the fire path skips the per-entry slot probe.
  uint64_t stale_pending_ = 0;
  std::vector<std::vector<CalEntry>> buckets_;
  std::priority_queue<CalEntry, std::vector<CalEntry>, EntryAfter> overflow_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint32_t> free_slots_;

  // --- stats ---
  uint64_t stat_scheduled_ = 0;
  uint64_t stat_cancelled_ = 0;
  uint64_t stat_migrations_ = 0;
  uint64_t stat_max_live_ = 0;
};

// Process-wide count of fired simulation events (all Simulation instances).
// Flushed at RunUntil exit; bench_util's shared metadata block derives its
// events/sec figure from this.
uint64_t TotalSimEventsFired();

}  // namespace medes

#endif  // MEDES_SIM_SIMULATION_H_
