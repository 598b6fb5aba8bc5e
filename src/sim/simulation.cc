#include "sim/simulation.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace medes {

namespace {

std::atomic<uint64_t> g_total_fired{0};

}  // namespace

uint64_t TotalSimEventsFired() { return g_total_fired.load(std::memory_order_relaxed); }

Simulation::Simulation(SimulationOptions options)
    : options_(options),
      fired_series_(obs::MetricsRegistry::Default().GetCounter("medes_sim_events_fired_total")) {
  if (options_.bucket_width_log2 < 0 || options_.bucket_width_log2 > 30 ||
      options_.num_buckets_log2 < 1 || options_.num_buckets_log2 > 20) {
    throw std::invalid_argument("Simulation: bad calendar geometry");
  }
  bucket_width_ = SimDuration{int64_t{1} << options_.bucket_width_log2};
  const uint32_t num_buckets = 1u << options_.num_buckets_log2;
  bucket_mask_ = num_buckets - 1;
  buckets_.resize(num_buckets);
  window_end_ = SimTime{static_cast<int64_t>(num_buckets) << options_.bucket_width_log2};
}

Simulation::~Simulation() {
  // Live callbacks own resources (captured state, possible heap fallback) and
  // the arena has no per-slot destructor — release explicitly.
  for (auto& chunk : chunks_) {
    for (uint32_t i = 0; i < kChunkSize; ++i) {
      if (chunk[i].live) {
        chunk[i].cb.Destroy();
      }
    }
  }
}

void Simulation::RefillSlots() {
  const uint32_t base = static_cast<uint32_t>(chunks_.size()) * kChunkSize;
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
  free_slots_.reserve(kChunkSize);
  for (uint32_t i = kChunkSize; i > 0; --i) {  // pop_back hands out ascending slots
    free_slots_.push_back(base + i - 1);
  }
}

void Simulation::InsertOverflow(const CalEntry& e) { overflow_.push(e); }

void Simulation::PurgeStale(std::vector<CalEntry>& bucket) {
  const auto live_end = std::remove_if(bucket.begin(), bucket.end(),
                                       [this](const CalEntry& e) { return !EntryLive(e); });
  const auto purged = static_cast<uint64_t>(bucket.end() - live_end);
  bucket.erase(live_end, bucket.end());
  in_wheel_ -= purged;
  stale_pending_ -= purged;
  // A purge that freed little would rescan the whole bucket on the next
  // insert; grow now instead, so each entry is scanned O(1) times amortised.
  if (bucket.size() * 2 > bucket.capacity()) {
    bucket.reserve(2 * bucket.capacity());
  }
}

void Simulation::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id >> 32);
  const uint32_t gen = static_cast<uint32_t>(id);
  if (gen == 0 || slot >= chunks_.size() * kChunkSize) {
    return;
  }
  Slot& s = SlotRef(slot);
  if (!s.live || s.gen != gen) {
    return;  // already fired or cancelled; any queued entry is stale
  }
  s.live = false;
  if (++s.gen == 0) {
    s.gen = 1;
  }
  s.cb.Destroy();
  free_slots_.push_back(slot);
  --live_count_;
  ++stale_pending_;
  ++stat_cancelled_;
}

bool Simulation::PeekNext(CalEntry& out) {
  if (live_count_ == 0) {
    return false;
  }
  for (;;) {
    auto& bucket = buckets_[static_cast<uint32_t>(cursor_bucket_) & bucket_mask_];
    if (cursor_dirty_) {
      std::sort(bucket.begin() + static_cast<std::ptrdiff_t>(fire_idx_), bucket.end(),
                EntryBefore{});
      cursor_dirty_ = false;
    }
    while (fire_idx_ < bucket.size()) {
      const CalEntry e = bucket[fire_idx_];
      // With no stale entries pending anywhere, the slot probe is pure cost.
      if (stale_pending_ != 0 && !EntryLive(e)) {  // cancelled after queueing
        ++fire_idx_;
        --in_wheel_;
        --stale_pending_;
        continue;
      }
#if defined(__GNUC__)
      // Warm the next entry's slot line while this event's callback runs —
      // slots are scattered across the arena, so the liveness probe and
      // invoke of the *next* fire would otherwise stall on a cold line.
      if (fire_idx_ + 1 < bucket.size()) {
        __builtin_prefetch(&SlotRef(bucket[fire_idx_ + 1].slot), 1, 3);
      }
#endif
      out = e;
      return true;
    }
    if (bucket.capacity() > kKeptBucketCapacity) {
      std::vector<CalEntry>().swap(bucket);
    } else {
      bucket.clear();
    }
    fire_idx_ = 0;
    if (in_wheel_ == 0) {
      if (overflow_.empty()) {
        return false;  // unreachable while live_count_ > 0; defensive
      }
      // Jump straight to the bucket holding the earliest far-future entry
      // instead of walking (possibly millions of) empty buckets.
      cursor_bucket_ = overflow_.top().time.value() >> options_.bucket_width_log2;
    } else {
      ++cursor_bucket_;
    }
    window_end_ = SimTime{(cursor_bucket_ + static_cast<int64_t>(bucket_mask_) + 1)
                        << options_.bucket_width_log2};
    cursor_dirty_ = true;
    if (!overflow_.empty() && overflow_.top().time < window_end_) {
      obs::ScopedSpan span("sim_refill", "sim", now_);
      uint64_t migrated = 0;
      while (!overflow_.empty() && overflow_.top().time < window_end_) {
        const CalEntry moved = overflow_.top();
        overflow_.pop();
        if (stale_pending_ != 0 && !EntryLive(moved)) {
          --stale_pending_;
          continue;  // cancelled while waiting in the overflow tier
        }
        buckets_[static_cast<uint32_t>(moved.time.value() >> options_.bucket_width_log2) & bucket_mask_]
            .push_back(moved);
        ++in_wheel_;
        ++migrated;
      }
      stat_migrations_ += migrated;
      span.AddArg("migrated", static_cast<int64_t>(migrated));
    }
  }
}

void Simulation::ConsumeNext() {
  ++fire_idx_;
  --in_wheel_;
}

void Simulation::Fire(const CalEntry& e) {
  Slot& s = SlotRef(e.slot);
  s.live = false;
  if (++s.gen == 0) {
    s.gen = 1;
  }
  --live_count_;
  ++events_processed_;
  // The callback runs in place in the arena. The slot is already marked dead
  // (not reusable mid-execution) and is recycled only after the callback
  // returns — including via exception.
  struct SlotReclaim {
    Simulation* sim;
    Slot* s;
    uint32_t slot;
    ~SlotReclaim() {
      s->cb.Destroy();
      sim->free_slots_.push_back(slot);
    }
  } reclaim{this, &s, e.slot};
  s.cb.Invoke();
}

void Simulation::Run() { RunUntil(kSimTimeMax); }

void Simulation::RunUntil(SimTime until) {
  obs::ScopedSpan span("sim_run", "sim", now_);
  const SimTime start_time = now_;
  const uint64_t fired_before = events_processed_;
  CalEntry e;
  while (PeekNextFast(e) || PeekNext(e)) {
    if (e.time > until) {
      if (until != kSimTimeMax) {
        now_ = until;
      }
      span.SetSimDuration(now_ - start_time);
      span.AddArg("fired", static_cast<int64_t>(events_processed_ - fired_before));
      FlushObs(events_processed_ - fired_before);
      return;
    }
    ConsumeNext();
    now_ = e.time;
    Fire(e);
  }
  if (until != kSimTimeMax && now_ < until) {
    now_ = until;
  }
  span.SetSimDuration(now_ - start_time);
  span.AddArg("fired", static_cast<int64_t>(events_processed_ - fired_before));
  FlushObs(events_processed_ - fired_before);
}

void Simulation::FlushObs(uint64_t fired_delta) {
  if (fired_delta == 0) {
    return;
  }
  g_total_fired.fetch_add(fired_delta, std::memory_order_relaxed);
  fired_series_.Add(fired_delta);
}

SimStats Simulation::stats() const {
  SimStats s;
  s.scheduled = stat_scheduled_;
  s.fired = events_processed_;
  s.cancelled = stat_cancelled_;
  s.overflow_migrations = stat_migrations_;
  s.max_live = stat_max_live_;
  s.queued = in_wheel_ + overflow_.size();
  s.stale = stale_pending_;
  return s;
}

}  // namespace medes
