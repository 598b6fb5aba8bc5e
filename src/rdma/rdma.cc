#include "rdma/rdma.h"

#include <map>

namespace medes {

RdmaFabric::RdmaFabric(RdmaOptions options, PageProvider provider,
                       std::shared_ptr<Transport> transport)
    : options_(options), provider_(std::move(provider)), transport_(std::move(transport)) {
  if (transport_ == nullptr) {
    // Standalone use: a private transport over the default topology, so
    // kBaseRead charges and stats exist without a platform.
    transport_ = std::make_shared<Transport>();
  }
}

SimDuration RdmaFabric::ReadCost(Bytes bytes, bool remote) const {
  const Topology& topology = transport_->topology();
  return LinkCost(bytes, remote ? topology.remote : topology.local);
}

SharedPage RdmaFabric::CacheLookup(const PageLocation& location) {
  auto it = cache_index_.find(location);
  if (it == cache_index_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  return it->second->page;
}

void RdmaFabric::CacheInsert(const PageLocation& location, const SharedPage& page) {
  auto it = cache_index_.find(location);
  if (it != cache_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;  // raced fetch of the same page: already cached
  }
  while (lru_.size() >= options_.page_cache_capacity && !lru_.empty()) {
    cache_index_.erase(lru_.back().location);
    lru_.pop_back();
    cache_evictions_.Add();
  }
  lru_.push_front(CacheEntry{location, page});
  cache_index_[location] = lru_.begin();
}

SharedPage RdmaFabric::ReadSharedPage(const PageLocation& location, NodeId reader_node,
                                      SimDuration* cost, const obs::MessageTrace& trace) {
  if (options_.page_cache_capacity > 0) {
    MutexLock lock(cache_mu_);
    if (SharedPage cached = CacheLookup(location)) {
      cache_hits_.Add();
      if (cost != nullptr) {
        *cost += options_.cache_hit_latency;
      }
      return cached;
    }
  }
  if (!provider_) {
    throw RdmaError("RdmaFabric: no page provider installed");
  }
  std::vector<uint8_t> bytes = provider_(location);
  if (bytes.empty()) {
    throw RdmaError("RdmaFabric: base page unavailable");
  }
  const bool remote = location.node != reader_node;
  // One-sided read: the bytes travel owner -> reader as one kBaseRead
  // message. A drop (fault policy) aborts the read before any stats or
  // cache mutation, so degraded runs stay a pure function of page order.
  const auto sent = transport_->Send(MessageType::kBaseRead, location.node, reader_node,
                                     Bytes{bytes.size()}, /*requests=*/1, trace);
  if (!sent.delivered) {
    throw RdmaUnavailable("RdmaFabric: base-page read dropped by fault policy");
  }
  if (remote) {
    remote_reads_.Add();
    remote_bytes_.Add(bytes.size());
  } else {
    local_reads_.Add();
    local_bytes_.Add(bytes.size());
  }
  SharedPage page = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  if (options_.page_cache_capacity > 0) {
    cache_misses_.Add();
    MutexLock lock(cache_mu_);
    CacheInsert(location, page);
  }
  if (cost != nullptr) {
    *cost += sent.cost;
  }
  return page;
}

std::vector<SharedPage> RdmaFabric::ReadSharedPageBatch(std::span<const PageLocation> locations,
                                                        NodeId reader_node, SimDuration* cost,
                                                        const obs::MessageTrace& trace) {
  const size_t n = locations.size();
  std::vector<SharedPage> results(n);
  if (n == 0) {
    return results;
  }

  // 1. Classification, one pass under one lock: every distinct location is
  // exactly one cache hit (its page taken now) or one cache miss (queued
  // for the fetch below); repeats of an earlier batch entry alias its page.
  // Counting here — and nowhere else — is what keeps mixed hit/uncached
  // batches from double-counting hit stats.
  std::vector<size_t> misses;
  std::vector<ptrdiff_t> alias(n, -1);
  uint64_t hits = 0;
  {
    std::unordered_map<PageLocation, size_t, PageLocationHash> first_seen;
    first_seen.reserve(n);
    MutexLock lock(cache_mu_);
    for (size_t i = 0; i < n; ++i) {
      auto [it, inserted] = first_seen.try_emplace(locations[i], i);
      if (!inserted) {
        alias[i] = static_cast<ptrdiff_t>(it->second);
        continue;
      }
      if (options_.page_cache_capacity > 0) {
        if (SharedPage cached = CacheLookup(locations[i])) {
          results[i] = std::move(cached);
          ++hits;
          if (cost != nullptr) {
            *cost += options_.cache_hit_latency;
          }
          continue;
        }
      }
      misses.push_back(i);
    }
  }
  cache_hits_.Add(hits);

  // 2. Fetch the misses, one coalesced wire message per owner node (the
  // iteration order is NodeId order — deterministic regardless of the
  // batch's layout). A dropped group aborts the whole batch: a restore
  // cannot proceed with partial bases.
  if (!misses.empty() && !provider_) {
    throw RdmaError("RdmaFabric: no page provider installed");
  }
  std::map<NodeId, std::vector<size_t>> by_node;
  for (size_t i : misses) {
    by_node[locations[i].node].push_back(i);
  }
  for (const auto& [node, idxs] : by_node) {
    size_t group_bytes = 0;
    for (size_t i : idxs) {
      std::vector<uint8_t> bytes = provider_(locations[i]);
      if (bytes.empty()) {
        throw RdmaError("RdmaFabric: base page unavailable");
      }
      group_bytes += bytes.size();
      results[i] = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    }
    // Fold the owner node into the trace ordinal: the per-node groups of a
    // batch are distinct sends and need distinct, deterministic span ids.
    const obs::MessageTrace group_trace{
        trace.ctx, trace.at, trace.ordinal * 1024 + static_cast<uint64_t>(node.value())};
    const auto sent = transport_->Send(MessageType::kBaseReadBatch, node, reader_node,
                                       Bytes{group_bytes}, idxs.size(), group_trace);
    if (!sent.delivered) {
      throw RdmaUnavailable("RdmaFabric: batched base-page read dropped by fault policy");
    }
    if (cost != nullptr) {
      *cost += sent.cost;
    }
    batch_messages_.Add();
    batch_pages_.Add(idxs.size());
    if (node != reader_node) {
      remote_reads_.Add(idxs.size());
      remote_bytes_.Add(group_bytes);
    } else {
      local_reads_.Add(idxs.size());
      local_bytes_.Add(group_bytes);
    }
    if (options_.page_cache_capacity > 0) {
      cache_misses_.Add(idxs.size());
      MutexLock lock(cache_mu_);
      for (size_t i : idxs) {
        CacheInsert(locations[i], results[i]);
      }
    }
  }

  // 3. Resolve duplicates against the batch's own pages. A repeat is
  // charged as a local DRAM copy of bytes already in hand: hit-priced, and
  // counted as a cache hit only when a cache actually exists to have served
  // it.
  uint64_t alias_hits = 0;
  for (size_t i = 0; i < n; ++i) {
    if (alias[i] < 0) {
      continue;
    }
    results[i] = results[static_cast<size_t>(alias[i])];
    if (cost != nullptr) {
      *cost += options_.cache_hit_latency;
    }
    if (options_.page_cache_capacity > 0) {
      ++alias_hits;
    }
  }
  cache_hits_.Add(alias_hits);
  return results;
}

std::vector<std::vector<uint8_t>> RdmaFabric::ReadPageBatch(std::span<const PageLocation> locations,
                                                            NodeId reader_node, SimDuration* cost,
                                                            const obs::MessageTrace& trace) {
  const std::vector<SharedPage> pages = ReadSharedPageBatch(locations, reader_node, cost, trace);
  std::vector<std::vector<uint8_t>> copies;
  copies.reserve(pages.size());
  for (const SharedPage& page : pages) {
    copies.push_back(*page);
  }
  return copies;
}

void RdmaFabric::InvalidateSandbox(SandboxId sandbox) {
  MutexLock lock(cache_mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->location.sandbox == sandbox) {
      cache_index_.erase(it->location);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t RdmaFabric::CachedPages() const {
  MutexLock lock(cache_mu_);
  return lru_.size();
}

RdmaStats RdmaFabric::stats() const {
  return RdmaStats{.remote_reads = remote_reads_.Value(),
                   .remote_bytes = remote_bytes_.Value(),
                   .local_reads = local_reads_.Value(),
                   .local_bytes = local_bytes_.Value(),
                   .batch_messages = batch_messages_.Value(),
                   .batch_pages = batch_pages_.Value(),
                   .cache_hits = cache_hits_.Value(),
                   .cache_misses = cache_misses_.Value(),
                   .cache_evictions = cache_evictions_.Value()};
}

void RdmaFabric::ResetStats() {
  for (obs::StatCounter* c : {&remote_reads_, &remote_bytes_, &local_reads_, &local_bytes_,
                              &batch_messages_, &batch_pages_, &cache_hits_, &cache_misses_,
                              &cache_evictions_}) {
    c->Reset();
  }
}

}  // namespace medes
