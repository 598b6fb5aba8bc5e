#include "cluster/cluster.h"

#include <algorithm>
#include <stdexcept>

#include "common/hash.h"

namespace medes {

const char* ToString(SandboxState state) {
  switch (state) {
    case SandboxState::kRunning:
      return "running";
    case SandboxState::kWarm:
      return "warm";
    case SandboxState::kDedup:
      return "dedup";
  }
  return "?";
}

namespace {

// Recency-index order: time ascending, then id descending.
template <typename Entry>
bool Older(const Entry& a, const Entry& b) {
  return a.time < b.time || (a.time == b.time && a.id > b.id);
}

template <typename Entry>
void IndexInsert(std::vector<Entry>& index, const Entry& entry) {
  index.insert(std::upper_bound(index.begin(), index.end(), entry, Older<Entry>), entry);
}

template <typename Entry>
void IndexErase(std::vector<Entry>& index, const Entry& entry) {
  auto it = std::lower_bound(index.begin(), index.end(), entry, Older<Entry>);
  if (it == index.end() || it->id != entry.id || it->time != entry.time) {
    throw std::logic_error("Cluster: sandbox missing from its recency index");
  }
  index.erase(it);
}

}  // namespace

Cluster::Cluster(ClusterOptions options)
    : options_(options),
      pool_(options.seed, options.bytes_per_mb),
      table_(1),
      functions_(FunctionBenchProfiles().size()) {
  if (options_.num_nodes <= 0) {
    throw std::invalid_argument("Cluster: need at least one node");
  }
  nodes_.resize(static_cast<size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    nodes_[static_cast<size_t>(i)].id = NodeId{i};
    nodes_[static_cast<size_t>(i)].options.memory_limit_mb = options_.node_memory_mb;
  }
}

Sandbox& Cluster::Spawn(const FunctionProfile& profile, NodeId node, SimTime now) {
  if (static_cast<size_t>(profile.id) >= functions_.size()) {
    throw std::out_of_range("Spawn: unknown function");
  }
  auto sb = std::make_unique<Sandbox>();
  sb->id = SandboxId{table_.size()};
  sb->function = profile.id;
  sb->node = node;
  sb->created = now;
  sb->last_used = now;
  sb->generation = 1;
  Sandbox& ref = *table_.emplace_back(std::move(sb));
  nodes_.at(static_cast<size_t>(node.value())).sandboxes.push_back(ref.id);
  Enter(ref, SandboxState::kRunning);
  AddUsage(node, profile.memory_mb);
  return ref;
}

void Cluster::Purge(SandboxId id) {
  Sandbox* sb = Find(id);
  if (sb == nullptr) {
    throw std::out_of_range("Purge: unknown sandbox");
  }
  AddUsage(sb->node, -SandboxFootprintMb(*sb));
  auto& list = nodes_.at(static_cast<size_t>(sb->node.value())).sandboxes;
  list.erase(std::remove(list.begin(), list.end(), id), list.end());
  Leave(*sb);
  table_[id.value()].reset();
}

Sandbox* Cluster::Find(SandboxId id) {
  return id.value() < table_.size() ? table_[id.value()].get() : nullptr;
}

const Sandbox* Cluster::Find(SandboxId id) const {
  return id.value() < table_.size() ? table_[id.value()].get() : nullptr;
}

std::vector<SandboxId> Cluster::SandboxesIn(FunctionId function, SandboxState state) const {
  std::vector<SandboxId> out;
  ForEachSandbox([&](const Sandbox& sb) {
    if (sb.function == function && sb.state == state) {
      out.push_back(sb.id);
    }
  });
  return out;
}

std::vector<SandboxId> Cluster::AllSandboxes() const {
  std::vector<SandboxId> out;
  ForEachSandbox([&out](const Sandbox& sb) { out.push_back(sb.id); });
  return out;
}

void Cluster::Leave(const Sandbox& sb) {
  FunctionState& fs = functions_[static_cast<size_t>(sb.function)];
  if (sb.state == SandboxState::kWarm) {
    IndexErase(fs.warm, RecencyEntry{sb.last_used, sb.id});
  } else if (sb.state == SandboxState::kDedup) {
    IndexErase(fs.dedup, RecencyEntry{sb.dedup_since, sb.id});
  }
  --fs.counts[static_cast<size_t>(sb.state)];
}

void Cluster::Enter(Sandbox& sb, SandboxState state) {
  FunctionState& fs = functions_[static_cast<size_t>(sb.function)];
  sb.state = state;
  ++fs.counts[static_cast<size_t>(state)];
  if (state == SandboxState::kWarm) {
    IndexInsert(fs.warm, RecencyEntry{sb.last_used, sb.id});
  } else if (state == SandboxState::kDedup) {
    IndexInsert(fs.dedup, RecencyEntry{sb.dedup_since, sb.id});
  }
}

void Cluster::MarkRunning(Sandbox& sb, SimTime now) {
  if (sb.state == SandboxState::kDedup) {
    throw std::logic_error("MarkRunning: restore the sandbox first");
  }
  Leave(sb);
  sb.last_used = now;
  Enter(sb, SandboxState::kRunning);
  ++sb.runs;
  ++sb.generation;
}

void Cluster::MarkWarm(Sandbox& sb, SimTime now) {
  Leave(sb);
  sb.idle_since = now;
  sb.last_used = now;
  Enter(sb, SandboxState::kWarm);
}

void Cluster::MarkDedup(Sandbox& sb, SimTime now) {
  if (sb.state != SandboxState::kWarm) {
    throw std::logic_error("MarkDedup: sandbox must be warm");
  }
  if (!sb.checkpoint.has_value()) {
    throw std::logic_error("MarkDedup: checkpoint not installed");
  }
  const double before = WarmFootprintMb(sb);
  Leave(sb);
  sb.dedup_since = now;
  Enter(sb, SandboxState::kDedup);
  sb.dedup_footprint_mb = DedupFootprintMb(sb);
  AddUsage(sb.node, sb.dedup_footprint_mb - before);
}

// Re-enters the warm index with the sandbox's old last_used, so the entry
// lands wherever that time sorts, not necessarily at the back.
void Cluster::MarkRestored(Sandbox& sb, SimTime now, bool release_checkpoint) {
  if (sb.state != SandboxState::kDedup) {
    throw std::logic_error("MarkRestored: sandbox not in dedup state");
  }
  const double before = sb.dedup_footprint_mb;
  Leave(sb);
  Enter(sb, SandboxState::kWarm);
  sb.idle_since = now;
  if (release_checkpoint) {
    sb.checkpoint.reset();
    sb.patches.clear();
  }
  sb.dedup_footprint_mb = 0;
  AddUsage(sb.node, WarmFootprintMb(sb) - before);
}

BaseSnapshot& Cluster::AddBaseSnapshot(const Sandbox& sb, MemoryCheckpoint checkpoint) {
  BaseSnapshot snap;
  snap.sandbox = sb.id;
  snap.function = sb.function;
  snap.node = sb.node;
  snap.memory_mb = ProfileOf(sb).memory_mb;
  snap.checkpoint = std::move(checkpoint);
  auto [it, inserted] = bases_.emplace(sb.id, std::move(snap));
  if (!inserted) {
    throw std::logic_error("AddBaseSnapshot: sandbox is already a base");
  }
  AddUsage(sb.node, it->second.memory_mb);
  return it->second;
}

void Cluster::RemoveBaseSnapshot(SandboxId id) {
  auto it = bases_.find(id);
  if (it == bases_.end()) {
    return;
  }
  AddUsage(it->second.node, -it->second.memory_mb);
  bases_.erase(it);
}

BaseSnapshot* Cluster::FindBaseSnapshot(SandboxId id) {
  auto it = bases_.find(id);
  return it == bases_.end() ? nullptr : &it->second;
}

int Cluster::NumBaseSnapshots(FunctionId function) const {
  int n = 0;
  for (const auto& [id, snap] : bases_) {
    if (snap.function == function) {
      ++n;
    }
  }
  return n;
}

std::vector<uint8_t> Cluster::ReadBasePage(const PageLocation& location) const {
  auto it = bases_.find(location.sandbox);
  if (it == bases_.end()) {
    return {};
  }
  const MemoryCheckpoint& cp = it->second.checkpoint;
  if (location.page_index.value() >= cp.NumPages()) {
    return {};
  }
  if (cp.SlotState(location.page_index.value()) == PageSlotState::kZero) {
    return std::vector<uint8_t>(kPageSize, 0);
  }
  std::span<const uint8_t> data = cp.PageData(location.page_index.value());
  return std::vector<uint8_t>(data.begin(), data.end());
}

const FunctionProfile& Cluster::ProfileOf(const Sandbox& sb) const {
  return FunctionBenchProfiles().at(static_cast<size_t>(sb.function));
}

double Cluster::WarmFootprintMb(const Sandbox& sb) const {
  return ProfileOf(sb).memory_mb;
}

double Cluster::DedupFootprintMb(const Sandbox& sb) const {
  if (!sb.checkpoint.has_value()) {
    return WarmFootprintMb(sb);
  }
  const MemoryCheckpoint& cp = *sb.checkpoint;
  double mb = static_cast<double>(cp.ResidentBytes() + cp.PatchBytes()) /
              static_cast<double>(options_.bytes_per_mb);
  return mb + options_.dedup_metadata_fraction * WarmFootprintMb(sb);
}

double Cluster::SandboxFootprintMb(const Sandbox& sb) const {
  return sb.state == SandboxState::kDedup ? sb.dedup_footprint_mb : WarmFootprintMb(sb);
}

double Cluster::TotalUsedMb() const {
  double total = 0;
  for (const Node& n : nodes_) {
    total += n.used_mb;
  }
  return total;
}

double Cluster::TotalLimitMb() const {
  double total = 0;
  for (const Node& n : nodes_) {
    total += n.options.memory_limit_mb;
  }
  return total;
}

double Cluster::RecomputeNodeUsedMb(NodeId id) const {
  double total = 0;
  ForEachSandbox([&](const Sandbox& sb) {
    if (sb.node == id) {
      total += SandboxFootprintMb(sb);
    }
  });
  for (const auto& [sid, snap] : bases_) {
    if (snap.node == id) {
      total += snap.memory_mb;
    }
  }
  return total;
}

MemoryImage Cluster::BuildImage(const Sandbox& sb) const {
  SandboxImageOptions opts;
  opts.aslr = options_.aslr;
  opts.instance_seed = HashCombine(sb.id.value(), sb.generation);
  return BuildSandboxImage(ProfileOf(sb), pool_, opts);
}

NodeId Cluster::LeastUsedNode() const {
  NodeId best{0};
  double best_used = nodes_[0].used_mb;
  for (const Node& n : nodes_) {
    if (n.used_mb < best_used) {
      best_used = n.used_mb;
      best = n.id;
    }
  }
  return best;
}

void Cluster::AddUsage(NodeId node, double mb) {
  nodes_.at(static_cast<size_t>(node.value())).used_mb += mb;
  if (nodes_.at(static_cast<size_t>(node.value())).used_mb < 1e-9) {
    nodes_.at(static_cast<size_t>(node.value())).used_mb = 0;  // clamp float drift
  }
}

}  // namespace medes
