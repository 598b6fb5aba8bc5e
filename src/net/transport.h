// Unified cluster transport: every modelled cross-node byte in medes flows
// through this layer.
//
// Medes' architecture is an explicit control-plane/data-plane split: dedup
// agents make batched fingerprint lookups against the controller's registry,
// while restores read base pages over one-sided RDMA with no controller
// involvement (paper Sections 4.2-4.3). Before this layer existed, each of
// those wires carried its own private latency/bandwidth model; now they all
// charge a single Transport over a cluster Topology:
//
//   - Topology: per-link latency/bandwidth (a remote link between distinct
//     nodes and a node-local fast path).
//   - Typed messages: each send is tagged with a MessageType so per-type
//     counters, byte totals, and latency histograms accumulate separately.
//   - Batched request accounting: a single message may carry many logical
//     requests (e.g. one registry lookup message carrying a batch of keys);
//     `requests` tracks the logical count alongside the message count.
//   - Fault injection: an installable FaultPolicy can add delay, drop
//     individual messages, or partition nodes/links. Callers observe drops
//     via SendResult::delivered and degrade gracefully.
//
// Determinism contract: MessageCost is a pure function of (src, dst, bytes)
// and Send's result additionally depends only on the installed policy's
// answer for (type, src, dst, bytes) — never on wall-clock time, thread
// identity, or call interleaving. Stats are order-independent accumulations
// (sums, maxima, histogram bucket counts), so concurrent senders produce
// bit-identical stats regardless of schedule. A FaultPolicy must likewise be
// a pure function of the message and its own configured state for the
// pipeline's bit-identical-across-thread-counts guarantee to hold.
#ifndef MEDES_NET_TRANSPORT_H_
#define MEDES_NET_TRANSPORT_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/time.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace medes {

// ---- Message taxonomy ----------------------------------------------------

enum class MessageType : int {
  kRegistryLookup = 0,   // agent -> registry: batched fingerprint lookups
  kRegistryInsert = 1,   // agent -> registry: base-sandbox fingerprint insert
  kBaseRead = 2,         // one-sided RDMA base-page read (data plane)
  kControlDecision = 3,  // controller -> node: idle-policy decision
  kBaseReadBatch = 4,    // coalesced per-owner-node base-page reads (restore prefetch)
};
inline constexpr size_t kNumMessageTypes = 5;

const char* ToString(MessageType type);

// Span name a traced message of `type` records under (e.g. kRegistryLookup
// -> "net/registry_lookup"). Stable string literals so span ids derived from
// them (obs/trace_context.h) are reproducible.
const char* MessageSpanName(MessageType type);

// The context of the span Transport::Send records for a traced message:
// derived, not carried, so the receiving side can re-derive the identical
// context (same pure function) and parent its own server-side spans to it.
inline obs::TraceContext MessageSpanContext(MessageType type, const obs::MessageTrace& trace) {
  return trace.ctx.Child(MessageSpanName(type), trace.ordinal);
}

// ---- Links and topology --------------------------------------------------

struct LinkModel {
  SimDuration latency{3};        // us, per-message setup cost
  double bandwidth_gbps = 10.0;  // line rate; <= 0 means infinite bandwidth

  bool operator==(const LinkModel&) const = default;
};

// Modelled cost of moving `bytes` over `link`:
//     latency + bytes * 8 / (bandwidth_gbps * 1000) us
// with the transfer term truncated to whole microseconds (SimDuration
// granularity). Sub-microsecond transfers therefore cost `latency` alone,
// and a non-positive bandwidth disables the transfer term entirely.
[[nodiscard]] SimDuration LinkCost(Bytes bytes, const LinkModel& link);

// Cluster links: one remote link between distinct nodes and a node-local
// fast path (src == dst). Plain data, immutable once handed to a Transport.
struct Topology {
  LinkModel remote;                         // inter-node link
  LinkModel local{.latency = SimDuration{0}, .bandwidth_gbps = 80.0};  // same-node fast path

  // A directed (src, dst) pair as one key (StaticFaultPolicy's cut links).
  static uint64_t PairKey(NodeId src, NodeId dst) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(src.value())) << 32) |
           static_cast<uint64_t>(static_cast<uint32_t>(dst.value()));
  }
  // The link a (src -> dst) message travels.
  const LinkModel& LinkFor(NodeId src, NodeId dst) const { return src == dst ? local : remote; }
};

// The platform-level network configuration: the two link classes a Topology
// is built from.
struct NetworkModel {
  LinkModel remote{.latency = SimDuration{3}, .bandwidth_gbps = 10.0};
  LinkModel local{.latency = SimDuration{0}, .bandwidth_gbps = 80.0};
};

// ---- Fault injection -----------------------------------------------------

struct Fault {
  bool drop = false;          // message is lost; SendResult.delivered = false
  SimDuration added_delay{};  // extra latency charged on top of the link cost
};

// Installable fault seam. Implementations MUST be pure functions of the
// message tuple and their own configured state (no RNG, no clocks, no
// per-call mutation) or the determinism contract breaks.
class FaultPolicy {
 public:
  virtual ~FaultPolicy() = default;

  // The fault (if any) applied to one message. Called outside any transport
  // lock; implementations synchronise their own state.
  virtual Fault OnMessage(MessageType type, NodeId src, NodeId dst, Bytes bytes) = 0;

  // True when `node` is partitioned from the cluster entirely. Transport
  // drops every message to or from a partitioned node without consulting
  // OnMessage.
  virtual bool NodePartitioned(NodeId /*node*/) const { return false; }
};

// A concrete FaultPolicy driven by explicit configuration calls: partition
// whole nodes, cut individual (bidirectional) links, or delay all messages
// of one type. Deterministic by construction.
class StaticFaultPolicy : public FaultPolicy {
 public:
  Fault OnMessage(MessageType type, NodeId src, NodeId dst, Bytes bytes) override
      EXCLUDES(mu_);
  bool NodePartitioned(NodeId node) const override EXCLUDES(mu_);

  void PartitionNode(NodeId node) EXCLUDES(mu_);
  void HealNode(NodeId node) EXCLUDES(mu_);
  void PartitionLink(NodeId a, NodeId b) EXCLUDES(mu_);
  void HealLink(NodeId a, NodeId b) EXCLUDES(mu_);
  void SetTypeDelay(MessageType type, SimDuration delay) EXCLUDES(mu_);

 private:
  mutable SharedMutex mu_;
  std::unordered_set<NodeId> partitioned_nodes_ GUARDED_BY(mu_);
  std::unordered_set<uint64_t> cut_links_ GUARDED_BY(mu_);  // Topology::PairKey, both dirs
  std::array<SimDuration, kNumMessageTypes> type_delay_ GUARDED_BY(mu_) = {};
};

// ---- Stats ---------------------------------------------------------------

struct MessageStats {
  uint64_t messages = 0;       // sends (delivered or dropped)
  uint64_t requests = 0;       // logical requests batched into those messages
  uint64_t bytes = 0;          // payload bytes attempted
  uint64_t dropped = 0;        // sends lost to the fault policy
  SimDuration max_latency{};    // worst delivered message
  // Cost distribution of *delivered* messages (us); `latency.sum` is their
  // summed cost.
  obs::HistogramValue latency;

  double MeanLatency() const {
    const uint64_t delivered = messages - dropped;
    return delivered == 0 ? 0.0
                          : static_cast<double>(latency.sum) / static_cast<double>(delivered);
  }
  bool operator==(const MessageStats&) const = default;
};

struct TransportStats {
  std::array<MessageStats, kNumMessageTypes> by_type;

  const MessageStats& For(MessageType type) const {
    return by_type.at(static_cast<size_t>(type));
  }
  uint64_t TotalMessages() const;
  uint64_t TotalBytes() const;
  uint64_t TotalDropped() const;
  SimDuration TotalLatency() const;

  bool operator==(const TransportStats&) const = default;
};

// ---- Transport -----------------------------------------------------------

class Transport {
 public:
  explicit Transport(Topology topology = {});

  const Topology& topology() const { return topology_; }

  // Pure timing model: the cost of a (src -> dst) message of `bytes`,
  // ignoring faults and recording nothing.
  [[nodiscard]] SimDuration MessageCost(NodeId src, NodeId dst, Bytes bytes) const {
    return LinkCost(bytes, topology_.LinkFor(src, dst));
  }

  struct SendResult {
    bool delivered = true;
    // Modelled cost of the attempt (link cost + any injected delay). The
    // sender pays this whether or not the message was delivered; callers
    // that model fire-and-forget drops may ignore it when !delivered.
    SimDuration cost{};
  };

  // Sends one message carrying `requests` logical requests. Consults the
  // fault policy (node partitions first, then OnMessage), accumulates
  // per-type stats, and returns the outcome. Thread-safe; see the
  // determinism contract in the file comment.
  // The result carries the modelled cost the *caller* must charge (and the
  // delivered flag it must branch on); dropping it silently desyncs the
  // timing model, hence [[nodiscard]].
  // When `trace` carries a sampled context, the send records a
  // MessageSpanName(type) span at trace.at with the modelled cost as its
  // duration, parented to trace.ctx (see obs/trace_context.h).
  [[nodiscard]] SendResult Send(MessageType type, NodeId src, NodeId dst, Bytes bytes,
                                uint64_t requests = 1, const obs::MessageTrace& trace = {})
      EXCLUDES(policy_mu_);

  // Installs (or clears, with nullptr) the fault seam. The policy is shared:
  // tests keep their handle to flip partitions mid-run.
  void InstallFaultPolicy(std::shared_ptr<FaultPolicy> policy) EXCLUDES(policy_mu_);

  // The per-type counters. Read at a quiescent point for exact totals.
  TransportStats stats() const;
  // Zeroes this transport's counters; the process-wide series keep theirs.
  void ResetStats();

 private:
  std::shared_ptr<FaultPolicy> CurrentPolicy() const EXCLUDES(policy_mu_);

  const Topology topology_;

  // The policy slot is copied out under a brief reader lock and released
  // before calling into the policy (which may take its own kTransport-ranked
  // lock; two locks of one rank are never held together).
  mutable SharedMutex policy_mu_;
  std::shared_ptr<FaultPolicy> policy_ GUARDED_BY(policy_mu_);

  // One message type's counters, each bound to its type-labelled series.
  struct TypeCounters {
    explicit TypeCounters(MessageType type);
    obs::StatCounter messages;
    obs::StatCounter bytes;
    obs::StatCounter dropped;
    obs::StatHistogram latency;
    std::atomic<uint64_t> requests{0};
    std::atomic<int64_t> max_latency{0};
  };
  std::array<std::unique_ptr<TypeCounters>, kNumMessageTypes> counters_;
};

}  // namespace medes

#endif  // MEDES_NET_TRANSPORT_H_
