#include "net/transport.h"

#include <utility>

#include "obs/obs.h"
#include "obs/trace.h"

namespace medes {

const char* ToString(MessageType type) {
  switch (type) {
    case MessageType::kRegistryLookup:
      return "registry_lookup";
    case MessageType::kRegistryInsert:
      return "registry_insert";
    case MessageType::kBaseRead:
      return "base_read";
    case MessageType::kControlDecision:
      return "control_decision";
    case MessageType::kBaseReadBatch:
      return "base_read_batch";
  }
  return "?";
}

const char* MessageSpanName(MessageType type) {
  switch (type) {
    case MessageType::kRegistryLookup:
      return "net/registry_lookup";
    case MessageType::kRegistryInsert:
      return "net/registry_insert";
    case MessageType::kBaseRead:
      return "net/base_read";
    case MessageType::kControlDecision:
      return "net/control_decision";
    case MessageType::kBaseReadBatch:
      return "net/base_read_batch";
  }
  return "net/?";
}

SimDuration LinkCost(Bytes bytes, const LinkModel& link) {
  if (link.bandwidth_gbps <= 0) {
    return link.latency;
  }
  // bytes / (gbps Gbit/s) in microseconds: bytes * 8 / (gbps * 1000) us.
  const SimDuration transfer{static_cast<int64_t>(static_cast<double>(bytes.value()) * 8.0 /
                                                  (link.bandwidth_gbps * 1000.0))};
  return link.latency + transfer;
}

// ---- StaticFaultPolicy ---------------------------------------------------

Fault StaticFaultPolicy::OnMessage(MessageType type, NodeId src, NodeId dst, Bytes bytes) {
  (void)bytes;
  ReaderLock lock(mu_);
  Fault fault;
  if (cut_links_.contains(Topology::PairKey(src, dst))) {
    fault.drop = true;
    return fault;
  }
  fault.added_delay = type_delay_[static_cast<size_t>(type)];
  return fault;
}

bool StaticFaultPolicy::NodePartitioned(NodeId node) const {
  ReaderLock lock(mu_);
  return partitioned_nodes_.contains(node);
}

void StaticFaultPolicy::PartitionNode(NodeId node) {
  WriterLock lock(mu_);
  partitioned_nodes_.insert(node);
}

void StaticFaultPolicy::HealNode(NodeId node) {
  WriterLock lock(mu_);
  partitioned_nodes_.erase(node);
}

void StaticFaultPolicy::PartitionLink(NodeId a, NodeId b) {
  WriterLock lock(mu_);
  cut_links_.insert(Topology::PairKey(a, b));
  cut_links_.insert(Topology::PairKey(b, a));
}

void StaticFaultPolicy::HealLink(NodeId a, NodeId b) {
  WriterLock lock(mu_);
  cut_links_.erase(Topology::PairKey(a, b));
  cut_links_.erase(Topology::PairKey(b, a));
}

void StaticFaultPolicy::SetTypeDelay(MessageType type, SimDuration delay) {
  WriterLock lock(mu_);
  type_delay_[static_cast<size_t>(type)] = delay;
}

// ---- TransportStats ------------------------------------------------------

uint64_t TransportStats::TotalMessages() const {
  uint64_t total = 0;
  for (const MessageStats& ms : by_type) {
    total += ms.messages;
  }
  return total;
}

uint64_t TransportStats::TotalBytes() const {
  uint64_t total = 0;
  for (const MessageStats& ms : by_type) {
    total += ms.bytes;
  }
  return total;
}

uint64_t TransportStats::TotalDropped() const {
  uint64_t total = 0;
  for (const MessageStats& ms : by_type) {
    total += ms.dropped;
  }
  return total;
}

SimDuration TransportStats::TotalLatency() const {
  SimDuration total{};
  for (const MessageStats& ms : by_type) {
    total += SimDuration{ms.latency.sum};
  }
  return total;
}

// ---- Transport -----------------------------------------------------------

Transport::TypeCounters::TypeCounters(MessageType type)
    : messages("medes_transport_messages_total", "type", ToString(type)),
      bytes("medes_transport_bytes_total", "type", ToString(type)),
      dropped("medes_transport_dropped_total", "type", ToString(type)),
      latency("medes_transport_latency_us", "type", ToString(type)) {}

Transport::Transport(Topology topology) : topology_(std::move(topology)) {
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    counters_[i] = std::make_unique<TypeCounters>(static_cast<MessageType>(i));
  }
}

std::shared_ptr<FaultPolicy> Transport::CurrentPolicy() const {
  ReaderLock lock(policy_mu_);
  return policy_;
}

void Transport::InstallFaultPolicy(std::shared_ptr<FaultPolicy> policy) {
  WriterLock lock(policy_mu_);
  policy_ = std::move(policy);
}

Transport::SendResult Transport::Send(MessageType type, NodeId src, NodeId dst, Bytes bytes,
                                      uint64_t requests, const obs::MessageTrace& trace) {
  Fault fault;
  if (std::shared_ptr<FaultPolicy> policy = CurrentPolicy()) {
    if (policy->NodePartitioned(src) || policy->NodePartitioned(dst)) {
      fault.drop = true;
    } else {
      fault = policy->OnMessage(type, src, dst, bytes);
    }
  }
  SendResult result;
  result.delivered = !fault.drop;
  result.cost = MessageCost(src, dst, bytes) + fault.added_delay;
  TypeCounters& c = *counters_[static_cast<size_t>(type)];
  c.messages.Add();
  c.requests.fetch_add(requests, std::memory_order_relaxed);
  c.bytes.Add(bytes.value());
  if (result.delivered) {
    c.latency.Record(result.cost.value());
    int64_t max = c.max_latency.load(std::memory_order_relaxed);
    while (result.cost.value() > max &&
           !c.max_latency.compare_exchange_weak(max, result.cost.value(),
                                                std::memory_order_relaxed)) {
      // A failed exchange reloaded `max`; retry while this cost still exceeds it.
    }
  } else {
    c.dropped.Add();
  }
  if (obs::TraceEnabled() && trace.ctx.sampled()) {
    const obs::TraceContext msg_ctx = MessageSpanContext(type, trace);
    obs::Span span;
    span.name = MessageSpanName(type);
    span.category = "net";
    span.ts = trace.at;
    span.dur = result.cost;
    span.lane = static_cast<int32_t>(dst.value());
    span.trace_id = msg_ctx.trace_id;
    span.span_id = msg_ctx.span_id;
    span.parent_span_id = msg_ctx.parent_span_id;
    span.num_args = 3;
    span.args[0] = obs::SpanArg{"bytes", static_cast<int64_t>(bytes.value())};
    span.args[1] = obs::SpanArg{"requests", static_cast<int64_t>(requests)};
    span.args[2] = obs::SpanArg{"delivered", result.delivered ? 1 : 0};
    obs::Tracer::Default().Record(span);
  }
  return result;
}

TransportStats Transport::stats() const {
  TransportStats out;
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    const TypeCounters& c = *counters_[i];
    MessageStats& ms = out.by_type[i];
    ms.messages = c.messages.Value();
    ms.requests = c.requests.load(std::memory_order_relaxed);
    ms.bytes = c.bytes.Value();
    ms.dropped = c.dropped.Value();
    ms.max_latency = SimDuration{c.max_latency.load(std::memory_order_relaxed)};
    ms.latency = c.latency.Value();
  }
  return out;
}

void Transport::ResetStats() {
  for (const auto& c : counters_) {
    c->messages.Reset();
    c->requests.store(0, std::memory_order_relaxed);
    c->bytes.Reset();
    c->dropped.Reset();
    c->max_latency.store(0, std::memory_order_relaxed);
    c->latency.Reset();
  }
}

}  // namespace medes
