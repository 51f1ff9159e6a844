// Simulated network: latency, jitter, loss, duplication, bandwidth queueing,
// partitions and node crashes.
//
// Models the two environments of the paper's evaluation (§6.1):
//   - local cluster: gigabit Ethernet, sub-millisecond RTT;
//   - wide area: 50±10 ms one-way delay, 500 Mbps cap.
// Bandwidth is modeled per directed link as a serialization queue: a message
// of s bytes occupies its sender's link for s/bandwidth seconds, which is
// what makes large full-copy Paxos values expensive and coded shares cheap.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "net/transport.h"
#include "obs/transport_metrics.h"
#include "sim/sim_world.h"

namespace rspaxos::sim {

/// Per-directed-link characteristics.
struct LinkParams {
  DurationMicros latency_us = 100;  // one-way propagation delay
  DurationMicros jitter_us = 20;    // uniform +/- jitter
  double drop_prob = 0.0;           // independent per-message loss
  double dup_prob = 0.0;            // independent duplication
  double bandwidth_bps = 1e9;       // serialization rate (bits/second)

  /// The paper's local-cluster environment (§6.1): 1 Gbps LAN.
  static LinkParams lan() { return LinkParams{100, 20, 0.0, 0.0, 1e9}; }
  /// The paper's emulated wide area (§6.1): 50±10 ms one-way, 500 Mbps.
  static LinkParams wan() { return LinkParams{50'000, 10'000, 0.0, 0.0, 5e8}; }
};

class SimNetwork;

/// NodeContext implementation bound to one simulated node. Timers and message
/// deliveries are tagged with the node's incarnation so a crash atomically
/// discards everything in flight for the old incarnation.
class SimNode final : public NodeContext {
 public:
  NodeId id() const override { return id_; }
  TimeMicros now() const override;
  void send(NodeId to, MsgType type, SharedBytes payload) override;
  TimerId set_timer(DurationMicros delay, TimerFn fn) override;
  bool cancel_timer(TimerId id) override;
  uint64_t bytes_sent() const override { return bytes_sent_; }

  void set_handler(MessageHandler* handler) override { handler_ = handler; }
  bool alive() const { return alive_; }
  uint64_t incarnation() const { return incarnation_; }
  uint64_t messages_sent() const { return messages_sent_; }

 private:
  friend class SimNetwork;
  SimNode(SimNetwork* net, NodeId id) : net_(net), id_(id) { metrics_.init(id); }

  SimNetwork* net_;
  NodeId id_;
  MessageHandler* handler_ = nullptr;
  bool alive_ = true;
  uint64_t incarnation_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t messages_sent_ = 0;
  obs::TransportMetrics metrics_;
};

/// The network fabric: owns SimNodes and routes messages between them.
class SimNetwork {
 public:
  explicit SimNetwork(SimWorld* world) : world_(world) {}

  /// Creates (or returns) the context for a node id.
  SimNode* node(NodeId id);

  /// Sets parameters for every current and future link.
  void set_default_link(LinkParams p) { default_link_ = p; }
  /// Overrides one directed link.
  void set_link(NodeId from, NodeId to, LinkParams p) { links_[{from, to}] = p; }

  /// Crash semantics (§4.5): a crashed node loses its volatile state; its
  /// in-flight messages and timers die with it. restart() begins a new
  /// incarnation — the caller replays the WAL to rebuild state.
  void crash(NodeId id);
  void restart(NodeId id);

  /// Symmetric partition between two sets of nodes (messages dropped both
  /// ways). heal_partitions() removes all of them.
  void partition(const std::set<NodeId>& a, const std::set<NodeId>& b);
  void heal_partitions();

  /// Total payload bytes accepted for transmission (network-cost metric).
  uint64_t total_bytes_sent() const;

  /// Test hook, called with each message as it arrives at a live receiver,
  /// before its handler; returning false drops it. The payload is the
  /// sender's buffer itself (queued deliveries, duplicates included, hold a
  /// reference to it, never a copy), so a test can compare identities.
  using DeliveryTap =
      std::function<bool(NodeId from, NodeId to, MsgType type, const SharedBytes& payload)>;
  void set_delivery_tap(DeliveryTap tap) { tap_ = std::move(tap); }

 private:
  friend class SimNode;

  void do_send(SimNode* from, NodeId to, MsgType type, SharedBytes payload);
  bool partitioned(NodeId a, NodeId b) const;
  const LinkParams& link(NodeId from, NodeId to) const;

  SimWorld* world_;
  LinkParams default_link_ = LinkParams::lan();
  std::map<std::pair<NodeId, NodeId>, LinkParams> links_;
  std::map<std::pair<NodeId, NodeId>, TimeMicros> link_free_at_;
  std::unordered_map<NodeId, std::unique_ptr<SimNode>> nodes_;
  std::vector<std::pair<std::set<NodeId>, std::set<NodeId>>> partitions_;
  DeliveryTap tap_;
};

}  // namespace rspaxos::sim
