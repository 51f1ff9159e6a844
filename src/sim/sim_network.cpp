#include "sim/sim_network.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace rspaxos::sim {

TimeMicros SimNode::now() const { return net_->world_->now(); }

void SimNode::send(NodeId to, MsgType type, SharedBytes payload) {
  if (!alive_) return;  // a crashed node cannot send
  bytes_sent_ += payload.size();
  messages_sent_++;
  metrics_.on_send(type, payload.size());
  net_->do_send(this, to, type, std::move(payload));
}

NodeContext::TimerId SimNode::set_timer(DurationMicros delay, TimerFn fn) {
  if (!alive_) return 0;
  uint64_t inc = incarnation_;
  return net_->world_->schedule(delay, [this, inc, fn = std::move(fn)] {
    if (alive_ && incarnation_ == inc) fn();
  });
}

bool SimNode::cancel_timer(TimerId id) { return net_->world_->cancel(id); }

SimNode* SimNetwork::node(NodeId id) {
  auto it = nodes_.find(id);
  if (it == nodes_.end()) {
    it = nodes_.emplace(id, std::unique_ptr<SimNode>(new SimNode(this, id))).first;
  }
  return it->second.get();
}

void SimNetwork::crash(NodeId id) {
  SimNode* n = node(id);
  n->alive_ = false;
  RSP_INFO << "sim: node " << id << " crashed at " << world_->now();
}

void SimNetwork::restart(NodeId id) {
  SimNode* n = node(id);
  n->alive_ = true;
  n->incarnation_++;
  RSP_INFO << "sim: node " << id << " restarted at " << world_->now()
           << " (incarnation " << n->incarnation_ << ")";
}

void SimNetwork::partition(const std::set<NodeId>& a, const std::set<NodeId>& b) {
  partitions_.emplace_back(a, b);
}

void SimNetwork::heal_partitions() { partitions_.clear(); }

bool SimNetwork::partitioned(NodeId a, NodeId b) const {
  for (const auto& [sa, sb] : partitions_) {
    if ((sa.count(a) && sb.count(b)) || (sa.count(b) && sb.count(a))) return true;
  }
  return false;
}

const LinkParams& SimNetwork::link(NodeId from, NodeId to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? default_link_ : it->second;
}

uint64_t SimNetwork::total_bytes_sent() const {
  uint64_t total = 0;
  for (const auto& [id, n] : nodes_) total += n->bytes_sent_;
  return total;
}

void SimNetwork::do_send(SimNode* from, NodeId to, MsgType type, SharedBytes payload) {
  if (send_tap_) send_tap_(from->id_, to, type, payload.size());
  if (partitioned(from->id_, to)) return;
  const LinkParams& lp = link(from->id_, to);
  Rng& rng = world_->rng();
  if (lp.drop_prob > 0 && rng.chance(lp.drop_prob)) return;

  // Serialization: the link is a FIFO pipe; a message occupies it for
  // size/bandwidth. Propagation adds latency +/- jitter after that.
  auto key = std::make_pair(from->id_, to);
  TimeMicros& free_at = link_free_at_[key];
  TimeMicros start = std::max(world_->now(), free_at);
  DurationMicros ser_us = lp.bandwidth_bps > 0
      ? static_cast<DurationMicros>(static_cast<double>(payload.size()) * 8.0 * 1e6 /
                                    lp.bandwidth_bps)
      : 0;
  free_at = start + ser_us;
  DurationMicros jitter = lp.jitter_us > 0 ? rng.uniform(-lp.jitter_us, lp.jitter_us) : 0;
  TimeMicros deliver_at = free_at + std::max<DurationMicros>(0, lp.latency_us + jitter);

  int copies = (lp.dup_prob > 0 && rng.chance(lp.dup_prob)) ? 2 : 1;
  for (int c = 0; c < copies; ++c) {
    // Deliveries capture the *current* incarnation of the receiver at send
    // time is wrong — messages survive a receiver crash only to be dropped
    // on arrival if it is down; a restarted node (new incarnation) does
    // receive late messages, as over a real network. Every copy references
    // the sender's buffer.
    // The sender's ambient span is captured at send time and reinstated at
    // delivery — the sim-world equivalent of the frame-header trace fields.
    world_->schedule(deliver_at - world_->now() + c, [this, to, type, msg = payload,
                                                      from_id = from->id_,
                                                      span = obs::current_span()] {
      SimNode* dst = node(to);
      if (!dst->alive_ || dst->handler_ == nullptr) return;
      if (tap_ && !tap_(from_id, to, type, msg)) return;
      obs::SpanScope scope(span);
      dst->handler_->on_message(from_id, type, msg);
    });
  }
}

}  // namespace rspaxos::sim
