// Message-passing abstraction shared by simulated and real execution.
//
// Protocol code (consensus, KV) is written against NodeContext only, so the
// exact same replica code runs over:
//   - sim::SimWorld        — deterministic discrete-event simulation,
//   - net::TcpTransport    — real sockets over localhost/LAN.
//
// The model matches the paper's partial-asynchronous assumption (§3.1):
// messages may be delayed, duplicated or lost; repeated sends between two
// correct processes eventually go through. Handlers for one node always run
// single-threaded, so protocol state needs no locks.
#pragma once

#include <cstdint>
#include <functional>

#include "util/bytes.h"
#include "util/clock.h"

namespace rspaxos {

/// Identifies a process (proposer/acceptor/learner host) in a group.
using NodeId = uint32_t;

constexpr NodeId kNoNode = 0xffffffffu;

/// Wire message discriminator. One flat space across all protocol layers so
/// a transport can dispatch without knowing layer boundaries.
enum class MsgType : uint16_t {
  // Consensus (src/consensus)
  kPrepare = 1,
  kPromise = 2,
  kAccept = 3,
  kAccepted = 4,
  kCommit = 5,
  kCatchupReq = 6,
  kCatchupRep = 7,
  kFetchShareReq = 8,
  kFetchShareRep = 9,
  kHeartbeat = 10,
  kSnapshotOffer = 11,
  kSnapshotFetchReq = 12,
  kSnapshotFetchRep = 13,
  kLeaderTransfer = 14,  // ask the recipient to campaign (balancer leader move)

  // KV client protocol (src/kv)
  kClientRequest = 100,
  kClientReply = 101,

  // Shard migration (src/kv, elastic resharding — DESIGN.md §14)
  kMigrateData = 102,  // source leader -> dest leader: chunk of shard rows
  kMigrateAck = 103,   // dest -> source: chunk committed (or redirect hint)
  kMigrateCmd = 104,   // balancer -> source group: start a migration

  // Tests / diagnostics
  kTestPing = 1000,
  kTestPong = 1001,
};

/// Receives messages addressed to one node. Implemented by Replica / KvServer
/// / test fixtures.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void on_message(NodeId from, MsgType type, BytesView payload) = 0;
};

/// Everything a protocol participant may do to the outside world: learn the
/// time, send messages, and set timers. One NodeContext per node per
/// transport; all callbacks fire on the node's (real or simulated) thread.
class NodeContext : public Clock {
 public:
  using TimerId = uint64_t;
  using TimerFn = std::function<void()>;

  ~NodeContext() override = default;

  virtual NodeId id() const = 0;

  /// Installs (nullptr: detaches) the receiver for this node's inbound
  /// messages. On threaded transports, call from the node's execution thread
  /// — peers may deliver the instant the handler is visible.
  virtual void set_handler(MessageHandler* handler) = 0;

  /// Fire-and-forget datagram-style send. Delivery is not guaranteed;
  /// callers own retransmission (which Paxos does by design). The transport
  /// keeps a reference to the payload until the message leaves (or is
  /// delivered, in the sim), never a copy: a caller that sends one buffer
  /// to several peers, or resends it, shares one allocation. A Bytes
  /// argument (`msg.encode()`) converts implicitly, adopting the vector.
  virtual void send(NodeId to, MsgType type, SharedBytes payload) = 0;

  /// One-shot timer. Returns an id; cancel() before it fires to abort.
  virtual TimerId set_timer(DurationMicros delay, TimerFn fn) = 0;
  virtual bool cancel_timer(TimerId id) = 0;

  /// Cumulative bytes handed to send() — the paper's network-cost metric.
  virtual uint64_t bytes_sent() const = 0;

  /// True when the caller is on this node's execution thread (the thread all
  /// handlers and timers run on). Loop-confined client-side state (KvClient,
  /// OpenLoopGen) asserts on this instead of silently racing when a caller
  /// mixes contexts from different reactors. Transports without a dedicated
  /// thread (the simulator's single-threaded world) report true.
  virtual bool on_context_thread() const { return true; }
};

}  // namespace rspaxos
