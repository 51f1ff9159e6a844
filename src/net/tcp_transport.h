// TCP transport: non-blocking readiness-driven sockets, one listener and one
// thread per *host*, length-prefixed CRC-checked frames.
//
// Mirrors the paper's implementation substrate (§5: "an asynchronous RPC
// module for message passing between processes. It uses TCP"). The host's
// EventLoop is its reactor: the loop's epoll instance carries the listener,
// every inbound connection and every outbound peer socket, and the same
// thread runs the protocol's handlers and timers. Protocol code therefore
// sees the identical single-threaded contract as under the simulator, and a
// frame goes from socket to handler without a thread hop.
//
// Since the multi-group node host change, one physical endpoint (socket +
// EventLoop) can serve many logical NodeContexts: a HostMap (net/routing.h)
// collapses composite endpoint NodeIds onto hosts, every frame carries its
// destination endpoint in the header, and the receiving host demultiplexes
// inbound frames to the right TcpNode. The default HostMap is the identity,
// preserving the historical one-node-per-socket behavior for existing
// assemblies. A machine is one TcpHost: one listen socket and one loop
// thread for every group it hosts (DESIGN.md §12).
//
// send() never touches a socket: it appends the frame to a bounded per-peer
// outbound queue (drop-oldest backpressure, preserving the datagram
// semantics of the NodeContext contract). A send on the loop thread marks
// the peer for the flush at the end of the loop cycle, so a handler's replies
// leave together with no wakeup; a send from another thread posts that flush
// to the loop. The flush drains queues with writev — header + payload and
// multiple queued frames coalesce into a single vectored syscall. Inbound,
// each connection keeps one decode buffer and complete frames are handed to
// handlers in place. Outbound connects are asynchronous (EINPROGRESS) with
// exponential-backoff reconnect timers, so an unreachable peer never stalls
// the caller. All endpoints sharing a host also share its per-peer-host
// queues and connections.
//
// Frame format: see net/frame.h (v3: destination endpoint and trace context).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/routing.h"
#include "net/transport.h"
#include "obs/transport_metrics.h"
#include "util/event_loop.h"
#include "util/status.h"

namespace rspaxos::net {

/// Host:port address of a peer host.
struct PeerAddr {
  std::string host;
  uint16_t port;
};

class TcpTransport;
class TcpHost;

/// NodeContext bound to a logical endpoint on a TcpHost. Thin: the socket,
/// loop and outbound queues all live on the host and are shared with every
/// other endpoint the host serves.
class TcpNode final : public NodeContext {
 public:
  ~TcpNode() override = default;

  NodeId id() const override { return id_; }
  TimeMicros now() const override;
  void send(NodeId to, MsgType type, SharedBytes payload) override;
  TimerId set_timer(DurationMicros delay, TimerFn fn) override;
  bool cancel_timer(TimerId id) override;
  uint64_t bytes_sent() const override { return bytes_sent_.load(); }
  bool on_context_thread() const override;
  /// The owning host's outbound connection to `peer`'s host is established.
  bool connected_to(NodeId peer) const override;

  void set_handler(MessageHandler* handler) override { handler_.store(handler); }
  /// The owning host's loop — shared by all endpoints on the host.
  EventLoop& loop();

  /// Frames dropped by the owning host's send path (queue overflow /
  /// oversize / unknown peer) since construction. Test/diagnostic helper.
  uint64_t send_drops() const;

  /// Depth (frames) of the owning host's most backlogged per-peer outbound
  /// queue. Any thread — the health watchdog samples this each probe.
  uint64_t max_peer_queue_depth() const;

  /// Stops the owning host: loop thread joined, all sockets closed. Every
  /// endpoint sharing the host goes quiet with it; queued-but-unsent frames
  /// are dropped (datagram semantics).
  void shutdown();

  // Per-peer-host outbound queue bounds. Oldest frames are dropped first on
  // overflow, which never reorders the frames that remain.
  static constexpr size_t kMaxQueueFrames = 16384;
  static constexpr size_t kMaxQueueBytes = 64u << 20;

 private:
  friend class TcpHost;
  friend class TcpTransport;

  TcpNode(TcpHost* host, NodeId id);

  TcpHost* host_;
  NodeId id_;
  std::atomic<MessageHandler*> handler_{nullptr};
  std::atomic<uint64_t> bytes_sent_{0};
  obs::TransportMetrics metrics_;
};

/// One physical endpoint: listener socket, EventLoop (reactor + protocol
/// thread) and per-peer-host outbound queues, serving every TcpNode mapped
/// onto it.
class TcpHost {
 public:
  ~TcpHost();

  HostId id() const { return id_; }
  EventLoop& loop() { return loop_; }

  /// Stops the loop thread, closes all sockets. Called by the destructor;
  /// queued-but-unsent frames are dropped (datagram semantics). Never from
  /// the loop thread.
  void shutdown();

 private:
  friend class TcpNode;
  friend class TcpTransport;

  /// One queued outbound frame: fixed header + a reference to the sender's
  /// payload. The flush points iovecs straight at these, so the payload is
  /// never copied in user space: an accept frame goes from the encoder's
  /// buffer to the socket.
  struct OutFrame {
    std::array<uint8_t, kFrameHeaderBytes> hdr;
    SharedBytes payload;
    size_t wire_size() const { return kFrameHeaderBytes + payload.size(); }
  };

  enum class PeerState : uint8_t { kIdle, kConnecting, kConnected };

  /// Outbound state toward one peer host. `mu`/`q`/`q_bytes` are the only
  /// fields shared with senders; everything else is loop-thread private.
  struct Peer final : EventLoop::IoHandler {
    TcpHost* host = nullptr;
    HostId id = 0;
    PeerAddr addr;

    std::mutex mu;
    std::deque<OutFrame> q;  // guarded by mu
    size_t q_bytes = 0;      // guarded by mu

    // Loop-thread private from here on.
    int fd = -1;
    PeerState state = PeerState::kIdle;
    bool want_write = false;            // EPOLLOUT currently armed
    bool dirty = false;                 // on the host's cycle-end flush list
    std::deque<OutFrame> inflight;      // moved off q; survives partial writev
    size_t head_off = 0;                // bytes of inflight.front() already written
    TimeMicros retry_at = 0;            // steady-us deadline before next connect
    DurationMicros backoff = 0;

    obs::Gauge* depth_gauge = nullptr;
    obs::Gauge* bytes_gauge = nullptr;

    void on_io(uint32_t events) override { host->handle_peer_event(this, events); }
  };

  /// One accepted inbound connection and its rolling decode buffer. Complete
  /// frames are handed to handlers as views into the buffer, then the
  /// trailing partial frame moves to the front: no per-message allocation.
  struct Conn final : EventLoop::IoHandler {
    TcpHost* host = nullptr;
    int fd = -1;
    Bytes buf;
    size_t filled = 0;
    std::list<std::unique_ptr<Conn>>::iterator self;

    void on_io(uint32_t events) override;
  };

  struct Listener final : EventLoop::IoHandler {
    TcpHost* host = nullptr;
    void on_io(uint32_t) override { host->on_acceptable(); }
  };

  TcpHost(TcpTransport* t, HostId id, int listen_fd);

  /// Sender-side entry: encode from/to into the header, enqueue onto the
  /// queue of `to`'s host. Callable from any thread.
  void send_frame(NodeId from, NodeId to, MsgType type, SharedBytes payload);
  /// Makes `ep` visible to inbound dispatch. Registration is posted onto the
  /// loop thread — the endpoint map is loop-thread-confined, so the inbound
  /// hot path reads it without a lock (frames racing registration are
  /// dropped; peers retransmit).
  void register_endpoint(TcpNode* ep);

  void on_acceptable();
  void on_conn_readable(Conn* c);
  void close_conn(Conn* c);
  /// Hands every complete frame in c->buf to its endpoint's handler. Returns
  /// false when the connection hit a fatal frame and must be closed by the
  /// caller (close_conn destroys the Conn, so this function never closes it
  /// itself — the caller must not touch *c after a false return).
  bool deliver_frames(Conn* c);
  /// Queues `p` for the flush at the end of this loop cycle. Loop thread.
  void mark_dirty(Peer* p);
  void flush_dirty();
  void flush_peer(Peer* p);
  void start_connect(Peer* p);
  void handle_peer_event(Peer* p, uint32_t events);
  void peer_disconnected(Peer* p, const char* why);
  void set_peer_writable_interest(Peer* p, bool want);

  TcpTransport* transport_;
  HostId id_;
  int listen_fd_;
  Listener listener_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> send_drops_{0};
  // send() stall timing is sampled 1-in-16 (two clock reads per frame are
  // measurable at millions of frames/s); this is the sample counter.
  std::atomic<uint32_t> stall_sample_{0};
  obs::TcpIoMetrics io_metrics_;

  // Built once in the constructor from the transport's address map and
  // immutable afterwards, so lookups need no lock.
  std::map<HostId, std::unique_ptr<Peer>> peers_;

  // Loop-thread-confined: connections, the cycle-end flush list, and the
  // endpoint map inbound frames are demultiplexed with.
  std::list<std::unique_ptr<Conn>> conns_;
  std::vector<Peer*> dirty_;
  std::map<NodeId, TcpNode*> endpoints_;

  // Last member: its thread stops first on destruction, after every field
  // the loop's callbacks touch has been constructed.
  EventLoop loop_;
};

/// Builds TcpNodes from a static address map keyed by *host* id. With the
/// default identity HostMap every NodeId is its own host (one socket per
/// node, the historical behavior); with a strided HostMap all of a server's
/// group endpoints share one socket and loop.
class TcpTransport {
 public:
  /// addrs[h] is the listen address of host h. With the identity HostMap,
  /// host ids are node ids.
  explicit TcpTransport(std::map<HostId, PeerAddr> addrs, HostMap hosts = {})
      : addrs_(std::move(addrs)), host_map_(hosts) {}
  ~TcpTransport();

  /// Creates the endpoint, binding + listening its host's socket on first
  /// use. Must be called once per id. Returns kUnavailable when the
  /// configured port is already taken (e.g. a free_ports() reservation raced
  /// another process) — callers should pick fresh ports and retry.
  StatusOr<TcpNode*> start_node(NodeId id);

  /// Binds + listens `id`'s host socket now and starts nothing: the host and
  /// its loop thread come with the first start_node() of that host, which
  /// then cannot race for the port. Same kUnavailable contract as
  /// start_node().
  Status bind_node(NodeId id);

  const PeerAddr& addr(HostId id) const { return addrs_.at(id); }
  const HostMap& host_map() const { return host_map_; }

  /// Picks len free localhost ports (test/example helper). Inherently TOCTOU:
  /// the reservation sockets are closed before the caller binds, so another
  /// process can grab a returned port in the window. start_node() reports
  /// that race as a retryable kUnavailable status.
  static std::vector<uint16_t> free_ports(size_t len);

 private:
  friend class TcpHost;
  friend class TcpNode;
  std::map<HostId, PeerAddr> addrs_;
  HostMap host_map_;
  std::mutex mu_;
  /// Bound + listening, no loop thread yet (the socket is ready; guarded by mu_).
  StatusOr<int> listen_on(HostId host_id);

  std::map<HostId, std::unique_ptr<TcpHost>> hosts_;
  std::map<HostId, int> bound_;  // bind_node() listeners awaiting their host
  std::map<NodeId, std::unique_ptr<TcpNode>> nodes_;
};

}  // namespace rspaxos::net
