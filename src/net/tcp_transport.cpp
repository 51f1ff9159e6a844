#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/trace.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace rspaxos::net {
namespace {

// Linux guarantees IOV_MAX >= 1024; one frame needs two iovecs (header,
// payload), so one writev can carry up to kMaxBatchFrames frames.
constexpr size_t kMaxIov = 1024;
constexpr size_t kMaxBatchFrames = kMaxIov / 2;

// Reconnect backoff bounds. First retry after a failure waits kMinBackoffUs,
// doubling up to kMaxBackoffUs while the peer stays unreachable.
constexpr DurationMicros kMinBackoffUs = 2'000;
constexpr DurationMicros kMaxBackoffUs = 500'000;

// Inbound decode buffer: initial size, and the high-water mark above which a
// drained buffer is shrunk back (a single 64 MiB frame must not pin 64 MiB
// per connection forever).
constexpr size_t kReadBufBytes = 128 * 1024;

// Socket buffers: deep enough that a writev burst rarely stalls on EAGAIN
// mid-batch (each stall costs an epoll round trip and two epoll_ctl calls).
constexpr int kSockBufBytes = 1 << 20;
constexpr size_t kReadBufShrinkBytes = 1 << 20;

// Cap on consecutive writev rounds per flush so one fast peer cannot starve
// the rest of the loop; EPOLLOUT re-arms and the flush resumes next round.
constexpr int kFlushRounds = 8;

}  // namespace

// ---------------------------------------------------------------------------
// TcpNode: thin endpoint facade over the owning host.

TcpNode::TcpNode(TcpHost* host, NodeId id) : host_(host), id_(id) {
  metrics_.init(id);
}

TimeMicros TcpNode::now() const { return host_->loop_.now(); }

EventLoop& TcpNode::loop() { return host_->loop_; }

uint64_t TcpNode::send_drops() const { return host_->send_drops_.load(); }

uint64_t TcpNode::max_peer_queue_depth() const {
  uint64_t worst = 0;
  for (const auto& [id, p] : host_->peers_) {
    std::lock_guard<std::mutex> lk(p->mu);
    worst = std::max<uint64_t>(worst, p->q.size());
  }
  return worst;
}

void TcpNode::shutdown() { host_->shutdown(); }

void TcpNode::send(NodeId to, MsgType type, SharedBytes payload) {
  bytes_sent_.fetch_add(payload.size(), std::memory_order_relaxed);
  metrics_.on_send(type, payload.size());
  host_->send_frame(id_, to, type, std::move(payload));
}

NodeContext::TimerId TcpNode::set_timer(DurationMicros delay, TimerFn fn) {
  return host_->loop_.schedule(delay, std::move(fn));
}

bool TcpNode::cancel_timer(TimerId id) { return host_->loop_.cancel(id); }

bool TcpNode::on_context_thread() const { return host_->loop_.on_loop_thread(); }

bool TcpNode::connected_to(NodeId peer) const {
  auto it = host_->peers_.find(host_->transport_->host_map().host_of(peer));
  return it != host_->peers_.end() && it->second->state == TcpHost::PeerState::kConnected;
}

// ---------------------------------------------------------------------------
// TcpHost.

TcpHost::TcpHost(TcpTransport* t, HostId id, int listen_fd)
    : transport_(t), id_(id), listen_fd_(listen_fd) {
  io_metrics_.init(id);
  listener_.host = this;

  // The peer-host set is fixed by the transport's address map, so the map
  // itself needs no lock — only each peer's queue does.
  for (const auto& [peer_id, addr] : transport_->addrs_) {
    auto p = std::make_unique<Peer>();
    p->host = this;
    p->id = peer_id;
    p->addr = addr;
    p->depth_gauge = obs::TcpIoMetrics::queue_depth_gauge(id, peer_id);
    p->bytes_gauge = obs::TcpIoMetrics::queue_bytes_gauge(id, peer_id);
    peers_.emplace(peer_id, std::move(p));
  }

  // The loop's driver is single-owner, so registration runs on its thread.
  loop_.post([this, id] {
    // Tag the protocol thread so every log line carries node=<host id>.
    set_log_node(id);
    loop_.set_cycle_end([this] { flush_dirty(); });
    if (!loop_.watch(listen_fd_, EPOLLIN, &listener_)) {
      RSP_WARN << "tcp: listener registration failed, host " << id_ << " accepts nothing";
    }
  });
}

TcpHost::~TcpHost() { shutdown(); }

void TcpHost::shutdown() {
  if (stopping_.exchange(true)) return;
  loop_.stop();
  // The loop thread is joined: the sockets it owned are ours to close.
  for (auto& c : conns_) ::close(c->fd);
  conns_.clear();
  for (auto& [pid, p] : peers_) {
    if (p->fd >= 0) ::close(p->fd);
    p->fd = -1;
    p->state = PeerState::kIdle;
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
}

void TcpHost::register_endpoint(TcpNode* ep) {
  loop_.post([this, ep] { endpoints_[ep->id()] = ep; });
}

// ---------------------------------------------------------------------------
// send path (any thread): enqueue, then at most one flush request. Never
// blocks on a socket, a connect, or another peer's queue.

void TcpHost::send_frame(NodeId from, NodeId to, MsgType type, SharedBytes payload) {
  bool sampled = (stall_sample_.fetch_add(1, std::memory_order_relaxed) & 0xf) == 0;
  std::chrono::steady_clock::time_point t0;
  if (sampled) t0 = std::chrono::steady_clock::now();

  auto it = peers_.find(transport_->host_map_.host_of(to));
  if (it == peers_.end()) {
    send_drops_.fetch_add(1, std::memory_order_relaxed);
    io_metrics_.drops_no_peer->inc();
    return;
  }
  // Also reject frames whose wire size exceeds the queue byte bound: they
  // would be nominally accepted only for the drop-oldest loop below to shed
  // them immediately, even from an empty queue — never deliverable.
  if (payload.size() > kMaxFrameBytes ||
      kFrameHeaderBytes + payload.size() > TcpNode::kMaxQueueBytes) {
    send_drops_.fetch_add(1, std::memory_order_relaxed);
    io_metrics_.drops_oversize->inc();
    return;
  }
  Peer* p = it->second.get();

  OutFrame f;
  // The caller's ambient span rides in the header so the receiver's handler
  // runs inside the sender's trace (frame format v3).
  obs::SpanContext span = obs::current_span();
  encode_frame_header(f.hdr.data(), static_cast<uint32_t>(payload.size()),
                      crc32c(payload), from, to, type, span.trace_id, span.span_id);
  f.payload = std::move(payload);

  bool need_flush;
  uint64_t dropped = 0;
  size_t depth, q_bytes;
  {
    std::lock_guard<std::mutex> lk(p->mu);
    need_flush = p->q.empty();
    p->q_bytes += f.wire_size();
    p->q.push_back(std::move(f));
    // Drop-oldest backpressure: bounded queue, datagram semantics. Dropping
    // from the front never reorders the frames that remain.
    while (p->q.size() > TcpNode::kMaxQueueFrames ||
           p->q_bytes > TcpNode::kMaxQueueBytes) {
      p->q_bytes -= p->q.front().wire_size();
      p->q.pop_front();
      ++dropped;
    }
    depth = p->q.size();
    q_bytes = p->q_bytes;
  }
  // Gauges record the snapshot taken under the lock; setting them outside
  // keeps the critical section to the queue operations alone.
  p->depth_gauge->set(static_cast<int64_t>(depth));
  p->bytes_gauge->set(static_cast<int64_t>(q_bytes));
  if (dropped > 0) {
    send_drops_.fetch_add(dropped, std::memory_order_relaxed);
    io_metrics_.drops_queue_full->inc(dropped);
  }
  // A non-empty queue already has a flush coming: a cycle-end or posted
  // flush, armed EPOLLOUT, a pending connect or a reconnect timer.
  if (need_flush) {
    if (loop_.on_loop_thread()) {
      mark_dirty(p);
    } else {
      loop_.post([this, p] { mark_dirty(p); });
    }
  }
  if (sampled) {
    io_metrics_.send_stall_us->observe(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
}

void TcpHost::mark_dirty(Peer* p) {
  if (p->dirty) return;
  p->dirty = true;
  dirty_.push_back(p);
}

void TcpHost::flush_dirty() {
  for (Peer* p : dirty_) {
    p->dirty = false;
    // With EPOLLOUT armed the socket's writability drives the flush.
    if (!p->want_write) flush_peer(p);
  }
  dirty_.clear();
}

// ---------------------------------------------------------------------------
// Inbound: accept, read, and deliver frames in place on the loop thread.

void TcpHost::on_acceptable() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or listener closed
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    int buf_sz = kSockBufBytes;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_sz, sizeof(buf_sz));
    auto c = std::make_unique<Conn>();
    c->host = this;
    c->fd = fd;
    c->buf.resize(kReadBufBytes);
    conns_.push_back(std::move(c));
    Conn* raw = conns_.back().get();
    raw->self = std::prev(conns_.end());
    if (!loop_.watch(fd, EPOLLIN, raw)) close_conn(raw);
  }
}

void TcpHost::Conn::on_io(uint32_t events) {
  if (events & EPOLLIN) {
    host->on_conn_readable(this);
  } else if (events & (EPOLLHUP | EPOLLERR)) {
    host->close_conn(this);
  }
}

void TcpHost::close_conn(Conn* c) {
  loop_.unwatch(c->fd);
  ::close(c->fd);
  conns_.erase(c->self);  // destroys *c
}

void TcpHost::on_conn_readable(Conn* c) {
  while (true) {
    if (c->filled == c->buf.size()) {
      // Grow to fit the frame in progress (bounded by the frame size cap).
      size_t need = c->buf.size() * 2;
      if (c->filled >= kFrameHeaderBytes) {
        FrameHeader h = decode_frame_header(c->buf.data());
        if (h.payload_len <= kMaxFrameBytes) {
          size_t frame = kFrameHeaderBytes + h.payload_len;
          if (frame > need) need = frame;
        }
      }
      c->buf.resize(std::min(need, kMaxFrameBytes + kFrameHeaderBytes));
    }
    size_t want = c->buf.size() - c->filled;
    ssize_t n = ::read(c->fd, c->buf.data() + c->filled, want);
    if (n == 0) {  // peer closed; complete frames were already delivered
      close_conn(c);
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_conn(c);
      return;
    }
    c->filled += static_cast<size_t>(n);
    if (!deliver_frames(c)) {  // fatal frame: close here, never touch *c after
      close_conn(c);
      return;
    }
    // Partial read: the socket is likely drained; level-triggered readiness
    // re-fires if more arrives, so yield to the rest of the loop.
    if (static_cast<size_t>(n) < want) return;
  }
}

bool TcpHost::deliver_frames(Conn* c) {
  // Handlers get views into the connection buffer, valid for the call:
  // payload bytes are never copied after the kernel. One read may carry
  // frames for several endpoints; each is demultiplexed on its own.
  size_t pos = 0;
  while (c->filled - pos >= kFrameHeaderBytes) {
    FrameHeader h = decode_frame_header(c->buf.data() + pos);
    if (h.payload_len > kMaxFrameBytes) {
      RSP_WARN << "tcp: oversized frame (" << h.payload_len << " bytes), closing";
      return false;
    }
    if (c->filled - pos < kFrameHeaderBytes + h.payload_len) break;
    BytesView payload(c->buf.data() + pos + kFrameHeaderBytes, h.payload_len);
    pos += kFrameHeaderBytes + h.payload_len;
    if (crc32c(payload) != h.crc) {
      RSP_WARN << "tcp: frame checksum mismatch from node " << h.from << ", dropping";
      continue;
    }
    // A frame for an endpoint that has not registered yet (or a stale
    // destination) is dropped and the sender's protocol retransmits.
    auto eit = endpoints_.find(h.to);
    if (eit == endpoints_.end()) continue;
    MessageHandler* handler = eit->second->handler_.load();
    if (handler == nullptr) continue;
    obs::SpanScope scope(obs::SpanContext{h.trace_id, h.span_id});
    handler->on_message(h.from, static_cast<MsgType>(h.type), payload);
  }
  // Carry the trailing partial frame to the front; shed a buffer grown for a
  // huge frame once it is no longer needed.
  size_t leftover = c->filled - pos;
  if (pos > 0 && leftover > 0) std::memmove(c->buf.data(), c->buf.data() + pos, leftover);
  c->filled = leftover;
  if (c->buf.size() > kReadBufShrinkBytes && c->filled <= kReadBufBytes) {
    Bytes smaller(kReadBufBytes);
    std::memcpy(smaller.data(), c->buf.data(), c->filled);
    c->buf.swap(smaller);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Outbound: async connect + vectored drain.

void TcpHost::handle_peer_event(Peer* p, uint32_t events) {
  if (p->state == PeerState::kConnecting) {
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(p->fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || (events & (EPOLLERR | EPOLLHUP)) != 0) {
      peer_disconnected(p, "connect failed");
      return;
    }
    if ((events & EPOLLOUT) == 0) return;  // not established yet
    p->state = PeerState::kConnected;
    p->backoff = 0;
    flush_peer(p);
    return;
  }
  if (p->state != PeerState::kConnected) return;
  if (events & (EPOLLERR | EPOLLHUP)) {
    peer_disconnected(p, "connection error");
    return;
  }
  if (events & EPOLLIN) {
    // Outbound sockets are write-only in this transport; readability means
    // EOF (peer closed) or unexpected data (discarded).
    uint8_t tmp[256];
    ssize_t r = ::read(p->fd, tmp, sizeof(tmp));
    if (r == 0 ||
        (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      peer_disconnected(p, "peer closed");
      return;
    }
  }
  if (events & EPOLLOUT) flush_peer(p);
}

void TcpHost::peer_disconnected(Peer* p, const char* why) {
  if (p->fd >= 0) {
    loop_.unwatch(p->fd);
    ::close(p->fd);
    p->fd = -1;
  }
  if (p->state == PeerState::kConnected || p->state == PeerState::kConnecting) {
    RSP_DEBUG << "tcp: peer host " << p->id << " " << why << ", backing off";
  }
  p->state = PeerState::kIdle;
  p->want_write = false;
  // Frames in inflight (including a partially-written head) are resent from
  // scratch on the next connection: the receiver discards the torn tail with
  // the dead connection, and Paxos tolerates the possible duplicates.
  p->head_off = 0;
  p->backoff = p->backoff == 0 ? kMinBackoffUs
                               : std::min<DurationMicros>(p->backoff * 2, kMaxBackoffUs);
  p->retry_at = loop_.now() + p->backoff;
  // Reconnects when the backoff ends if frames are still waiting; a send
  // after that reconnects through its own flush.
  loop_.schedule(p->backoff, [this, p] { flush_peer(p); });
}

void TcpHost::start_connect(Peer* p) {
  io_metrics_.reconnects->inc();
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    peer_disconnected(p, "socket failed");
    return;
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(p->addr.port);
  if (::inet_pton(AF_INET, p->addr.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    peer_disconnected(p, "bad address");
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  int buf_sz = kSockBufBytes;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_sz, sizeof(buf_sz));
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    peer_disconnected(p, "connect refused");
    return;
  }
  p->fd = fd;
  p->state = rc == 0 ? PeerState::kConnected : PeerState::kConnecting;
  if (rc == 0) p->backoff = 0;
  p->want_write = true;
  if (!loop_.watch(fd, EPOLLIN | EPOLLOUT, p)) {
    ::close(fd);
    p->fd = -1;
    peer_disconnected(p, "driver add failed");
  }
}

void TcpHost::set_peer_writable_interest(Peer* p, bool want) {
  if (p->want_write == want || p->fd < 0) return;
  if (loop_.rewatch(p->fd, EPOLLIN | (want ? EPOLLOUT : 0u), p)) {
    p->want_write = want;
  }
}

void TcpHost::flush_peer(Peer* p) {
  if (p->state == PeerState::kIdle) {
    bool pending = !p->inflight.empty();
    if (!pending) {
      std::lock_guard<std::mutex> lk(p->mu);
      pending = !p->q.empty();
    }
    if (!pending || loop_.now() < p->retry_at) return;
    start_connect(p);
  }
  if (p->state != PeerState::kConnected) return;

  for (int round = 0; round < kFlushRounds; ++round) {
    if (p->inflight.empty()) {
      size_t depth, q_bytes;
      {
        std::lock_guard<std::mutex> lk(p->mu);
        while (!p->q.empty() && p->inflight.size() < kMaxBatchFrames) {
          p->q_bytes -= p->q.front().wire_size();
          p->inflight.push_back(std::move(p->q.front()));
          p->q.pop_front();
        }
        depth = p->q.size();
        q_bytes = p->q_bytes;
      }
      p->depth_gauge->set(static_cast<int64_t>(depth));
      p->bytes_gauge->set(static_cast<int64_t>(q_bytes));
    }
    if (p->inflight.empty()) {
      set_peer_writable_interest(p, false);
      return;
    }

    // Coalesce header + payload of as many queued frames as fit into one
    // vectored syscall; a partially-written head frame resumes mid-frame.
    iovec iov[kMaxIov];
    size_t niov = 0;
    size_t off = p->head_off;
    for (const OutFrame& f : p->inflight) {
      if (niov + 2 > kMaxIov) break;
      if (off < kFrameHeaderBytes) {
        iov[niov++] = {const_cast<uint8_t*>(f.hdr.data()) + off,
                       kFrameHeaderBytes - off};
        if (!f.payload.empty()) {
          iov[niov++] = {const_cast<uint8_t*>(f.payload.data()), f.payload.size()};
        }
      } else {
        size_t poff = off - kFrameHeaderBytes;
        iov[niov++] = {const_cast<uint8_t*>(f.payload.data()) + poff,
                       f.payload.size() - poff};
      }
      off = 0;  // only the head frame can start mid-frame
    }

    // sendmsg(MSG_NOSIGNAL) == writev, minus SIGPIPE when the peer has
    // already reset the connection (we want EPIPE and a reconnect instead).
    struct msghdr mh {};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    ssize_t n = ::sendmsg(p->fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        set_peer_writable_interest(p, true);
        return;
      }
      peer_disconnected(p, "write failed");
      return;
    }
    size_t remaining = static_cast<size_t>(n);
    int64_t completed = 0;
    while (remaining > 0) {
      OutFrame& head = p->inflight.front();
      size_t avail = head.wire_size() - p->head_off;
      if (remaining >= avail) {
        remaining -= avail;
        p->head_off = 0;
        p->inflight.pop_front();
        ++completed;
      } else {
        p->head_off += remaining;
        remaining = 0;
      }
    }
    if (completed > 0) io_metrics_.frames_per_writev->observe(completed);
  }
  // Round budget exhausted with possible work left: keep EPOLLOUT armed so
  // the flush resumes on the next loop cycle without a wakeup.
  set_peer_writable_interest(p, true);
}

// ---------------------------------------------------------------------------

TcpTransport::~TcpTransport() {
  std::lock_guard<std::mutex> lk(mu_);
  // Hosts first: stops every loop, after which no thread can touch the
  // endpoint objects the nodes_ map still owns.
  for (auto& [id, host] : hosts_) host->shutdown();
  for (auto& [id, fd] : bound_) ::close(fd);
}

StatusOr<int> TcpTransport::listen_on(HostId host_id) {
  auto ait = addrs_.find(host_id);
  if (ait == addrs_.end()) return Status::invalid("unknown host id");
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::internal("socket failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(ait->second.port);
  if (::inet_pton(AF_INET, ait->second.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    return Status::invalid("bad host " + ait->second.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    int err = errno;
    ::close(fd);
    if (err == EADDRINUSE) {
      // free_ports() reservations are released before we bind, so another
      // process can win the port in between. Retryable by design.
      return Status::unavailable("port " + std::to_string(ait->second.port) +
                                 " raced (EADDRINUSE); pick fresh free_ports() and retry");
    }
    return Status::internal("bind failed: " + std::string(std::strerror(err)));
  }
  if (::listen(fd, 256) != 0) {
    ::close(fd);
    return Status::internal("listen failed");
  }
  return fd;
}

Status TcpTransport::bind_node(NodeId id) {
  HostId host_id = host_map_.host_of(id);
  std::lock_guard<std::mutex> lk(mu_);
  if (hosts_.count(host_id) != 0 || bound_.count(host_id) != 0) return Status::ok();
  auto fd = listen_on(host_id);
  if (!fd.is_ok()) return fd.status();
  bound_[host_id] = fd.value();
  return Status::ok();
}

StatusOr<TcpNode*> TcpTransport::start_node(NodeId id) {
  HostId host_id = host_map_.host_of(id);
  if (addrs_.count(host_id) == 0) return Status::invalid("unknown host id");

  std::lock_guard<std::mutex> lk(mu_);
  if (nodes_.count(id) != 0) return Status::failed_precondition("node already started");

  auto hit = hosts_.find(host_id);
  if (hit == hosts_.end()) {
    int fd;
    if (auto bit = bound_.find(host_id); bit != bound_.end()) {
      fd = bit->second;
      bound_.erase(bit);
    } else {
      auto bound = listen_on(host_id);
      if (!bound.is_ok()) return bound.status();
      fd = bound.value();
    }
    auto host = std::unique_ptr<TcpHost>(new TcpHost(this, host_id, fd));
    if (!host->loop_.ok()) {
      // Host destructor (via shutdown) closes the listener on this path.
      return Status::internal("event loop setup failed");
    }
    hit = hosts_.emplace(host_id, std::move(host)).first;
  }

  auto node = std::unique_ptr<TcpNode>(new TcpNode(hit->second.get(), id));
  hit->second->register_endpoint(node.get());
  auto [it, inserted] = nodes_.emplace(id, std::move(node));
  return it->second.get();
}

std::vector<uint16_t> TcpTransport::free_ports(size_t len) {
  // Bind ephemeral sockets, record the assigned ports, then release them.
  // SO_REUSEADDR keeps the kernel from parking the released ports in
  // TIME_WAIT, but the reservation is still TOCTOU: start_node() re-verifies
  // the bind and reports a raced port as a retryable kUnavailable status.
  std::vector<uint16_t> ports;
  std::vector<int> fds;
  for (size_t i = 0; i < len; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) continue;
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    sa.sin_port = 0;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      continue;
    }
    socklen_t slen = sizeof(sa);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &slen);
    ports.push_back(ntohs(sa.sin_port));
    fds.push_back(fd);
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

}  // namespace rspaxos::net
