// Real-transport tests: the epoll TCP transport (sockets, framing, CRC
// rejection, non-blocking sends, reconnect, per-peer ordering under stress),
// the NodeContext contract the protocol depends on (timers on the node's
// loop thread, bytes_sent accounting), and the host's thread model (one
// reactor thread that runs sockets, handlers, timers and tasks).
#include <arpa/inet.h>
#include <dirent.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/tcp_transport.h"
#include "obs/metrics.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace rspaxos::net {
namespace {

// Thread-safe message collector.
struct Collector final : MessageHandler {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::pair<NodeId, Bytes>> received;

  void on_message(NodeId from, MsgType type, BytesView payload) override {
    (void)type;
    // Notify under the lock: the waiter may destroy this collector as soon
    // as wait_for returns, which must not overlap the broadcast.
    std::lock_guard<std::mutex> lk(mu);
    received.emplace_back(from, Bytes(payload.begin(), payload.end()));
    cv.notify_all();
  }

  bool wait_for(size_t n, int ms = 2000) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, std::chrono::milliseconds(ms),
                       [&] { return received.size() >= n; });
  }
};

// Echo handler: replies kTestPong with the same payload.
struct Echo final : MessageHandler {
  NodeContext* ctx;
  explicit Echo(NodeContext* c) : ctx(c) {}
  void on_message(NodeId from, MsgType type, BytesView payload) override {
    if (type == MsgType::kTestPing) {
      ctx->send(from, MsgType::kTestPong, Bytes(payload.begin(), payload.end()));
    }
  }
};

class TcpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ports = TcpTransport::free_ports(2);
    ASSERT_EQ(ports.size(), 2u);
    std::map<NodeId, PeerAddr> addrs{
        {1, PeerAddr{"127.0.0.1", ports[0]}},
        {2, PeerAddr{"127.0.0.1", ports[1]}},
    };
    transport_ = std::make_unique<TcpTransport>(addrs);
    auto n1 = transport_->start_node(1);
    auto n2 = transport_->start_node(2);
    ASSERT_TRUE(n1.is_ok()) << n1.status().to_string();
    ASSERT_TRUE(n2.is_ok()) << n2.status().to_string();
    node1_ = n1.value();
    node2_ = n2.value();
  }

  std::unique_ptr<TcpTransport> transport_;
  TcpNode* node1_ = nullptr;
  TcpNode* node2_ = nullptr;
};

TEST_F(TcpTest, RoundTripOverSockets) {
  Collector rx;
  node2_->set_handler(&rx);
  node1_->send(2, MsgType::kTestPing, to_bytes("over-tcp"));
  ASSERT_TRUE(rx.wait_for(1));
  EXPECT_EQ(rx.received[0].first, 1u);
  EXPECT_EQ(to_string(rx.received[0].second), "over-tcp");
}

TEST_F(TcpTest, BidirectionalEcho) {
  Echo echo(node2_);
  node2_->set_handler(&echo);
  Collector rx;
  node1_->set_handler(&rx);
  for (int i = 0; i < 20; ++i) {
    node1_->send(2, MsgType::kTestPing, Bytes{static_cast<uint8_t>(i)});
  }
  ASSERT_TRUE(rx.wait_for(20));
}

TEST_F(TcpTest, LargePayload) {
  Collector rx;
  node2_->set_handler(&rx);
  Bytes big(2 * 1024 * 1024);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i * 31);
  node1_->send(2, MsgType::kTestPing, big);
  ASSERT_TRUE(rx.wait_for(1, 10000));
  EXPECT_EQ(rx.received[0].second, big);
}

TEST_F(TcpTest, ManyMessagesKeepOrder) {
  Collector rx;
  node2_->set_handler(&rx);
  for (int i = 0; i < 500; ++i) {
    Bytes payload{static_cast<uint8_t>(i & 0xff), static_cast<uint8_t>(i >> 8)};
    node1_->send(2, MsgType::kTestPing, payload);
  }
  ASSERT_TRUE(rx.wait_for(500, 10000));
  for (int i = 0; i < 500; ++i) {
    int got = rx.received[static_cast<size_t>(i)].second[0] |
              (rx.received[static_cast<size_t>(i)].second[1] << 8);
    EXPECT_EQ(got, i);
  }
}

// Timers set from a foreign thread still fire on the node's loop thread, the
// one its handlers run on.
TEST_F(TcpTest, TimersFireOnLoopThread) {
  EXPECT_FALSE(node1_->on_context_thread());
  auto on_loop = std::make_shared<std::promise<bool>>();
  auto fired = on_loop->get_future();
  TcpNode* n = node1_;
  n->set_timer(2000, [on_loop, n] { on_loop->set_value(n->on_context_thread()); });
  ASSERT_EQ(fired.wait_for(std::chrono::seconds(2)), std::future_status::ready);
  EXPECT_TRUE(fired.get());
}

// bytes_sent() counts the payload bytes handed to send(): no frame header,
// nothing on the receiver, and a frame to an unreachable peer still counts.
TEST_F(TcpTest, BytesSentAccounting) {
  Collector rx;
  node2_->set_handler(&rx);
  node1_->send(2, MsgType::kTestPing, Bytes(77, 0));
  ASSERT_TRUE(rx.wait_for(1));
  EXPECT_EQ(node1_->bytes_sent(), 77u);
  EXPECT_EQ(node2_->bytes_sent(), 0u);
  node1_->send(9, MsgType::kTestPing, Bytes(5, 0));  // no address for 9
  EXPECT_EQ(node1_->send_drops(), 1u);
  EXPECT_EQ(node1_->bytes_sent(), 82u);
}

TEST_F(TcpTest, SendToUnstartedPeerIsDropNotCrash) {
  auto ports = TcpTransport::free_ports(1);
  std::map<NodeId, PeerAddr> addrs{
      {1, PeerAddr{"127.0.0.1", ports[0]}},
      {9, PeerAddr{"127.0.0.1", 1}},  // nothing listens on port 1
  };
  TcpTransport t(addrs);
  auto n = t.start_node(1);
  ASSERT_TRUE(n.is_ok());
  n.value()->send(9, MsgType::kTestPing, Bytes{1});  // must not crash
}

// start_node with retry on the free_ports() TOCTOU race (reported as a
// retryable kUnavailable status).
TcpNode* start_node_retry(std::unique_ptr<TcpTransport>& t, NodeId id) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    auto n = t->start_node(id);
    if (n.is_ok()) return n.value();
    if (n.status().code() != Code::kUnavailable) {
      ADD_FAILURE() << "start_node: " << n.status().to_string();
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ADD_FAILURE() << "port stayed busy after 50 retries";
  return nullptr;
}

// send() must be enqueue-only: with nothing listening on the peer's port, a
// burst of sends completes in enqueue time, bounded by the send-stall
// histogram (a blocking transport would pay a connect per send).
TEST(TcpNonBlocking, UnreachablePeerSendIsEnqueueOnly) {
  auto ports = TcpTransport::free_ports(2);
  ASSERT_EQ(ports.size(), 2u);
  constexpr NodeId kSender = 77;  // unique id -> fresh histogram child
  std::map<NodeId, PeerAddr> addrs{
      {kSender, PeerAddr{"127.0.0.1", ports[0]}},
      {78, PeerAddr{"127.0.0.1", ports[1]}},  // reserved but never started
  };
  TcpTransport t(addrs);
  auto n = t.start_node(kSender);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();

  constexpr int kSends = 1000;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSends; ++i) {
    n.value()->send(78, MsgType::kTestPing, Bytes(128, 0x7e));
  }
  auto total_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  // 1000 enqueues must land far under anything a blocking connect() path
  // could achieve; generous bound for sanitizer builds.
  EXPECT_LT(total_ms, 2000.0);
  EXPECT_EQ(n.value()->send_drops(), 0u);  // bounded queue holds all 1000

  auto snap = obs::MetricsRegistry::global()
                  .histogram_family("rsp_net_send_stall_us",
                                    "Time a caller spent inside transport send()",
                                    {"node"})
                  .with({std::to_string(kSender)})
                  .snapshot();
  // Stall timing is sampled 1-in-16 inside send(); 1000 sends yield 63
  // observations (every 16th, starting at the first).
  ASSERT_GE(snap.count(), static_cast<uint64_t>(kSends) / 16);
  EXPECT_LT(snap.value_at(0.99), 5000);  // p99 enqueue stall < 5 ms
}

// Queue overflow toward an unreachable peer drops oldest frames instead of
// blocking or growing without bound.
TEST(TcpNonBlocking, QueueOverflowDropsOldest) {
  auto ports = TcpTransport::free_ports(1);
  ASSERT_EQ(ports.size(), 1u);
  std::map<NodeId, PeerAddr> addrs{
      {80, PeerAddr{"127.0.0.1", ports[0]}},
      {81, PeerAddr{"127.0.0.1", 1}},  // nothing listens
  };
  TcpTransport t(addrs);
  auto n = t.start_node(80);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  const size_t total = TcpNode::kMaxQueueFrames + 500;
  for (size_t i = 0; i < total; ++i) {
    n.value()->send(81, MsgType::kTestPing, Bytes{1});
  }
  EXPECT_GE(n.value()->send_drops(), 400u);
}

// Destroying the transport with megabytes still queued toward an unreachable
// peer must not hang or crash.
TEST(TcpNonBlocking, ShutdownWithQueuedDataIsClean) {
  auto ports = TcpTransport::free_ports(1);
  ASSERT_EQ(ports.size(), 1u);
  std::map<NodeId, PeerAddr> addrs{
      {82, PeerAddr{"127.0.0.1", ports[0]}},
      {83, PeerAddr{"127.0.0.1", 1}},
  };
  auto t = std::make_unique<TcpTransport>(addrs);
  auto n = t->start_node(82);
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  for (int i = 0; i < 48; ++i) {
    n.value()->send(83, MsgType::kTestPing, Bytes(1 << 20, 0x42));
  }
  t.reset();  // queued frames dropped, no hang
}

// A CRC-corrupted frame is dropped without killing the connection: the valid
// frame behind it on the same socket still arrives.
TEST_F(TcpTest, CorruptFrameDroppedConnectionSurvives) {
  Collector rx;
  node2_->set_handler(&rx);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(transport_->addr(2).port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);

  auto framed = [](const std::string& s, bool corrupt) {
    Bytes payload = to_bytes(s);
    Bytes out(kFrameHeaderBytes + payload.size());
    uint32_t crc = crc32c(payload) ^ (corrupt ? 0xdeadbeef : 0);
    encode_frame_header(out.data(), static_cast<uint32_t>(payload.size()), crc, 42,
                        /*to=*/2, MsgType::kTestPing);
    std::memcpy(out.data() + kFrameHeaderBytes, payload.data(), payload.size());
    return out;
  };
  Bytes wire = framed("corrupt-me", true);
  Bytes good = framed("still-alive", false);
  wire.insert(wire.end(), good.begin(), good.end());
  ASSERT_EQ(::write(fd, wire.data(), wire.size()), static_cast<ssize_t>(wire.size()));

  ASSERT_TRUE(rx.wait_for(1));
  {
    std::lock_guard<std::mutex> lk(rx.mu);
    ASSERT_EQ(rx.received.size(), 1u);
    EXPECT_EQ(rx.received[0].first, 42u);
    EXPECT_EQ(to_string(rx.received[0].second), "still-alive");
  }
  ::close(fd);
}

// A hostile length field (> kMaxFrameBytes) is fatal for that connection:
// valid frames earlier in the same burst still deliver, the server closes
// the socket, and the transport keeps serving other connections. Regression
// test — this path once destroyed the Conn and then kept reading through the
// dangling pointer.
TEST_F(TcpTest, OversizedFrameClosesConnectionTransportSurvives) {
  Collector rx;
  node2_->set_handler(&rx);

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(transport_->addr(2).port);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);

  Bytes payload = to_bytes("before-bomb");
  Bytes wire(kFrameHeaderBytes + payload.size() + kFrameHeaderBytes);
  encode_frame_header(wire.data(), static_cast<uint32_t>(payload.size()),
                      crc32c(payload), 42, /*to=*/2, MsgType::kTestPing);
  std::memcpy(wire.data() + kFrameHeaderBytes, payload.data(), payload.size());
  // Header claiming a 1 GiB payload, far over kMaxFrameBytes.
  encode_frame_header(wire.data() + kFrameHeaderBytes + payload.size(), 1u << 30,
                      0, 42, /*to=*/2, MsgType::kTestPing);
  ASSERT_EQ(::write(fd, wire.data(), wire.size()), static_cast<ssize_t>(wire.size()));

  ASSERT_TRUE(rx.wait_for(1));
  {
    std::lock_guard<std::mutex> lk(rx.mu);
    ASSERT_EQ(rx.received.size(), 1u);
    EXPECT_EQ(to_string(rx.received[0].second), "before-bomb");
  }

  // The server must close the hostile connection: wait for EOF.
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0);
  uint8_t b;
  EXPECT_EQ(::read(fd, &b, 1), 0);
  ::close(fd);

  // The node itself survives and accepts fresh connections.
  node1_->send(2, MsgType::kTestPing, to_bytes("still-works"));
  ASSERT_TRUE(rx.wait_for(2));
  {
    std::lock_guard<std::mutex> lk(rx.mu);
    EXPECT_EQ(to_string(rx.received[1].second), "still-works");
  }
}

// ---------------------------------------------------------------------------
// Thread model: a host is one thread. Its EventLoop is the reactor, so socket
// reads, handlers, timers and posted tasks all run on it.

size_t thread_count() {
  size_t n = 0;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ++n;
  }
  ::closedir(d);
  return n;
}

TEST(TcpThreadModel, StartedHostAddsExactlyOneThread) {
  auto ports = TcpTransport::free_ports(2);
  ASSERT_EQ(ports.size(), 2u);
  std::map<NodeId, PeerAddr> addrs{
      {1, PeerAddr{"127.0.0.1", ports[0]}},
      {2, PeerAddr{"127.0.0.1", ports[1]}},
  };
  TcpTransport t(addrs);
  size_t before = thread_count();
  ASSERT_GT(before, 0u);
  auto n1 = t.start_node(1);
  ASSERT_TRUE(n1.is_ok()) << n1.status().to_string();
  EXPECT_EQ(thread_count(), before + 1);
  auto n2 = t.start_node(2);
  ASSERT_TRUE(n2.is_ok()) << n2.status().to_string();
  EXPECT_EQ(thread_count(), before + 2);

  // Traffic starts no helper thread either.
  Collector rx;
  n2.value()->set_handler(&rx);
  n1.value()->send(2, MsgType::kTestPing, to_bytes("one-thread"));
  ASSERT_TRUE(rx.wait_for(1));
  EXPECT_EQ(thread_count(), before + 2);
}

// Records the thread and the context-thread verdict of every callback kind.
struct ThreadProbe {
  std::mutex mu;
  std::vector<std::pair<std::thread::id, bool>> seen;
  void record(const NodeContext* ctx) {
    std::lock_guard<std::mutex> lk(mu);
    seen.emplace_back(std::this_thread::get_id(), ctx->on_context_thread());
  }
};

struct ProbeHandler final : MessageHandler {
  const NodeContext* ctx;
  ThreadProbe* probe;
  std::promise<void> got;
  void on_message(NodeId, MsgType, BytesView) override {
    probe->record(ctx);
    got.set_value();
  }
};

TEST_F(TcpTest, HandlersTimersAndTasksRunOnTheContextThread) {
  ThreadProbe probe;
  ProbeHandler h;
  h.ctx = node2_;
  h.probe = &probe;
  auto got = h.got.get_future();
  node2_->set_handler(&h);
  node1_->send(2, MsgType::kTestPing, Bytes{1});
  ASSERT_EQ(got.wait_for(std::chrono::seconds(5)), std::future_status::ready);

  std::promise<void> timer_fired;
  node2_->set_timer(100, [&] {
    probe.record(node2_);
    timer_fired.set_value();
  });
  ASSERT_EQ(timer_fired.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);

  std::promise<void> task_ran;
  node2_->loop().post([&] {
    probe.record(node2_);
    task_ran.set_value();
  });
  ASSERT_EQ(task_ran.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);

  EXPECT_FALSE(node2_->on_context_thread());
  std::lock_guard<std::mutex> lk(probe.mu);
  ASSERT_EQ(probe.seen.size(), 3u);
  for (const auto& [tid, on_ctx] : probe.seen) {
    EXPECT_TRUE(on_ctx);
    EXPECT_EQ(tid, probe.seen[0].first);
  }
}

// The loop thread's id is published before the constructor returns, so a
// post or send from another thread right after start-up reads a settled id
// (TSan flags the race otherwise) and is never mistaken for the loop's own.
TEST(TcpThreadModel, LoopThreadIdPublishedBeforeFirstCrossThreadPost) {
  for (int i = 0; i < 20; ++i) {
    EventLoop loop;
    std::atomic<bool> task_on_loop{false};
    std::thread foreign([&] {
      EXPECT_FALSE(loop.on_loop_thread());
      loop.post([&] { task_on_loop = loop.on_loop_thread(); });
    });
    foreign.join();
    loop.drain();
    EXPECT_TRUE(task_on_loop.load());
  }

  auto ports = TcpTransport::free_ports(2);
  ASSERT_EQ(ports.size(), 2u);
  std::map<NodeId, PeerAddr> addrs{
      {1, PeerAddr{"127.0.0.1", ports[0]}},
      {2, PeerAddr{"127.0.0.1", ports[1]}},
  };
  TcpTransport t(addrs);
  Collector rx;
  auto n2 = t.start_node(2);
  ASSERT_TRUE(n2.is_ok()) << n2.status().to_string();
  n2.value()->set_handler(&rx);
  std::thread foreign([&] {
    auto n1 = t.start_node(1);
    ASSERT_TRUE(n1.is_ok()) << n1.status().to_string();
    n1.value()->send(2, MsgType::kTestPing, to_bytes("first-send"));
  });
  foreign.join();
  ASSERT_TRUE(rx.wait_for(1, 5000));
}

// stop() lets the tasks queued before it run, as the pre-reactor loop did;
// later posts are dropped and drain() on the stopped loop returns.
TEST(TcpThreadModel, StopRunsTasksQueuedBeforeIt) {
  EventLoop loop;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::atomic<int> ran{0};
  loop.post([open] { open.wait(); });  // holds the loop while the rest queue
  for (int i = 0; i < 100; ++i) loop.post([&ran] { ran++; });
  std::thread stopper([&loop] { loop.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.set_value();
  stopper.join();
  EXPECT_EQ(ran.load(), 100);
  loop.post([&ran] { ran++; });
  loop.drain();
  EXPECT_EQ(ran.load(), 100);
}

// Timers keep microsecond resolution: they fire in deadline order, never
// before their deadline, and a chain of 100 us timers is not stretched to
// whole milliseconds (epoll_wait's timeout unit).
TEST(TcpThreadModel, SubMillisecondTimersFireInOrderNeverEarly) {
  EventLoop loop;
  const std::vector<DurationMicros> delays = {900, 100, 500, 300, 700, 200, 800, 400, 600, 1000};
  std::mutex mu;
  std::vector<DurationMicros> order;
  std::vector<DurationMicros> early;
  std::promise<void> all;
  loop.post([&] {
    // Deadlines are base + d, whatever time the scheduling calls take.
    TimeMicros base = loop.now();
    for (DurationMicros d : delays) {
      TimeMicros armed = loop.now();
      DurationMicros delay = base + d - armed;
      loop.schedule(delay, [&, d, armed, delay] {
        std::lock_guard<std::mutex> lk(mu);
        if (loop.now() - armed < delay) early.push_back(d);
        order.push_back(d);
        if (order.size() == delays.size()) all.set_value();
      });
    }
  });
  ASSERT_EQ(all.get_future().wait_for(std::chrono::seconds(5)), std::future_status::ready);
  {
    std::lock_guard<std::mutex> lk(mu);
    std::vector<DurationMicros> sorted = delays;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(order, sorted);
    EXPECT_TRUE(early.empty()) << early.size() << " timers fired early";
  }

  // A chain of 50 timers of 100 us each: 5 ms when honoured, >= 50 ms when
  // each wait rounds up to a millisecond.
  constexpr int kChain = 50;
  std::promise<void> chain_done;
  int left = kChain;
  std::function<void()> step = [&] {
    if (--left == 0) {
      chain_done.set_value();
      return;
    }
    loop.schedule(100, step);
  };
  auto t0 = std::chrono::steady_clock::now();
  loop.schedule(100, step);
  ASSERT_EQ(chain_done.get_future().wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  auto chain_us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  EXPECT_GE(chain_us, kChain * 100);
  EXPECT_LT(chain_us, 40'000) << "100 us timers were rounded up";
}

// ---------------------------------------------------------------------------
// Stress: 4 nodes, concurrent senders per node, frame sizes 1 B - 1 MiB,
// one peer killed mid-stream (likely mid-frame: 1 MiB frames in flight) and
// restarted on the same port. Asserts per-(sender,receiver) sequence numbers
// never go backwards and shutdown is clean with data still queued.

// Orders kTestPing frames (u32 seq | u32 stream prefix) per sender stream —
// each sender thread is its own stream, so concurrent send() calls from two
// threads of one node don't look like reorders. Counts 1-byte kTestPong
// "noise" frames without ordering.
struct SeqCollector final : MessageHandler {
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::pair<NodeId, uint32_t>, uint32_t> last_seq;  // (from, stream)
  std::map<NodeId, uint64_t> frames_from;
  uint64_t reorders = 0;
  uint64_t noise = 0;

  void on_message(NodeId from, MsgType type, BytesView payload) override {
    std::lock_guard<std::mutex> lk(mu);
    if (type == MsgType::kTestPing && payload.size() >= 8) {
      uint32_t seq, stream;
      std::memcpy(&seq, payload.data(), 4);
      std::memcpy(&stream, payload.data() + 4, 4);
      auto key = std::make_pair(from, stream);
      auto it = last_seq.find(key);
      if (it != last_seq.end() && seq <= it->second) ++reorders;
      last_seq[key] = seq;
      ++frames_from[from];
    } else {
      ++noise;
    }
    cv.notify_all();
  }

  bool wait_frames_from(NodeId from, uint64_t n, int ms) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, std::chrono::milliseconds(ms),
                       [&] { return frames_from[from] >= n; });
  }
};

// TSan instruments every access and serializes far more than native builds;
// the stress senders must not out-produce the instrumented io threads.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsanBuild = true;
#else
constexpr bool kTsanBuild = false;
#endif
#else
constexpr bool kTsanBuild = false;
#endif

TEST(TcpStress, ConcurrentSendersKillReconnectNoReorder) {
  constexpr int kNodes = 4;
  auto ports = TcpTransport::free_ports(kNodes);
  ASSERT_EQ(ports.size(), static_cast<size_t>(kNodes));
  std::map<NodeId, PeerAddr> addrs;
  for (int i = 0; i < kNodes; ++i) {
    addrs[static_cast<NodeId>(i + 1)] = PeerAddr{"127.0.0.1", ports[static_cast<size_t>(i)]};
  }

  // Nodes 1-3 on one transport; node 4 on its own so it can be killed and
  // restarted while the rest keep sending.
  auto main_t = std::make_unique<TcpTransport>(addrs);
  auto victim_t = std::make_unique<TcpTransport>(addrs);
  std::array<TcpNode*, 4> nodes{};
  std::array<SeqCollector, 4> rx;  // rx[i] for node i+1 (first incarnation)
  for (NodeId id = 1; id <= 3; ++id) {
    auto n = main_t->start_node(id);
    ASSERT_TRUE(n.is_ok()) << n.status().to_string();
    nodes[id - 1] = n.value();
    nodes[id - 1]->set_handler(&rx[id - 1]);
  }
  nodes[3] = start_node_retry(victim_t, 4);
  ASSERT_NE(nodes[3], nullptr);
  nodes[3]->set_handler(&rx[3]);

  std::atomic<bool> stop{false};

  // Each sender thread is an independent ordered stream: per-thread sequence
  // counters plus a unique stream id in bytes 4-8 of every kTestPing payload.
  auto sender_fn = [&](TcpNode* self_node, NodeId self, uint32_t stream) {
    Rng rng(stream * 7919 + 1);
    std::array<uint32_t, kNodes + 1> next_seq{};
    while (!stop.load()) {
      for (NodeId to = 1; to <= kNodes; ++to) {
        if (to == self) continue;
        uint64_t pick = rng.next_u64() % 100;
        if (pick < 10) {
          // 1-byte noise frame (covers the minimum frame size).
          self_node->send(to, MsgType::kTestPong, Bytes{0x01});
          continue;
        }
        size_t len;
        if (pick < 90) {
          len = 8 + rng.next_u64() % 4096;  // small frames dominate
        } else if (pick < 99) {
          len = 8 + rng.next_u64() % (64 * 1024);
        } else {
          len = 1 << 20;  // occasional 1 MiB frame -> kill lands mid-frame
        }
        Bytes payload(len);
        uint32_t s = next_seq[to]++;
        std::memcpy(payload.data(), &s, 4);
        std::memcpy(payload.data() + 4, &stream, 4);
        self_node->send(to, MsgType::kTestPing, std::move(payload));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(kTsanBuild ? 3000 : 200));
    }
  };

  // Sender threads only for nodes 1-3; node 4's own senders spawn after the
  // restart, bound to the incarnation that is actually alive.
  std::vector<std::thread> senders;
  // An early ASSERT return must still stop and join the senders (a joinable
  // std::thread destructor terminates the process).
  struct SenderJoiner {
    std::atomic<bool>& stop;
    std::vector<std::thread>& ts;
    ~SenderJoiner() {
      stop = true;
      for (auto& t : ts) {
        if (t.joinable()) t.join();
      }
    }
  } sender_joiner{stop, senders};
  for (NodeId id = 1; id <= 3; ++id) {
    for (uint32_t k = 0; k < 2; ++k) {  // two concurrent sender threads per node
      senders.emplace_back(sender_fn, nodes[id - 1], id, id * 100 + k);
    }
  }

  // Let traffic flow, then kill node 4 mid-stream.
  const int wait_ms = kTsanBuild ? 60000 : 10000;
  ASSERT_TRUE(rx[0].wait_frames_from(2, 50, wait_ms));
  ASSERT_TRUE(rx[3].wait_frames_from(1, 50, wait_ms));
  victim_t.reset();  // node 4 gone; peers see RST, back off, requeue

  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Restart node 4 on the same port; senders reconnect automatically.
  auto victim2_t = std::make_unique<TcpTransport>(addrs);
  SeqCollector rx4b;
  TcpNode* node4b = start_node_retry(victim2_t, 4);
  ASSERT_NE(node4b, nullptr);
  node4b->set_handler(&rx4b);
  for (uint32_t k = 0; k < 2; ++k) {
    senders.emplace_back(sender_fn, node4b, 4, 400 + k);
  }

  // Fresh frames from every healthy sender must reach the restarted node
  // (reconnect backoff caps at 500 ms).
  for (NodeId from = 1; from <= 3; ++from) {
    EXPECT_TRUE(rx4b.wait_frames_from(from, 20, kTsanBuild ? 90000 : 15000))
        << "no traffic from node " << from << " after restart";
  }

  stop = true;
  for (auto& t : senders) t.join();

  // No frame reordering per (sender, receiver-incarnation) pair anywhere.
  for (int i = 0; i < kNodes; ++i) {
    std::lock_guard<std::mutex> lk(rx[i].mu);
    EXPECT_EQ(rx[i].reorders, 0u) << "reordered frames at node " << i + 1;
  }
  {
    std::lock_guard<std::mutex> lk(rx4b.mu);
    EXPECT_EQ(rx4b.reorders, 0u) << "reordered frames at restarted node 4";
    EXPECT_GT(rx4b.noise + rx4b.frames_from[1], 0u);
  }
  // Cross-node sanity: healthy pairs moved plenty of traffic.
  {
    std::lock_guard<std::mutex> lk(rx[1].mu);
    EXPECT_GT(rx[1].frames_from[1], 50u);
    EXPECT_GT(rx[1].frames_from[3], 50u);
  }
  // Clean shutdown with senders stopped but queues plausibly non-empty.
  main_t.reset();
  victim2_t.reset();
}

}  // namespace
}  // namespace rspaxos::net
