// Admin-plane tests over the real stack: a 2-group TcpCluster with the
// introspection endpoints enabled, scraped through actual sockets exactly the
// way an operator's curl / Prometheus would. Covers the live surface
// (/metrics, /status, /healthz, /traces/recent), the HTTP robustness paths
// (malformed request line, wrong method, oversized head, early close) and
// that /status tracks consensus progress (commit indices advance with puts).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kv/client.h"
#include "node/tcp_cluster.h"
#include "obs/trace.h"

namespace rspaxos {
namespace {

constexpr int kServers = 3;
constexpr uint32_t kGroups = 2;

struct HttpReply {
  int status = -1;       // -1: no/invalid status line came back
  std::string body;      // bytes after the blank line
  std::string raw;       // everything read until EOF
};

/// Connects to 127.0.0.1:port, writes `request` verbatim, reads to EOF.
/// `shutdown_early` closes the write half right after (or mid-) request to
/// model an impatient scraper.
HttpReply http_raw(uint16_t port, const std::string& request, bool shutdown_early = false) {
  HttpReply r;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return r;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return r;
  }
  size_t off = 0;
  while (off < request.size()) {
    // MSG_NOSIGNAL: the server legitimately closes mid-request (431 on an
    // oversized head) and a raw write() would raise SIGPIPE.
    ssize_t n = ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  if (shutdown_early) ::shutdown(fd, SHUT_WR);
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    r.raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (r.raw.rfind("HTTP/1.1 ", 0) == 0 && r.raw.size() >= 12) {
    r.status = std::stoi(r.raw.substr(9, 3));
  }
  size_t blank = r.raw.find("\r\n\r\n");
  if (blank != std::string::npos) r.body = r.raw.substr(blank + 4);
  return r;
}

HttpReply http_get(uint16_t port, const std::string& target) {
  return http_raw(port, "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

/// commit_index of group g inside a /status document (-1 when absent).
int64_t commit_index_of(const std::string& status_json, uint32_t g) {
  std::string anchor = "\"group\":" + std::to_string(g) + ",";
  size_t at = status_json.find(anchor);
  if (at == std::string::npos) return -1;
  size_t ci = status_json.find("\"commit_index\":", at);
  if (ci == std::string::npos) return -1;
  return std::stoll(status_json.substr(ci + std::strlen("\"commit_index\":")));
}

/// The i-th key routed to shard `group` under the current hash contract.
std::string key_in_group(uint32_t group, int i) {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "adm/" + std::to_string(n);
    if (kv::shard_of(key, kGroups) == group && found++ == i) return key;
  }
}

struct ClusterFixture {
  std::filesystem::path dir;
  std::unique_ptr<node::TcpCluster> cluster;
  net::TcpNode* cnode = nullptr;
  std::unique_ptr<kv::KvClient> client;
  uint32_t num_shards = 0;  // 0 = one shard per group (the identity default)

  void start() {
    dir = std::filesystem::temp_directory_path() /
          ("rspaxos_admin_http_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    node::TcpClusterOptions opts;
    opts.num_servers = kServers;
    opts.num_groups = kGroups;
    opts.num_shards = num_shards;
    opts.f = 1;
    opts.rs_mode = false;  // 3 servers: classic majority quorums
    opts.data_dir = dir.string();
    opts.admin = true;
    opts.health.probe_interval = 20 * kMillis;  // fast board refresh
    opts.replica.heartbeat_interval = 30 * kMillis;
    opts.replica.election_timeout_min = 300 * kMillis;
    opts.replica.election_timeout_max = 600 * kMillis;
    opts.replica.lease_duration = 250 * kMillis;

    auto started = node::TcpCluster::start(opts);
    ASSERT_TRUE(started.is_ok()) << started.status().to_string();
    cluster = std::move(started).value();

    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
      bool all = true;
      for (uint32_t g = 0; g < kGroups; ++g) {
        if (cluster->leader_server_of(g) < 0) all = false;
      }
      if (all) break;
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no leaders";
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    auto cn = cluster->start_client();
    ASSERT_TRUE(cn.is_ok()) << cn.status().to_string();
    cnode = cn.value();
    kv::KvClient::Options copts;
    copts.request_timeout = 2000 * kMillis;
    client = std::make_unique<kv::KvClient>(cnode, cluster->routing(), copts);
    cnode->loop().post([this] { cnode->set_handler(client.get()); });
  }

  Status put(const std::string& key, Bytes value) {
    std::promise<Status> done;
    auto fut = done.get_future();
    cnode->loop().post([&, key] {
      client->put(key, std::move(value), [&](Status s) { done.set_value(s); });
    });
    if (fut.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
      return Status::timeout("put " + key);
    }
    return fut.get();
  }

  void stop() {
    cluster.reset();  // joins every I/O thread, incl. the client node's loop
    client.reset();   // only then is the handler object safe to destroy
    std::filesystem::remove_all(dir);
  }
};

TEST(AdminHttp, EndpointsServeLiveClusterState) {
  ClusterFixture f;
  f.start();
  if (HasFatalFailure()) return;

  // Every server bound an ephemeral admin port.
  for (int s = 0; s < kServers; ++s) {
    ASSERT_NE(f.cluster->admin_port(s), 0) << "server " << s;
  }
  uint16_t port0 = f.cluster->admin_port(0);

  // /healthz: every server answers and reports ok (fresh cluster, no stall).
  for (int s = 0; s < kServers; ++s) {
    HttpReply h = http_get(f.cluster->admin_port(s), "/healthz");
    EXPECT_EQ(h.status, 200) << "server " << s << ": " << h.raw;
    EXPECT_NE(h.body.find("\"status\":\"ok\""), std::string::npos) << h.body;
    EXPECT_NE(h.body.find("\"loop_lag_us\""), std::string::npos) << h.body;
    EXPECT_NE(h.body.find("\"server\":" + std::to_string(s)), std::string::npos) << h.body;
    EXPECT_EQ(h.body.find("reactor"), std::string::npos) << h.body;
  }

  // Commit indices advance between scrapes as puts land in both groups.
  HttpReply before = http_get(port0, "/status");
  ASSERT_EQ(before.status, 200) << before.raw;
  int64_t before_ci[kGroups];
  for (uint32_t g = 0; g < kGroups; ++g) {
    before_ci[g] = commit_index_of(before.body, g);
    ASSERT_GE(before_ci[g], 0) << "group " << g << " missing from " << before.body;
  }
  for (int i = 0; i < 4; ++i) {
    for (uint32_t g = 0; g < kGroups; ++g) {
      ASSERT_TRUE(f.put(key_in_group(g, i), Bytes(512, static_cast<uint8_t>(i))).is_ok());
    }
  }
  HttpReply after = http_get(port0, "/status");
  ASSERT_EQ(after.status, 200) << after.raw;
  for (uint32_t g = 0; g < kGroups; ++g) {
    EXPECT_GT(commit_index_of(after.body, g), before_ci[g]) << "group " << g;
  }
  EXPECT_NE(after.body.find("\"wal\":{"), std::string::npos);
  EXPECT_NE(after.body.find("\"bytes_flushed\":"), std::string::npos);
  EXPECT_NE(after.body.find("\"resident_share_bytes\":"), std::string::npos) << after.body;
  // Each group lists its leader's suspects: none on a healthy cluster.
  size_t none_suspected = 0;
  for (size_t at = after.body.find("\"suspected\":[]"); at != std::string::npos;
       at = after.body.find("\"suspected\":[]", at + 1)) {
    ++none_suspected;
  }
  EXPECT_EQ(none_suspected, kGroups) << after.body;
  // One machine log and one loop: no per-reactor members and no I/O backend
  // choice to report.
  EXPECT_EQ(after.body.find("io_backend"), std::string::npos) << after.body;
  EXPECT_NE(after.body.find("\"active_segment\":"), std::string::npos) << after.body;
  EXPECT_EQ(after.body.find("reactor"), std::string::npos) << after.body;
  EXPECT_EQ(after.body.find("\"placement\""), std::string::npos) << after.body;
  EXPECT_EQ(after.body.find("\"wals\""), std::string::npos) << after.body;

  // /metrics: Prometheus exposition with per-group labels from one shared
  // process-wide registry.
  HttpReply m = http_get(port0, "/metrics");
  ASSERT_EQ(m.status, 200) << m.raw;
  EXPECT_NE(m.raw.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(m.body.find("# TYPE rsp_"), std::string::npos);
  EXPECT_NE(m.body.find("group=\"0\""), std::string::npos);
  EXPECT_NE(m.body.find("group=\"1\""), std::string::npos);
  EXPECT_NE(m.body.find("rsp_log_resident_share_bytes{"), std::string::npos);
  EXPECT_NE(m.body.find("rsp_consensus_suspected_peers{node=\"0\",group=\"0\"} 0\n"),
            std::string::npos);
  EXPECT_NE(m.body.find("rsp_consensus_accepts_skipped_total{node=\"0\",group=\"0\"} 0\n"),
            std::string::npos);
  // Health series are per server; no series carries a reactor label.
  EXPECT_NE(m.body.find("rsp_health_stalled{server=\"2\"}"), std::string::npos);
  EXPECT_EQ(m.body.find("reactor="), std::string::npos);

  // /traces/recent: JSON document (possibly empty list).
  HttpReply t = http_get(port0, "/traces/recent");
  EXPECT_EQ(t.status, 200);
  EXPECT_EQ(t.body.rfind("{\"traces\":[", 0), 0u) << t.body;

  // ?slow lists the slowest recent trees first. Two synthetic trees, far
  // slower than any real put, start now on the cluster's clock.
  obs::Tracer& tracer = obs::Tracer::global();
  const int64_t now_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count();
  for (auto [slot, dur] : {std::pair<uint64_t, int64_t>{901, 2 * kSeconds * 1000},
                           std::pair<uint64_t, int64_t>{902, 1 * kSeconds * 1000}}) {
    obs::SpanContext root = tracer.begin_trace("client_rpc", 0, now_us);
    tracer.set_slot(root.trace_id, slot);
    tracer.end_span(root, now_us + dur);
  }
  HttpReply slow = http_get(port0, "/traces/recent?slow");
  ASSERT_EQ(slow.status, 200);
  std::vector<int64_t> durations;
  for (size_t at = slow.body.find("\"duration_us\":"); at != std::string::npos;
       at = slow.body.find("\"duration_us\":", at + 1)) {
    durations.push_back(std::stoll(slow.body.substr(at + std::strlen("\"duration_us\":"))));
  }
  ASSERT_GE(durations.size(), 2u) << slow.body;
  EXPECT_TRUE(std::is_sorted(durations.rbegin(), durations.rend())) << slow.body;
  EXPECT_EQ(durations[0], 2 * kSeconds * 1000);
  EXPECT_LT(slow.body.find("\"slot\":901"), slow.body.find("\"slot\":902")) << slow.body;

  EXPECT_EQ(http_get(port0, "/nope").status, 404);

  f.stop();
}

// The resharding surface of the admin plane: /routing serves the machine's
// live RoutingView plus its per-shard write counters, and a completed
// migration shows up in the rsp_reshard_* / rsp_routing_epoch series exactly
// the way the balancer's operator dashboard consumes them.
TEST(AdminHttp, RoutingEndpointAndReshardMetrics) {
  ClusterFixture f;
  f.num_shards = 4;
  f.start();
  if (HasFatalFailure()) return;
  uint16_t port0 = f.cluster->admin_port(0);

  // Epoch-0 identity map on every machine, with per-shard write counters.
  for (int s = 0; s < kServers; ++s) {
    HttpReply r = http_get(f.cluster->admin_port(s), "/routing");
    ASSERT_EQ(r.status, 200) << "server " << s << ": " << r.raw;
    EXPECT_NE(r.body.find("\"server\":" + std::to_string(s)), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"epoch\":0"), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"shards\":[0,1,0,1]"), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"migrations\":[]"), std::string::npos) << r.body;
    EXPECT_NE(r.body.find("\"shard_writes\":[0,0,0,0]"), std::string::npos) << r.body;
  }

  // Find a key in shard 2 (owned by group 0), write it, and migrate the
  // shard to group 1.
  std::string key;
  for (int n = 0; key.empty(); ++n) {
    std::string probe = "route/" + std::to_string(n);
    if (kv::shard_of(probe, 4) == 2) key = probe;
  }
  ASSERT_TRUE(f.put(key, Bytes(256, 0x5a)).is_ok());
  int src = f.cluster->leader_server_of(0);
  ASSERT_GE(src, 0);
  kv::KvServer* srv = f.cluster->server(src, 0);
  f.cluster->endpoint(src, 0)->loop().post([srv] { srv->start_migration(2, 1); });

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  auto flipped = [&] {
    HttpReply r = http_get(port0, "/routing");
    return r.status == 200 &&
           r.body.find("\"shards\":[0,1,1,1]") != std::string::npos &&
           r.body.find("\"migrations\":[]") != std::string::npos;
  };
  while (!flipped() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(flipped()) << http_get(port0, "/routing").body;

  // The write counters moved off zero on the machines that applied the put.
  bool counted = false;
  for (int s = 0; s < kServers && !counted; ++s) {
    HttpReply r = http_get(f.cluster->admin_port(s), "/routing");
    counted = r.status == 200 &&
              r.body.find("\"shard_writes\":[0,0,0,0]") == std::string::npos;
  }
  EXPECT_TRUE(counted) << "no machine counted the shard-2 write";

  // Metrics: one completed migration, a non-zero moved-bytes total, and the
  // epoch gauge at the flip value (prepare + flip = 2) on the source leader.
  HttpReply m = http_get(f.cluster->admin_port(src), "/metrics");
  ASSERT_EQ(m.status, 200) << m.raw;
  size_t ok_at = m.body.find("rsp_reshard_migrations_total{");
  ASSERT_NE(ok_at, std::string::npos) << m.body.substr(0, 2048);
  EXPECT_NE(m.body.find("result=\"ok\""), std::string::npos);
  size_t moved_at = m.body.find("rsp_reshard_moved_bytes_total{");
  ASSERT_NE(moved_at, std::string::npos);
  // The series' sample value follows the label block on the same line.
  size_t line_end = m.body.find('\n', moved_at);
  std::string line = m.body.substr(moved_at, line_end - moved_at);
  double moved = std::stod(line.substr(line.rfind(' ') + 1));
  EXPECT_GT(moved, 0.0) << line;
  size_t epoch_at = m.body.find("rsp_routing_epoch{");
  ASSERT_NE(epoch_at, std::string::npos);
  line_end = m.body.find('\n', epoch_at);
  line = m.body.substr(epoch_at, line_end - epoch_at);
  EXPECT_GE(std::stod(line.substr(line.rfind(' ') + 1)), 2.0) << line;

  f.stop();
}

TEST(AdminHttp, SurvivesMalformedAndImpatientClients) {
  ClusterFixture f;
  f.start();
  if (HasFatalFailure()) return;
  uint16_t port = f.cluster->admin_port(0);

  EXPECT_EQ(http_raw(port, "BOGUS\r\n\r\n").status, 400);
  EXPECT_EQ(http_raw(port, "POST /metrics HTTP/1.1\r\n\r\n").status, 405);
  // An 8KiB+ request head is rejected, not buffered forever. The close may
  // race our remaining bytes into an RST that eats the reply, so accept
  // either the 431 or a dropped connection — the liveness probes below are
  // what prove the server survived.
  std::string huge = "GET /metrics HTTP/1.1\r\nX-Junk: " + std::string(16 * 1024, 'j');
  HttpReply big = http_raw(port, huge);
  EXPECT_TRUE(big.status == 431 || big.raw.empty()) << big.raw;
  // Half a request line then FIN: the server must just drop the connection.
  HttpReply early = http_raw(port, "GET /metr", /*shutdown_early=*/true);
  EXPECT_EQ(early.raw, "");
  // And stay alive for well-formed scrapes afterwards.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(http_get(port, "/healthz").status, 200) << "round " << i;
  }

  f.stop();
}

}  // namespace
}  // namespace rspaxos
