// Multi-group node host over the real stack: one TcpCluster machine = one
// listen port + one I/O thread (TcpHost), one fsync'ing FileWal and one
// snapshot root, serving a replica of every Paxos group. Exercises the
// frame-envelope group demux end to end, the shared log's per-group
// truncation (one group checkpoints and compacts while another keeps
// committing through the same file), a whole-machine restart from that one
// log, and a wedged machine loop: the groups it follows keep committing on
// the other machines while its watchdog reports the stall.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kv/client.h"
#include "node/tcp_cluster.h"

namespace rspaxos {
namespace {

constexpr int kServers = 5;
constexpr uint32_t kGroups = 4;

template <typename Pred>
bool poll_until(Pred done, int timeout_ms = 60000) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return done();
}

/// The i-th key routed to shard `group` of `groups` under the current hash
/// contract.
std::string key_in_group(uint32_t group, int i, uint32_t groups = kGroups) {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "mg/" + std::to_string(n);
    if (kv::shard_of(key, groups) == group && found++ == i) return key;
  }
}

Bytes value_for(int i) { return Bytes(1024, static_cast<uint8_t>('a' + (i % 26))); }

void wait_for_leaders(node::TcpCluster& cluster, uint32_t groups) {
  ASSERT_TRUE(poll_until([&] {
    for (uint32_t g = 0; g < groups; ++g) {
      if (cluster.leader_server_of(g) < 0) return false;
    }
    return true;
  })) << "not every group elected a leader";
}

/// Client bound to a TcpCluster, with promise-bridged put/get.
struct TcpClient {
  net::TcpNode* cnode = nullptr;
  std::unique_ptr<kv::KvClient> client;

  void start(node::TcpCluster& cluster) {
    auto cn = cluster.start_client();
    ASSERT_TRUE(cn.is_ok()) << cn.status().to_string();
    cnode = cn.value();
    kv::KvClient::Options copts;
    copts.request_timeout = 2000 * kMillis;
    copts.max_attempts = 1000;
    client = std::make_unique<kv::KvClient>(cnode, cluster.routing(), copts);
    cnode->loop().post([this] { cnode->set_handler(client.get()); });
  }

  /// Fire-and-collect put: returns the future, does not wait.
  std::future<Status> put_async(const std::string& key, Bytes value) {
    auto done = std::make_shared<std::promise<Status>>();
    auto fut = done->get_future();
    cnode->loop().post([this, key, value = std::move(value), done]() mutable {
      client->put(key, std::move(value), [done](Status s) { done->set_value(s); });
    });
    return fut;
  }

  Status put(const std::string& key, Bytes value) {
    auto fut = put_async(key, std::move(value));
    if (fut.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      return Status::timeout("put " + key);
    }
    return fut.get();
  }

  StatusOr<Bytes> get(const std::string& key) {
    auto done = std::make_shared<std::promise<StatusOr<Bytes>>>();
    auto fut = done->get_future();
    cnode->loop().post([this, key, done] {
      client->get(key, [done](StatusOr<Bytes> r) { done->set_value(std::move(r)); });
    });
    if (fut.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      return Status::timeout("get " + key);
    }
    return fut.get();
  }
};

/// GET `path` from 127.0.0.1:port; returns (HTTP status, body), status -1
/// when no valid reply came back.
std::pair<int, std::string> http_get(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {-1, ""};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    std::string req = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) == static_cast<ssize_t>(req.size())) {
      char buf[4096];
      for (ssize_t n; (n = ::read(fd, buf, sizeof(buf))) > 0;) {
        raw.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  size_t blank = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || blank == std::string::npos) return {-1, raw};
  return {std::stoi(raw.substr(9, 3)), raw.substr(blank + 4)};
}

/// Three machines of classic majority Paxos with elections slow enough that
/// none fires inside a test's deliberate stall.
node::TcpClusterOptions three_machines(const std::filesystem::path& dir, uint32_t groups) {
  node::TcpClusterOptions opts;
  opts.num_servers = 3;
  opts.num_groups = groups;
  opts.f = 1;
  opts.rs_mode = false;
  opts.data_dir = dir.string();
  opts.replica.heartbeat_interval = 30 * kMillis;
  opts.replica.election_timeout_min = 300 * kMillis;
  opts.replica.election_timeout_max = 600 * kMillis;
  opts.replica.lease_duration = 250 * kMillis;
  return opts;
}

TEST(MultiGroupTcp, OneHostPerServerServesAllGroupsThroughSharedWal) {
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_mg_tcp_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  node::TcpClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = kGroups;
  opts.f = 1;  // theta(3,5) per group
  opts.data_dir = dir.string();
  opts.replica.heartbeat_interval = 30 * kMillis;
  opts.replica.election_timeout_min = 300 * kMillis;
  opts.replica.election_timeout_max = 600 * kMillis;
  opts.replica.lease_duration = 250 * kMillis;
  opts.replica.checkpoint_interval_slots = 16;

  TcpClient c;  // declared first: destroyed after the cluster joins its loop
  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();

  // The tentpole resource contract: per server exactly one event loop /
  // I/O thread (every group endpoint shares it), one multiplexed WAL, one
  // snapshot root with a slot per group.
  for (int s = 0; s < kServers; ++s) {
    ASSERT_NE(cluster->endpoint(s, 0), nullptr);
    for (uint32_t g = 1; g < kGroups; ++g) {
      ASSERT_NE(cluster->endpoint(s, g), nullptr);
      EXPECT_EQ(&cluster->endpoint(s, g)->loop(), &cluster->endpoint(s, 0)->loop())
          << "server " << s << " group " << g << " must share the host loop";
    }
    EXPECT_EQ(cluster->wal(s).num_groups(), kGroups);
    EXPECT_EQ(cluster->snap_store(s).num_groups(), kGroups);
    EXPECT_EQ(cluster->host(s).num_groups(), kGroups);
  }

  wait_for_leaders(*cluster, kGroups);
  c.start(*cluster);
  if (HasFatalFailure()) return;

  // Drive one group past its checkpoint interval while a second group's
  // commits interleave through the same five log files.
  const uint32_t kHot = 0, kCold = 1;
  const int kHotKeys = 40;
  int cold_written = 0;
  for (int i = 0; i < kHotKeys; ++i) {
    ASSERT_TRUE(c.put(key_in_group(kHot, i), value_for(i)).is_ok()) << "hot " << i;
    if (i % 8 == 7) {
      ASSERT_TRUE(c.put(key_in_group(kCold, cold_written), value_for(cold_written)).is_ok());
      cold_written++;
    }
  }

  // Every server's hot-group view compacts (FileWal counters are atomics,
  // safe to poll from here); the cold group shares the same file but never
  // checkpointed, so its view must reclaim nothing.
  ASSERT_TRUE(poll_until([&] {
    for (int s = 0; s < kServers; ++s) {
      if (cluster->wal(s).group_truncated_bytes(kHot) == 0) return false;
    }
    return true;
  })) << "hot group never compacted on every server";
  for (int s = 0; s < kServers; ++s) {
    EXPECT_EQ(cluster->wal(s).group_truncated_bytes(kCold), 0u) << "server " << s;
    // The hot group's fragment landed in the server's per-group snapshot slot.
    EXPECT_GT(cluster->snap_store(s).group(kHot)->stored_bytes(), 0u) << "server " << s;
  }

  // The cold group keeps committing after its neighbor truncated the log
  // they share.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(c.put(key_in_group(kCold, cold_written), value_for(cold_written)).is_ok());
    cold_written++;
  }
  for (int i : {0, 7, 19, kHotKeys - 1}) {
    auto got = c.get(key_in_group(kHot, i));
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i));
  }
  for (int i = 0; i < cold_written; ++i) {
    auto got = c.get(key_in_group(kCold, i));
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i));
  }

  // Flush amortization across shards: both groups' records went through one
  // group-commit stream, so the machine's fsync count is far below one per
  // committed record.
  uint64_t flushes = 0, records = 0;
  for (int s = 0; s < kServers; ++s) {
    flushes += cluster->wal(s).flush_ops();
    records += cluster->wal(s).bytes_flushed() > 0 ? 1 : 0;
  }
  EXPECT_GT(flushes, 0u);
  EXPECT_EQ(records, static_cast<uint64_t>(kServers));

  cluster.reset();  // joins I/O threads before the WAL files are removed
  std::filesystem::remove_all(dir);
}

// Whole-machine restart: every group recovers from the one log per machine
// (G=4 over `<data_dir>/s<k>/wal`), with all its data, and keeps accepting
// writes.
TEST(MultiGroupTcp, WholeMachineRestartRecoversEveryGroupFromOneLog) {
  constexpr int kKeysPerGroup = 3;
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_mg_restart_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  node::TcpClusterOptions opts = three_machines(dir, kGroups);

  {
    TcpClient c;  // declared first: destroyed after the cluster joins its loop
    auto started = node::TcpCluster::start(opts);
    ASSERT_TRUE(started.is_ok()) << started.status().to_string();
    auto cluster = std::move(started).value();
    wait_for_leaders(*cluster, kGroups);
    c.start(*cluster);
    if (HasFatalFailure()) return;
    for (uint32_t g = 0; g < kGroups; ++g) {
      for (int i = 0; i < kKeysPerGroup; ++i) {
        ASSERT_TRUE(c.put(key_in_group(g, i), value_for(i)).is_ok())
            << "group " << g << " key " << i;
      }
    }
    for (int s = 0; s < opts.num_servers; ++s) {
      EXPECT_EQ(cluster->wal(s).num_groups(), kGroups) << "s" << s;
      EXPECT_GT(cluster->wal(s).bytes_flushed(), 0u) << "s" << s;
    }
  }  // clean whole-cluster shutdown, WAL files remain

  TcpClient c;
  auto restarted = node::TcpCluster::start(opts);
  ASSERT_TRUE(restarted.is_ok()) << restarted.status().to_string();
  auto cluster = std::move(restarted).value();
  wait_for_leaders(*cluster, kGroups);
  c.start(*cluster);
  if (HasFatalFailure()) return;
  for (uint32_t g = 0; g < kGroups; ++g) {
    for (int i = 0; i < kKeysPerGroup; ++i) {
      auto got = c.get(key_in_group(g, i));
      ASSERT_TRUE(got.is_ok())
          << "group " << g << " key " << i << ": " << got.status().to_string();
      EXPECT_EQ(got.value(), value_for(i)) << "group " << g << " key " << i;
    }
    ASSERT_TRUE(c.put(key_in_group(g, kKeysPerGroup), value_for(99)).is_ok())
        << "group " << g << " rejected writes after restart";
  }

  cluster.reset();
  std::filesystem::remove_all(dir);
}

// A wedged machine: one loop serves every group a machine hosts, so a task
// that sleeps on it stalls all of them there. The groups it only follows
// keep committing on the other two machines, its watchdog (NodeHost and
// /healthz) reports the stall while it lasts, and the write of the group it
// leads completes once it wakes.
TEST(MultiGroupTcp, GroupsFollowedByAStalledMachineKeepCommitting) {
  constexpr uint32_t kStallGroups = 3;
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_mg_stall_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  node::TcpClusterOptions opts = three_machines(dir, kStallGroups);
  opts.spread_leaders = true;  // group g's initial leader is server g
  opts.admin = true;
  opts.replica.heartbeat_interval = 50 * kMillis;
  // Elections must NOT fire during the stall below, or the test would
  // measure failover instead of the other machines' independence.
  opts.replica.election_timeout_min = 12000 * kMillis;
  opts.replica.election_timeout_max = 16000 * kMillis;
  opts.replica.lease_duration = 10000 * kMillis;

  TcpClient c;
  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();
  wait_for_leaders(*cluster, kStallGroups);

  // Stall a machine that leads one group and follows another. Spread
  // leaders make every machine one, but a bootstrap campaign can lose a
  // prepare; pick from the leaders actually elected.
  std::vector<int> lead(kStallGroups);
  for (uint32_t g = 0; g < kStallGroups; ++g) lead[g] = cluster->leader_server_of(g);
  int wedged = -1;
  uint32_t led = 0;
  std::vector<uint32_t> followed;
  for (uint32_t g = 0; g < kStallGroups && wedged < 0; ++g) {
    followed.clear();
    for (uint32_t h = 0; h < kStallGroups; ++h) {
      if (lead[h] != lead[g]) followed.push_back(h);
    }
    if (!followed.empty()) {
      wedged = lead[g];
      led = g;
    }
  }
  ASSERT_GE(wedged, 0) << "one machine leads every group";

  c.start(*cluster);
  if (HasFatalFailure()) return;
  for (uint32_t g = 0; g < kStallGroups; ++g) {
    ASSERT_TRUE(c.put(key_in_group(g, 0, kStallGroups), value_for(0)).is_ok()) << g;
  }
  // The watchdog judges only after its first probe landed.
  node::NodeHost& host = cluster->host(wedged);
  ASSERT_TRUE(poll_until([&] { return host.health()->last_probe_us() > 0; }));
  EXPECT_FALSE(host.stalled());

  constexpr auto kStall = std::chrono::milliseconds(4000);
  auto stall_started = std::make_shared<std::promise<void>>();
  auto started_fut = stall_started->get_future();
  cluster->endpoint(wedged, 0)->loop().post([stall_started, kStall] {
    stall_started->set_value();
    std::this_thread::sleep_for(kStall);
  });
  ASSERT_EQ(started_fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  auto t0 = std::chrono::steady_clock::now();
  auto in_stall = [&] { return std::chrono::steady_clock::now() - t0 < kStall; };

  // The led group's write cannot commit while its leader sleeps.
  auto stalled_put = c.put_async(key_in_group(led, 1, kStallGroups), value_for(1));

  // The watchdog sees probes go overdue (probe interval + 1 s) and says so,
  // on the host and over HTTP, while the loop is still asleep.
  ASSERT_TRUE(poll_until([&] { return host.stalled(); }, 3500)) << "stall never reported";
  EXPECT_TRUE(in_stall()) << "stall reported only after the loop woke";
  auto [code, body] = http_get(cluster->admin_port(wedged), "/healthz");
  EXPECT_EQ(code, 503) << body;
  EXPECT_NE(body.find("\"status\":\"stalled\""), std::string::npos) << body;

  int committed_during_stall = 0;
  for (int i = 1; i <= 4; ++i) {
    for (uint32_t g : followed) {
      ASSERT_TRUE(c.put(key_in_group(g, i, kStallGroups), value_for(i)).is_ok())
          << "group " << g << " put " << i << " failed mid-stall";
      if (in_stall()) committed_during_stall++;
    }
  }
  EXPECT_GT(committed_during_stall, 0)
      << "no followed-group commit landed inside the stall window";
  if (std::chrono::steady_clock::now() - t0 < kStall - std::chrono::seconds(1)) {
    EXPECT_EQ(stalled_put.wait_for(std::chrono::seconds(0)), std::future_status::timeout)
        << "the led group committed while its leader was asleep";
  }

  // Once the loop wakes, the queued write completes.
  ASSERT_EQ(stalled_put.wait_for(std::chrono::seconds(30)), std::future_status::ready);
  EXPECT_TRUE(stalled_put.get().is_ok());
  auto got = c.get(key_in_group(led, 1, kStallGroups));
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), value_for(1));

  cluster.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rspaxos
