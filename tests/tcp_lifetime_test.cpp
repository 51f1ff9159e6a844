// Buffer and object lifetimes on the real TCP stack:
//  - teardown with puts in flight: ~TcpCluster must quiesce the FileWal
//    flushers before it frees the transport's nodes, because a flush that
//    completes posts its durability callback onto the node (this once was a
//    heap-use-after-free under ASan);
//  - large values: a value of kv::KvServer::kBatchMaxBytes (64 KiB) commits
//    alone as one θ(3,5) instance, encoded on the proposer's loop into its
//    accept frames. Round-trips such values across a leader change whose
//    successor must recover the old values from shares;
//  - shares evicted behind the horizon come back from the FileWal: a
//    recovery read of an evicted 64 KiB value across a leader transfer.
//  - a stopped follower costs the leader's queue toward it heartbeats only,
//    once suspected; a stalled follower, still connected, is not suspected;
//  - boot: bootstrap leaders campaign only after every peer replica is up,
//    and client ports bind inside the raced-port retry.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "consensus/config.h"
#include "kv/client.h"
#include "net/routing.h"
#include "node/tcp_cluster.h"
#include "obs/transport_metrics.h"

namespace rspaxos {
namespace {

std::filesystem::path fresh_dir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

node::TcpClusterOptions base_options(const std::filesystem::path& dir, int servers) {
  node::TcpClusterOptions opts;
  opts.num_servers = servers;
  opts.rs_mode = true;  // f = 1: θ(1,3) at 3 servers, θ(3,5) at 5
  opts.f = 1;
  opts.data_dir = dir.string();
  opts.spread_leaders = false;
  opts.replica.heartbeat_interval = 30 * kMillis;
  opts.replica.election_timeout_min = 300 * kMillis;
  opts.replica.election_timeout_max = 600 * kMillis;
  opts.replica.lease_duration = 250 * kMillis;
  return opts;
}

template <typename Pred>
bool wait_for(Pred done, std::chrono::seconds max) {
  auto deadline = std::chrono::steady_clock::now() + max;
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return done();
}

/// A KvClient on its own cluster endpoint; every call runs on its loop.
struct Client {
  net::TcpNode* node;
  kv::KvClient client;

  Client(net::TcpNode* n, const kv::RoutingTable& routing, kv::KvClient::Options o)
      : node(n), client(n, routing, o) {
    node->loop().post([this] { node->set_handler(&client); });
  }

  Status put(const std::string& key, Bytes value) {
    std::promise<Status> p;
    auto f = p.get_future();
    node->loop().post([&] {
      client.put(key, std::move(value), [&p](Status s) { p.set_value(s); });
    });
    if (f.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
      return Status::timeout("put never resolved");
    }
    return f.get();
  }

  StatusOr<Bytes> get(const std::string& key) {
    std::promise<StatusOr<Bytes>> p;
    auto f = p.get_future();
    node->loop().post([&] {
      client.get(key, [&p](StatusOr<Bytes> r) { p.set_value(std::move(r)); });
    });
    if (f.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
      return Status::timeout("get never resolved");
    }
    return f.get();
  }

  /// Fails whatever is still pending and detaches, on the client's loop.
  void quiesce() {
    std::promise<void> done;
    auto f = done.get_future();
    node->loop().post([&] {
      client.cancel_all(Status::timeout("test teardown"));
      node->set_handler(nullptr);
      done.set_value();
    });
    f.wait();
  }
};

TEST(TcpLifetime, TeardownWithPutsInFlight) {
  for (int round = 0; round < 3; ++round) {
    auto dir = fresh_dir("teardown");
    node::TcpClusterOptions opts = base_options(dir, 3);
    // A long group-commit window keeps appends staged in every FileWal when
    // the cluster is torn down, so their callbacks race the teardown.
    opts.wal_group_commit_window_us = 20'000;
    auto started = node::TcpCluster::start(opts);
    ASSERT_TRUE(started.is_ok()) << started.status().to_string();
    auto cluster = std::move(started).value();
    ASSERT_TRUE(wait_for([&] { return cluster->leader_server_of(0) >= 0; },
                         std::chrono::seconds(30)));

    auto cnode = cluster->start_client();
    ASSERT_TRUE(cnode.is_ok()) << cnode.status().to_string();
    kv::KvClient::Options copts;
    copts.max_inflight = 64;
    auto c = std::make_unique<Client>(cnode.value(), cluster->routing(), copts);
    std::atomic<int> acked{0};
    cnode.value()->loop().post([&] {
      for (int i = 0; i < 400; ++i) {
        c->client.put("t" + std::to_string(i), Bytes(1024, static_cast<uint8_t>(i)),
                      [&acked](Status s) {
                        if (s.is_ok()) acked.fetch_add(1, std::memory_order_relaxed);
                      });
      }
    });
    // Tear down mid-stream: some puts acked, most still in flight.
    ASSERT_TRUE(wait_for([&] { return acked.load() >= 10; }, std::chrono::seconds(30)));
    c->quiesce();
    cluster.reset();
    c.reset();
    std::filesystem::remove_all(dir);
  }
}

Bytes pattern(int key, int version, size_t len) {
  Bytes v(len);
  for (size_t j = 0; j < len; ++j) {
    v[j] = static_cast<uint8_t>(key * 131 + version * 17 + static_cast<int>(j % 251));
  }
  return v;
}

TEST(TcpLifetime, LargeValuesAcrossLeaderChange) {
  auto dir = fresh_dir("large");
  node::TcpClusterOptions opts = base_options(dir, 5);
  const size_t kLen = kv::KvServer::kBatchMaxBytes;  // 64 KiB: never batched
  constexpr int kKeys = 12;
  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();
  ASSERT_TRUE(wait_for([&] { return cluster->leader_server_of(0) >= 0; },
                       std::chrono::seconds(30)));
  const int first = cluster->leader_server_of(0);

  auto cnode = cluster->start_client();
  ASSERT_TRUE(cnode.is_ok()) << cnode.status().to_string();
  kv::KvClient::Options copts;
  copts.request_timeout = 2000 * kMillis;
  copts.max_attempts = 100;
  Client c(cnode.value(), cluster->routing(), copts);

  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(c.put("big" + std::to_string(i), pattern(i, 0, kLen)).is_ok()) << i;
  }
  for (int i = 0; i < kKeys; ++i) {
    auto got = c.get("big" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), pattern(i, 0, kLen)) << i;
  }

  // Move the leadership: the successor holds only θ(3,5) shares of the
  // values above and must decode them on read.
  const int target = (first + 1) % opts.num_servers;
  cluster->endpoint(first, 0)->loop().post([&cluster, first, target] {
    cluster->server(first, 0)->replica().transfer_leadership(net::endpoint_id(target, 0));
  });
  ASSERT_TRUE(wait_for(
      [&] {
        int l = cluster->leader_server_of(0);
        return l >= 0 && l != first;
      },
      std::chrono::seconds(30)))
      << "leadership never moved";
  const int second = cluster->leader_server_of(0);

  // Overwrite half the keys through the new leader.
  for (int i = 0; i < kKeys; i += 2) {
    ASSERT_TRUE(c.put("big" + std::to_string(i), pattern(i, 1, kLen)).is_ok()) << i;
  }
  for (int i = 0; i < kKeys; ++i) {
    auto got = c.get("big" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), pattern(i, i % 2 == 0 ? 1 : 0, kLen)) << i;
  }
  EXPECT_GE(cluster->server(second, 0)->stats().recovery_reads, 1u)
      << "the new leader never decoded an old value";

  c.quiesce();
  cluster.reset();
  std::filesystem::remove_all(dir);
}

TEST(TcpLifetime, EvictedLargeValueRecoveredFromFileWalAcrossLeaderTransfer) {
  auto dir = fresh_dir("evicted");
  node::TcpClusterOptions opts = base_options(dir, 5);
  opts.replica.payload_cache_slots = 4;
  const size_t kLen = kv::KvServer::kBatchMaxBytes;
  constexpr int kKeys = 4;
  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();
  ASSERT_TRUE(wait_for([&] { return cluster->leader_server_of(0) >= 0; },
                       std::chrono::seconds(30)));
  const int first = cluster->leader_server_of(0);

  auto cnode = cluster->start_client();
  ASSERT_TRUE(cnode.is_ok()) << cnode.status().to_string();
  kv::KvClient::Options copts;
  copts.request_timeout = 2000 * kMillis;
  copts.max_attempts = 100;
  Client c(cnode.value(), cluster->routing(), copts);

  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(c.put("big" + std::to_string(i), pattern(i, 0, kLen)).is_ok()) << i;
  }
  // Push the big values well behind every replica's horizon.
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(c.put("small" + std::to_string(i % 4), pattern(i, 2, 64)).is_ok()) << i;
  }
  auto total = [&](auto field) {
    uint64_t n = 0;
    for (int s = 0; s < opts.num_servers; ++s) {
      n += field(cluster->server(s, 0)->replica().stats());
    }
    return n;
  };
  ASSERT_TRUE(wait_for(
      [&] {
        return total([](const consensus::ReplicaStats& st) { return st.shares_evicted; }) >=
               static_cast<uint64_t>(opts.num_servers * kKeys);
      },
      std::chrono::seconds(30)))
      << "the big values' shares were never evicted";

  const int target = (first + 1) % opts.num_servers;
  cluster->endpoint(first, 0)->loop().post([&cluster, first, target] {
    cluster->server(first, 0)->replica().transfer_leadership(net::endpoint_id(target, 0));
  });
  ASSERT_TRUE(wait_for(
      [&] {
        int l = cluster->leader_server_of(0);
        return l >= 0 && l != first;
      },
      std::chrono::seconds(30)))
      << "leadership never moved";
  const int second = cluster->leader_server_of(0);

  for (int i = 0; i < kKeys; ++i) {
    auto got = c.get("big" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), pattern(i, 0, kLen)) << i;
  }
  EXPECT_GE(cluster->server(second, 0)->stats().recovery_reads, 1u)
      << "the new leader never decoded an old value";
  EXPECT_GT(total([](const consensus::ReplicaStats& st) { return st.share_readbacks; }), 0u)
      << "no evicted share was read back from a WAL";

  c.quiesce();
  cluster.reset();
  std::filesystem::remove_all(dir);
}

// A follower whose machine stopped is suspected once the leader has had no
// heartbeat ack from it for election_timeout_max; from then on the leader
// queues no accept for it, so the transport's outbound queue toward the dead
// host holds heartbeats alone instead of a share of every put.
TEST(TcpLifetime, StoppedFollowerQueuesOnlyHeartbeats) {
  auto dir = fresh_dir("suspect");
  node::TcpClusterOptions opts = base_options(dir, 5);  // θ(3,5): QW = 4
  const size_t kLen = kv::KvServer::kBatchMaxBytes;     // each put commits alone
  constexpr int kPuts = 300;
  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();
  ASSERT_TRUE(wait_for([&] { return cluster->leader_server_of(0) == 0; },
                       std::chrono::seconds(30)));
  auto cnode = cluster->start_client();
  ASSERT_TRUE(cnode.is_ok()) << cnode.status().to_string();
  kv::KvClient::Options copts;
  copts.request_timeout = 5000 * kMillis;
  copts.max_attempts = 100;
  copts.max_inflight = 8;
  Client c(cnode.value(), cluster->routing(), copts);
  ASSERT_TRUE(c.put("warm", pattern(0, 0, kLen)).is_ok());

  const int dead = 4;
  cluster->endpoint(dead, 0)->shutdown();
  net::TcpNode* leader_ep = cluster->endpoint(0, 0);
  consensus::Replica& leader = cluster->server(0, 0)->replica();
  auto suspects = [&] {
    std::promise<std::vector<NodeId>> p;
    leader_ep->loop().post([&] { p.set_value(leader.suspected_peers()); });
    return p.get_future().get();
  };
  ASSERT_TRUE(wait_for(
      [&] { return suspects() == std::vector<NodeId>{net::endpoint_id(dead, 0)}; },
      std::chrono::seconds(30)))
      << "the stopped follower was never suspected";

  // Frames toward the stopped host stay queued: the bytes gauge of that
  // queue is what the dead peer costs the leader.
  obs::Gauge* queued = obs::TcpIoMetrics::queue_bytes_gauge(0, static_cast<NodeId>(dead));
  const int64_t queued0 = queued->value();
  std::atomic<int> acked{0}, failed{0};
  cnode.value()->loop().post([&] {
    for (int i = 0; i < kPuts; ++i) {
      c.client.put("v" + std::to_string(i % 64), pattern(i, 1, kLen), [&](Status s) {
        (s.is_ok() ? acked : failed).fetch_add(1, std::memory_order_relaxed);
      });
    }
  });
  ASSERT_TRUE(wait_for([&] { return acked.load() + failed.load() == kPuts; },
                       std::chrono::seconds(300)));
  EXPECT_EQ(acked.load(), kPuts);
  // The parent design queued one ~22 KiB share per put here (~6.5 MB).
  EXPECT_LT(queued->value() - queued0, 1 << 20)
      << "accepts queued toward a suspected follower; depth "
      << leader_ep->max_peer_queue_depth();
  std::promise<uint64_t> skipped;
  leader_ep->loop().post([&] { skipped.set_value(leader.stats().accepts_skipped); });
  EXPECT_GE(skipped.get_future().get(), static_cast<uint64_t>(kPuts));

  c.quiesce();
  cluster.reset();
  std::filesystem::remove_all(dir);
}

// A follower whose loop stalls past election_timeout_max (as under host CPU
// steal) still holds its connections, so the leader does not route around
// it: no accept is skipped and the follower needs no catch-up afterwards.
// Before, the stall got the follower suspected, the puts meanwhile skipped
// it, and its return cost a catch-up of every skipped slot.
TEST(TcpLifetime, StalledFollowerIsNotRoutedAround) {
  auto dir = fresh_dir("stall");
  node::TcpClusterOptions opts = base_options(dir, 5);  // θ(3,5): QW = 4
  const size_t kLen = kv::KvServer::kBatchMaxBytes;     // each put commits alone
  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();
  ASSERT_TRUE(wait_for([&] { return cluster->leader_server_of(0) == 0; },
                       std::chrono::seconds(30)));
  auto cnode = cluster->start_client();
  ASSERT_TRUE(cnode.is_ok()) << cnode.status().to_string();
  kv::KvClient::Options copts;
  copts.request_timeout = 5000 * kMillis;
  copts.max_attempts = 100;
  Client c(cnode.value(), cluster->routing(), copts);
  ASSERT_TRUE(c.put("warm", pattern(0, 0, kLen)).is_ok());

  const DurationMicros stall = 2 * opts.replica.election_timeout_max;
  std::atomic<bool> stalled{false};
  cluster->endpoint(4, 0)->loop().post([&] {
    stalled.store(true);
    std::this_thread::sleep_for(std::chrono::microseconds(stall));
  });
  ASSERT_TRUE(wait_for([&] { return stalled.load(); }, std::chrono::seconds(10)));
  // Puts through the whole stall: the last ones are proposed after the
  // follower has been silent for longer than election_timeout_max.
  auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(stall);
  int i = 0;
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_TRUE(c.put("s" + std::to_string(i % 16), pattern(i, 1, kLen)).is_ok());
    ++i;
  }
  ASSERT_GT(i, 0);

  net::TcpNode* leader_ep = cluster->endpoint(0, 0);
  consensus::Replica& leader = cluster->server(0, 0)->replica();
  std::promise<consensus::ReplicaStats> stats;
  leader_ep->loop().post([&] { stats.set_value(leader.stats()); });
  consensus::ReplicaStats st = stats.get_future().get();
  EXPECT_EQ(st.accepts_skipped, 0u) << i << " puts during the stall";
  EXPECT_EQ(st.catchup_entries_served, 0u);

  c.quiesce();
  cluster.reset();
  std::filesystem::remove_all(dir);
}

// Every replica's handler is installed before any bootstrap leader campaigns,
// so no boot loses its first prepare: each group elects its bootstrap leader
// in ballot round 1, with one campaign. (Before, about one boot in twenty at
// three servers, and one in ten at five, lost the prepare and elected only
// after an election timeout.) Election timeouts of seconds, not the file's
// 300-600 ms: a campaign round is two fsyncs and a round trip, and on a
// loaded host (fdatasync 200 ms slower) that outlasts a 300 ms timeout, so
// the leader recampaigns at round 2 and 3 although no prepare was lost. A
// lost prepare still costs a second campaign after a timeout.
TEST(TcpLifetime, EveryBootElectsItsBootstrapLeadersAtRoundOne) {
  struct Shape {
    int servers;
    uint32_t groups;
    int boots;
  };
  // One group led by server 0, and three groups spread over three servers,
  // where every server holds a bootstrap leader.
  for (Shape shape : {Shape{3, 1, 20}, Shape{5, 1, 20}, Shape{3, 3, 5}}) {
    for (int boot = 0; boot < shape.boots; ++boot) {
      auto dir = fresh_dir("boot");
      node::TcpClusterOptions opts = base_options(dir, shape.servers);
      opts.replica.election_timeout_min = 3 * kSeconds;
      opts.replica.election_timeout_max = 6 * kSeconds;
      opts.num_groups = shape.groups;
      opts.spread_leaders = true;  // group g bootstraps on server g % servers
      auto started = node::TcpCluster::start(opts);
      ASSERT_TRUE(started.is_ok()) << started.status().to_string();
      auto cluster = std::move(started).value();
      for (uint32_t g = 0; g < shape.groups; ++g) {
        const int s = static_cast<int>(g) % shape.servers;
        const std::string where = std::to_string(shape.servers) + " servers, boot " +
                                  std::to_string(boot) + ", group " + std::to_string(g);
        ASSERT_TRUE(wait_for([&] { return cluster->leader_server_of(g) == s; },
                             std::chrono::seconds(30)))
            << where;
        std::promise<std::pair<uint64_t, uint64_t>> p;
        cluster->endpoint(s, g)->loop().post([&] {
          const consensus::Replica& r = cluster->server(s, g)->replica();
          p.set_value({r.current_ballot().round, r.stats().elections_started});
        });
        auto [round, campaigns] = p.get_future().get();
        EXPECT_EQ(round, 1u) << where;
        EXPECT_EQ(campaigns, 1u) << where;
      }
      cluster.reset();
      std::filesystem::remove_all(dir);
    }
  }
}

// Client endpoints bind at start() inside the same raced-port retry as the
// servers: a port taken between reservation and bind costs a retry with
// fresh ports, never a failed start_client().
TEST(TcpLifetime, RacedClientPortIsRetriedAtBoot) {
  int taken_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(taken_fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(taken_fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ASSERT_EQ(::listen(taken_fd, 1), 0);
  socklen_t len = sizeof(sa);
  ::getsockname(taken_fd, reinterpret_cast<sockaddr*>(&sa), &len);
  const uint16_t taken = ntohs(sa.sin_port);

  int picks = 0;
  std::vector<uint16_t> bound;
  node::TcpCluster::set_port_source_for_test([&](size_t n) {
    auto ports = net::TcpTransport::free_ports(n);
    if (picks++ == 0) ports.back() = taken;  // the client's reservation, raced
    bound = ports;
    return ports;
  });
  auto dir = fresh_dir("raced_client");
  auto started = node::TcpCluster::start(base_options(dir, 3));
  node::TcpCluster::set_port_source_for_test(nullptr);
  ::close(taken_fd);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();
  EXPECT_EQ(picks, 2);

  // The retry's client port is bound before start_client() hands it out.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sa.sin_port = htons(bound.back());
  EXPECT_NE(::bind(probe, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  ::close(probe);

  ASSERT_TRUE(wait_for([&] { return cluster->leader_server_of(0) >= 0; },
                       std::chrono::seconds(30)));
  auto cnode = cluster->start_client();
  ASSERT_TRUE(cnode.is_ok()) << cnode.status().to_string();
  Client c(cnode.value(), cluster->routing(), kv::KvClient::Options{});
  EXPECT_TRUE(c.put("k", Bytes(16, 1)).is_ok());
  c.quiesce();
  cluster.reset();
  std::filesystem::remove_all(dir);
}

// A geometry the requested code cannot serve is refused up front, never run
// as a different code: lrc at θ(3,5) fails GroupConfig::validate (its
// any-subset-decodable leaves the read/write quorum intersection short), and
// two servers leave no room for f = 1.
TEST(TcpLifetime, StartRejectsGeometryTheCodeCannotServe) {
  auto dir = fresh_dir("tcp_bad_geometry");
  node::TcpClusterOptions opts = base_options(dir, 5);
  opts.code = ec::CodeId::kLrc;
  std::vector<NodeId> members{0, 1, 2, 3, 4};
  auto cfg = consensus::GroupConfig::rs_max_x(members, 1);
  ASSERT_TRUE(cfg.is_ok());
  cfg.value().code = ec::CodeId::kLrc;
  ASSERT_FALSE(cfg.value().validate().is_ok());
  auto lrc = node::TcpCluster::start(opts);
  ASSERT_FALSE(lrc.is_ok());
  EXPECT_EQ(lrc.status().code(), Code::kInvalidArgument) << lrc.status().to_string();

  node::TcpClusterOptions two = base_options(dir, 2);
  auto small = node::TcpCluster::start(two);
  ASSERT_FALSE(small.is_ok());
  EXPECT_EQ(small.status().code(), Code::kInvalidArgument) << small.status().to_string();
  EXPECT_FALSE(std::filesystem::exists(dir));  // refused before touching disk
}

}  // namespace
}  // namespace rspaxos
