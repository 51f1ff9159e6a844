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
#include <gtest/gtest.h>
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
