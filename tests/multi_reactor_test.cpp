// Multi-reactor NodeHost invariants, over both substrates:
//  - placement: group g lives on reactor g % R, each reactor with its own
//    event loop (TCP: own listen port + I/O thread + FileWal);
//  - isolation: a stalled reactor must not stop groups on other reactors
//    from committing (the whole point of sharding the host);
//  - recovery: a whole-machine restart replays every reactor's WAL and
//    brings back every group, wherever it was placed.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <string>
#include <thread>

#include "kv/client.h"
#include "kv/cluster.h"
#include "node/tcp_cluster.h"

namespace rspaxos {
namespace {

template <typename Pred>
bool poll_until(Pred done, int timeout_ms = 60000) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return done();
}

/// The i-th key routed to shard `group` of `num_groups` under the current
/// hash contract.
std::string key_in_group(uint32_t group, uint32_t num_groups, int i) {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "mr/" + std::to_string(n);
    if (kv::shard_of(key, num_groups) == group && found++ == i) return key;
  }
}

Bytes value_for(int i) { return Bytes(512, static_cast<uint8_t>('a' + (i % 26))); }

/// Client bound to a TcpCluster, with promise-bridged put/get like the other
/// TCP suites use.
struct TcpClient {
  net::TcpNode* cnode = nullptr;
  std::unique_ptr<kv::KvClient> client;

  void start(node::TcpCluster& cluster, DurationMicros request_timeout) {
    auto cn = cluster.start_client();
    ASSERT_TRUE(cn.is_ok()) << cn.status().to_string();
    cnode = cn.value();
    kv::KvClient::Options copts;
    copts.request_timeout = request_timeout;
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

  Status put(const std::string& key, Bytes value, int timeout_s = 30) {
    auto fut = put_async(key, std::move(value));
    if (fut.wait_for(std::chrono::seconds(timeout_s)) != std::future_status::ready) {
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

void wait_for_leaders(node::TcpCluster& cluster, uint32_t groups) {
  ASSERT_TRUE(poll_until([&] {
    for (uint32_t g = 0; g < groups; ++g) {
      if (cluster.leader_server_of(g) < 0) return false;
    }
    return true;
  })) << "not every group elected a leader";
}

// (a) Placement + isolation: with two reactors, group 1's reactor on the
// leader machine is put to sleep; group 0 (other reactor, same machine) must
// keep committing for the whole stall, and group 1's write completes only
// once its reactor wakes.
TEST(MultiReactor, GroupsOnHealthyReactorsProgressWhileOneReactorStalls) {
  constexpr int kServers = 3;
  constexpr uint32_t kGroups = 2;
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_mr_stall_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  node::TcpClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = kGroups;
  opts.reactors = 2;
  opts.f = 1;
  opts.rs_mode = false;  // 3 servers: classic majority quorums
  opts.data_dir = dir.string();
  opts.spread_leaders = false;  // bootstrap both groups toward one machine
  opts.replica.heartbeat_interval = 50 * kMillis;
  // Elections must NOT fire during the deliberate stall below, or the test
  // would measure failover instead of reactor isolation.
  opts.replica.election_timeout_min = 12000 * kMillis;
  opts.replica.election_timeout_max = 16000 * kMillis;
  opts.replica.lease_duration = 10000 * kMillis;

  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  auto cluster = std::move(started).value();

  // Structural placement contract: R loops per machine, group g on loop g % R.
  EXPECT_EQ(cluster->reactors(), 2);
  for (int s = 0; s < kServers; ++s) {
    ASSERT_NE(cluster->endpoint(s, 0), nullptr);
    ASSERT_NE(cluster->endpoint(s, 1), nullptr);
    EXPECT_NE(&cluster->endpoint(s, 0)->loop(), &cluster->endpoint(s, 1)->loop())
        << "server " << s << ": reactors must not share a loop";
    EXPECT_EQ(cluster->host(s).num_reactors(), 2u);
    EXPECT_EQ(cluster->host(s).reactor_of(0), 0u);
    EXPECT_EQ(cluster->host(s).reactor_of(1), 1u);
    // One multiplexed log per reactor, each covering its own group only.
    EXPECT_EQ(cluster->wal(s, 0).num_groups(), 1u);
    EXPECT_EQ(cluster->wal(s, 1).num_groups(), 1u);
  }

  wait_for_leaders(*cluster, kGroups);
  // Bootstrap points both groups at server 0, but that is a hint, not a
  // guarantee (a lost early prepare can hand a group to another server's
  // retry campaign). Stall whichever machine actually leads group 1.
  int lead1 = cluster->leader_server_of(1);
  ASSERT_GE(lead1, 0);

  TcpClient c;
  c.start(*cluster, 2000 * kMillis);
  if (HasFatalFailure()) return;
  ASSERT_TRUE(c.put(key_in_group(0, kGroups, 0), value_for(0)).is_ok());
  ASSERT_TRUE(c.put(key_in_group(1, kGroups, 0), value_for(0)).is_ok());

  // Stall group 1's reactor on the leader machine: a task that sleeps on the
  // loop models a reactor wedged by slow work (the exact failure one loop
  // per machine used to spread to every group).
  constexpr auto kStall = std::chrono::milliseconds(4000);
  auto stall_started = std::make_shared<std::promise<void>>();
  auto started_fut = stall_started->get_future();
  cluster->endpoint(lead1, 1)->loop().post([stall_started, kStall] {
    stall_started->set_value();
    std::this_thread::sleep_for(kStall);
  });
  ASSERT_EQ(started_fut.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  auto t0 = std::chrono::steady_clock::now();

  // Group 1's write cannot commit while its leader reactor sleeps.
  auto stalled_put = c.put_async(key_in_group(1, kGroups, 1), value_for(1));

  // Group 0 (reactor 0, same machine) commits throughout the stall.
  int committed_during_stall = 0;
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(c.put(key_in_group(0, kGroups, i), value_for(i)).is_ok())
        << "healthy-reactor put " << i << " failed mid-stall";
    if (std::chrono::steady_clock::now() - t0 < kStall) committed_during_stall++;
  }
  EXPECT_GT(committed_during_stall, 0)
      << "no healthy-reactor commit landed inside the stall window — the "
         "stall did not overlap the writes, so the test proved nothing";
  // While inside the stall window, the stalled group's put must still be
  // pending (its only leader is asleep and elections are off).
  if (std::chrono::steady_clock::now() - t0 < kStall - std::chrono::seconds(1)) {
    EXPECT_EQ(stalled_put.wait_for(std::chrono::seconds(0)),
              std::future_status::timeout)
        << "group 1 committed while its reactor was asleep";
  }

  // Once the reactor wakes, the queued write completes.
  ASSERT_EQ(stalled_put.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_TRUE(stalled_put.get().is_ok());
  auto got = c.get(key_in_group(1, kGroups, 1));
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), value_for(1));

  cluster.reset();
  c.client.reset();
  std::filesystem::remove_all(dir);
}

// (b) Whole-machine restart: every group recovers from its reactor's WAL,
// wherever placement put it (G=4 over R=2: two groups per log, two logs per
// machine, `wal` and `wal.r1` files).
TEST(MultiReactor, WholeMachineRestartRecoversEveryGroupAcrossReactorWals) {
  constexpr int kServers = 3;
  constexpr uint32_t kGroups = 4;
  constexpr int kKeysPerGroup = 3;
  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_mr_restart_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);

  node::TcpClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = kGroups;
  opts.reactors = 2;
  opts.f = 1;
  opts.rs_mode = false;
  opts.data_dir = dir.string();
  opts.replica.heartbeat_interval = 30 * kMillis;
  opts.replica.election_timeout_min = 300 * kMillis;
  opts.replica.election_timeout_max = 600 * kMillis;
  opts.replica.lease_duration = 250 * kMillis;

  {
    auto started = node::TcpCluster::start(opts);
    ASSERT_TRUE(started.is_ok()) << started.status().to_string();
    auto cluster = std::move(started).value();
    wait_for_leaders(*cluster, kGroups);
    TcpClient c;
    c.start(*cluster, 2000 * kMillis);
    if (HasFatalFailure()) return;
    for (uint32_t g = 0; g < kGroups; ++g) {
      for (int i = 0; i < kKeysPerGroup; ++i) {
        ASSERT_TRUE(c.put(key_in_group(g, kGroups, i), value_for(i)).is_ok())
            << "group " << g << " key " << i;
      }
    }
    // Both reactor logs on every machine saw traffic (groups 0,2 vs 1,3).
    for (int s = 0; s < kServers; ++s) {
      EXPECT_GT(cluster->wal(s, 0).bytes_flushed(), 0u) << "s" << s;
      EXPECT_GT(cluster->wal(s, 1).bytes_flushed(), 0u) << "s" << s;
    }
    cluster.reset();  // clean whole-cluster shutdown, WAL files remain
    c.client.reset();
  }

  // Same data_dir, same reactor count: every group must come back from the
  // per-reactor logs with all its data.
  auto restarted = node::TcpCluster::start(opts);
  ASSERT_TRUE(restarted.is_ok()) << restarted.status().to_string();
  auto cluster = std::move(restarted).value();
  wait_for_leaders(*cluster, kGroups);
  TcpClient c;
  c.start(*cluster, 2000 * kMillis);
  if (HasFatalFailure()) return;
  for (uint32_t g = 0; g < kGroups; ++g) {
    for (int i = 0; i < kKeysPerGroup; ++i) {
      auto got = c.get(key_in_group(g, kGroups, i));
      ASSERT_TRUE(got.is_ok())
          << "group " << g << " key " << i << ": " << got.status().to_string();
      EXPECT_EQ(got.value(), value_for(i)) << "group " << g << " key " << i;
    }
    // And the recovered group keeps accepting writes.
    ASSERT_TRUE(
        c.put(key_in_group(g, kGroups, kKeysPerGroup), value_for(99)).is_ok())
        << "group " << g << " rejected writes after restart";
  }

  cluster.reset();
  c.client.reset();
  std::filesystem::remove_all(dir);
}

// Machine crash + rejoin in the sim: un-synced records on EVERY reactor log
// of the crashed machine are lost, yet all groups recover and the machine
// catches back up (placement-independent recovery, deterministic clock).
TEST(MultiReactor, SimCrashedMachineRejoinsWithAllReactorLogs) {
  constexpr int kServers = 3;
  constexpr int kGroups = 4;
  sim::SimWorld world(91);
  kv::SimClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = kGroups;
  opts.reactors = 2;
  opts.rs_mode = false;
  opts.spread_leaders = false;  // server 0 leads everything; crash server 1
  kv::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();
  auto client = cluster.make_client(0);

  auto put = [&](const std::string& key, Bytes value) {
    bool done = false;
    Status st = Status::ok();
    client->put(key, std::move(value), [&](Status s) {
      st = s;
      done = true;
    });
    TimeMicros deadline = world.now() + 60 * kSeconds;
    while (!done && world.now() < deadline) world.run_for(5 * kMillis);
    EXPECT_TRUE(done);
    return st;
  };

  for (int g = 0; g < kGroups; ++g) {
    ASSERT_TRUE(
        put(key_in_group(static_cast<uint32_t>(g), kGroups, 0), value_for(g)).is_ok());
  }

  cluster.crash_server(1);
  // The quorum of the two live servers keeps every group writable.
  for (int g = 0; g < kGroups; ++g) {
    ASSERT_TRUE(
        put(key_in_group(static_cast<uint32_t>(g), kGroups, 1), value_for(g)).is_ok())
        << "group " << g << " lost availability after one crash";
  }

  cluster.restart_server(1);
  world.run_for(2 * kSeconds);
  for (int g = 0; g < kGroups; ++g) {
    ASSERT_TRUE(
        put(key_in_group(static_cast<uint32_t>(g), kGroups, 2), value_for(g)).is_ok());
  }
  // The rejoined machine's replicas catch up in every group: its commit
  // index reaches the leader's.
  TimeMicros deadline = world.now() + 60 * kSeconds;
  auto caught_up = [&] {
    for (int g = 0; g < kGroups; ++g) {
      auto* leader = cluster.server(0, g);
      auto* rejoined = cluster.server(1, g);
      if (leader == nullptr || rejoined == nullptr) return false;
      if (rejoined->replica().commit_index() < leader->replica().commit_index()) {
        return false;
      }
    }
    return true;
  };
  while (!caught_up() && world.now() < deadline) world.run_for(10 * kMillis);
  EXPECT_TRUE(caught_up()) << "rejoined machine never caught up on every group";
}

}  // namespace
}  // namespace rspaxos
