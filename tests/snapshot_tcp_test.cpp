// InstallSnapshot over the real stack: five replicas on actual TCP sockets
// with fsync'ing file WALs and file snapshot stores. Four replicas run a
// workload past several checkpoints (compacting their WALs); the fifth starts
// from nothing afterwards — its gap predates every peer's log start, so the
// only way home is reconstructing the erasure-coded checkpoint from X peer
// fragments, then replaying the surviving log suffix.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <thread>

#include "consensus/config.h"
#include "kv/client.h"
#include "kv/server.h"
#include "net/tcp_transport.h"
#include "snapshot/snapshot_store.h"
#include "storage/file_wal.h"

namespace rspaxos {
namespace {

constexpr int kReplicas = 5;
constexpr NodeId kClientId = 100;

// Runs `fn` on the node's event loop and returns its result: replica state
// may only be touched from the loop thread.
template <typename Fn>
auto on_loop(net::TcpNode* node, Fn fn) -> decltype(fn()) {
  std::promise<decltype(fn())> p;
  auto fut = p.get_future();
  node->loop().post([&] { p.set_value(fn()); });
  return fut.get();
}

template <typename Pred>
bool poll_until(Pred done, int timeout_ms = 30000) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return done();
}

TEST(SnapshotTcp, LateReplicaConvergesViaInstallSnapshot) {
  auto ports = net::TcpTransport::free_ports(kReplicas + 1);
  ASSERT_EQ(ports.size(), static_cast<size_t>(kReplicas + 1));
  std::map<NodeId, net::PeerAddr> addrs;
  for (int i = 0; i < kReplicas; ++i) {
    addrs[static_cast<NodeId>(i + 1)] =
        net::PeerAddr{"127.0.0.1", ports[static_cast<size_t>(i)]};
  }
  addrs[kClientId] = net::PeerAddr{"127.0.0.1", ports[kReplicas]};

  auto dir = std::filesystem::temp_directory_path() /
             ("rspaxos_snap_tcp_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  std::vector<NodeId> members;
  for (int i = 1; i <= kReplicas; ++i) members.push_back(static_cast<NodeId>(i));
  auto cfg = consensus::GroupConfig::rs_max_x(members, 1).value();  // theta(3,5)

  consensus::ReplicaOptions ropts;
  ropts.heartbeat_interval = 30 * kMillis;
  ropts.election_timeout_min = 300 * kMillis;
  ropts.election_timeout_max = 600 * kMillis;
  ropts.lease_duration = 250 * kMillis;
  ropts.checkpoint_interval_slots = 16;

  std::vector<std::unique_ptr<storage::FileWal>> wals(kReplicas);
  std::vector<std::unique_ptr<snapshot::FileSnapshotStore>> snaps(kReplicas);
  std::vector<std::unique_ptr<kv::KvServer>> servers(kReplicas);
  std::vector<net::TcpNode*> nodes(kReplicas, nullptr);
  auto transport = std::make_unique<net::TcpTransport>(addrs);
  // A flush that completes posts its durability callback onto the replica's
  // node, so the flushers stop before the transport frees the nodes (the
  // order ~TcpCluster keeps).
  auto stop_wals = [&] {
    for (auto& w : wals) {
      if (w) w->stop();
    }
  };

  auto start_replica = [&](int i, bool bootstrap) {
    auto node = transport->start_node(static_cast<NodeId>(i + 1));
    ASSERT_TRUE(node.is_ok()) << node.status().to_string();
    nodes[static_cast<size_t>(i)] = node.value();
    auto wal = storage::FileWal::open((dir / ("wal-" + std::to_string(i + 1))).string());
    ASSERT_TRUE(wal.is_ok()) << wal.status().to_string();
    wals[static_cast<size_t>(i)] = std::move(wal).value();
    auto snap =
        snapshot::FileSnapshotStore::open((dir / ("snap-" + std::to_string(i + 1))).string());
    ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
    snaps[static_cast<size_t>(i)] = std::move(snap).value();
    consensus::ReplicaOptions o = ropts;
    o.bootstrap_leader = bootstrap;
    servers[static_cast<size_t>(i)] = std::make_unique<kv::KvServer>(
        node.value(), wals[static_cast<size_t>(i)]->group(0), cfg, o, kv::KvServerOptions{},
        snaps[static_cast<size_t>(i)].get());
    // Install + start on the loop thread: reconnecting peers can deliver
    // messages the instant the handler is visible, and replica state is
    // loop-thread-only.
    kv::KvServer* srv = servers[static_cast<size_t>(i)].get();
    net::TcpNode* nd = node.value();
    on_loop(nd, [&] {
      nd->set_handler(srv);
      srv->start();
      return true;
    });
  };

  // Replicas 1..4 only; replica 5 stays dark. QW = 4, so writes still commit.
  for (int i = 0; i < kReplicas - 1; ++i) start_replica(i, /*bootstrap=*/i == 0);

  auto cnode = transport->start_node(kClientId);
  ASSERT_TRUE(cnode.is_ok());
  kv::RoutingTable routing;
  routing.group_members.push_back(members);
  routing.map = kv::ShardMap::identity(1, 1);
  kv::KvClient::Options copts;
  copts.request_timeout = 2000 * kMillis;
  kv::KvClient client(cnode.value(), routing, copts);
  cnode.value()->set_handler(&client);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  auto value_for = [](int i) { return Bytes(1024, static_cast<uint8_t>('a' + i % 26)); };
  // KvClient is loop-thread-only (no internal locks): issue every call from
  // the client node's loop, never from the test thread.
  const int kKeys = 60;
  for (int i = 0; i < kKeys; ++i) {
    std::promise<Status> done;
    auto fut = done.get_future();
    cnode.value()->loop().post([&, i] {
      client.put("k" + std::to_string(i), value_for(i),
                 [&](Status s) { done.set_value(s); });
    });
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready) << i;
    ASSERT_TRUE(fut.get().is_ok()) << "put k" << i;
  }

  // Every running replica must cut/adopt a checkpoint and truncate its WAL.
  ASSERT_TRUE(poll_until([&] {
    for (int i = 0; i < kReplicas - 1; ++i) {
      auto compacted = on_loop(nodes[static_cast<size_t>(i)], [&] {
        return servers[static_cast<size_t>(i)]->replica().log_start() > 1 &&
               wals[static_cast<size_t>(i)]->group(0)->truncated_bytes() > 0;
      });
      if (!compacted) return false;
    }
    return true;
  })) << "replicas never compacted their WALs";

  auto leader_applied = on_loop(nodes[0], [&] {
    return servers[0]->replica().last_applied();
  });
  ASSERT_GT(leader_applied, 16u);

  // Cold cluster restart: tear the whole stack down (transport queues and all
  // volatile state die with it) and bring it back up — the four old replicas
  // restore from WAL + snapshot store, and a brand-new fifth joins. The
  // fifth's next-needed slot (1) is below every peer's log start and no
  // transport backlog survives, so the only way home is InstallSnapshot.
  stop_wals();
  transport.reset();
  servers.clear();
  servers.resize(kReplicas);
  wals.clear();
  wals.resize(kReplicas);
  snaps.clear();
  snaps.resize(kReplicas);
  nodes.assign(kReplicas, nullptr);
  transport = std::make_unique<net::TcpTransport>(addrs);
  for (int i = 0; i < kReplicas; ++i) start_replica(i, /*bootstrap=*/false);

  cnode = transport->start_node(kClientId);
  ASSERT_TRUE(cnode.is_ok());
  kv::KvClient client2(cnode.value(), routing, copts);
  cnode.value()->set_handler(&client2);

  net::TcpNode* late = nodes[kReplicas - 1];
  kv::KvServer* late_srv = servers[kReplicas - 1].get();
  ASSERT_TRUE(poll_until([&] {
    return on_loop(late, [&] {
      return late_srv->replica().state_ready() &&
             late_srv->replica().last_applied() >= leader_applied;
    });
  })) << "late replica never converged";

  auto installs = on_loop(late, [&] { return late_srv->replica().stats().snapshot_installs; });
  EXPECT_GE(installs, 1u) << "convergence must have gone through InstallSnapshot";
  auto snap_applied = on_loop(late, [&] { return late_srv->replica().snapshot_applied(); });
  EXPECT_GT(snap_applied, 0u);
  // Its durable snapshot footprint is one coded fragment, not the full image.
  EXPECT_GT(snaps[kReplicas - 1]->stored_bytes(), 0u);
  EXPECT_LT(snaps[kReplicas - 1]->stored_bytes(), static_cast<uint64_t>(kKeys) * 1024);

  // The late replica's KV state matches what was written.
  for (int i : {0, 13, 42, kKeys - 1}) {
    std::promise<StatusOr<Bytes>> done;
    auto fut = done.get_future();
    cnode.value()->loop().post([&, i] {
      client2.get("k" + std::to_string(i),
                  [&](StatusOr<Bytes> r) { done.set_value(std::move(r)); });
    });
    ASSERT_EQ(fut.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    auto got = fut.get();
    ASSERT_TRUE(got.is_ok()) << "k" << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i));
  }

  // WAL flushers, then the transport (joins all I/O threads); then servers
  // and WALs are safe to free.
  stop_wals();
  transport.reset();
  servers.clear();
  wals.clear();
  snaps.clear();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rspaxos
