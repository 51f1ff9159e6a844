// Trace-propagation tests: a committed put must leave ONE connected span
// tree whose spans were recorded on several distinct nodes (client, leader,
// acceptors) — proof that the SpanContext actually crossed the wire in the
// frame header rather than every node minting its own trace. The tree
// contract must also survive a leader failover: spans from the doomed
// leader's era may be abandoned, but post-election commits trace exactly like
// first-era ones. Over real TCP every node records on its own loop thread, so
// the tree is joined from several threads' span rings.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "kv/client.h"
#include "kv/cluster.h"
#include "node/tcp_cluster.h"
#include "obs/trace.h"
#include "sim/sim_world.h"

namespace rspaxos {
namespace {

using obs::CommitTrace;
using obs::TraceSpan;
using obs::Tracer;

/// Every non-root span's parent must exist within the same trace.
void expect_connected(const CommitTrace& t) {
  for (const TraceSpan& s : t.spans) {
    if (s.id == t.root) {
      EXPECT_EQ(s.parent, 0u);
      continue;
    }
    bool parent_known = std::any_of(
        t.spans.begin(), t.spans.end(),
        [&s](const TraceSpan& p) { return p.id == s.parent; });
    EXPECT_TRUE(parent_known) << "orphan span " << s.name << " on node " << s.node;
  }
}

/// The trace for one committed put: full phase set, connected, multi-node.
const CommitTrace* find_commit_trace(const std::vector<CommitTrace>& traces) {
  for (const CommitTrace& t : traces) {
    bool has_net = std::any_of(t.spans.begin(), t.spans.end(), [](const TraceSpan& s) {
      return s.name.rfind("net_accept:", 0) == 0;
    });
    if (t.find("client_rpc") != nullptr && t.find("commit") != nullptr &&
        t.find("quorum_wait") != nullptr && has_net) {
      return &t;
    }
  }
  return nullptr;
}

struct Fixture {
  sim::SimWorld world{7};
  kv::SimCluster cluster;

  Fixture() : cluster(&world, [] {
    kv::SimClusterOptions o;
    o.num_servers = 5;
    o.f = 1;  // theta(3,5)
    return o;
  }()) {}

  Status put(kv::KvClient* client, const std::string& key, const std::string& val) {
    bool done = false;
    Status st = Status::ok();
    client->put(key, to_bytes(val), [&](Status s) {
      st = s;
      done = true;
    });
    TimeMicros deadline = world.now() + 60 * kSeconds;
    while (!done && world.now() < deadline) world.run_for(5 * kMillis);
    return done ? st : Status::timeout("put " + key);
  }
};

TEST(TracePropagation, CommitSpanTreeCoversClientLeaderAndAcceptors) {
  Fixture f;
  f.cluster.wait_for_leaders();
  auto client = f.cluster.make_client(0);

  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  ASSERT_TRUE(f.put(client.get(), "prop-key", "prop-value").is_ok());

  const auto traces = Tracer::global().slowest(16);
  const CommitTrace* t = find_commit_trace(traces);
  ASSERT_NE(t, nullptr) << Tracer::global().slowest_json(16);
  expect_connected(*t);

  // The same trace id collected spans from several processes-worth of nodes:
  // the client endpoint, the leader, and at least a write quorum's worth of
  // acceptor-side wal_fsync spans recorded under the propagated context.
  std::set<uint32_t> nodes;
  for (const TraceSpan& s : t->spans) nodes.insert(s.node);
  EXPECT_GE(nodes.size(), 3u) << "spans did not cross the wire: "
                              << Tracer::global().slowest_json(16);
  uint32_t leader_node = t->find("commit")->node;
  EXPECT_NE(t->find("client_rpc")->node, leader_node);
  int follower_fsyncs = 0;
  for (const TraceSpan& s : t->spans) {
    if (s.name == "wal_fsync" && s.node != leader_node) follower_fsyncs++;
  }
  // theta(3,5): QW=4 durable shares, so at least QW-1=3 follower fsyncs were
  // traced (minus any still open at root end — require a majority of them).
  EXPECT_GE(follower_fsyncs, 2) << Tracer::global().slowest_json(16);
}

TEST(TracePropagation, SpanTreeSurvivesLeaderFailover) {
  Fixture f;
  f.cluster.wait_for_leaders();
  auto client = f.cluster.make_client(0);
  ASSERT_TRUE(f.put(client.get(), "pre-crash", "v0").is_ok());

  int old_leader = f.cluster.leader_server_of(0);
  ASSERT_GE(old_leader, 0);
  f.cluster.crash_server(old_leader);
  TimeMicros deadline = f.world.now() + 120 * kSeconds;
  while (f.world.now() < deadline) {
    int l = f.cluster.leader_server_of(0);
    if (l >= 0 && l != old_leader) break;
    f.world.run_for(10 * kMillis);
  }
  int new_leader = f.cluster.leader_server_of(0);
  ASSERT_GE(new_leader, 0);
  ASSERT_NE(new_leader, old_leader);

  // Only post-election traffic from here on.
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  ASSERT_TRUE(f.put(client.get(), "post-crash", "v1").is_ok());

  const auto traces = Tracer::global().slowest(16);
  const CommitTrace* t = find_commit_trace(traces);
  ASSERT_NE(t, nullptr) << Tracer::global().slowest_json(16);
  expect_connected(*t);
  EXPECT_TRUE(t->done);
  // The commit span now lives on the new leader's endpoint.
  EXPECT_EQ(t->find("commit")->node,
            static_cast<uint32_t>(kv::endpoint_id(new_leader, 0)));
  // The crashed server contributed nothing to the post-election tree.
  for (const TraceSpan& s : t->spans) {
    if (s.name == "client_rpc") continue;  // client endpoint, not a server
    EXPECT_NE(s.node, static_cast<uint32_t>(kv::endpoint_id(old_leader, 0)))
        << s.name;
  }
}

TEST(TracePropagation, TcpPutJoinsSpansFromEveryThread) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("rspaxos_trace_tcp_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  node::TcpClusterOptions opts;
  opts.num_servers = 3;
  opts.f = 1;
  opts.data_dir = dir.string();
  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  std::unique_ptr<node::TcpCluster> cluster = std::move(started).value();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (cluster->leader_server_of(0) < 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no leader";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  auto cn = cluster->start_client();
  ASSERT_TRUE(cn.is_ok()) << cn.status().to_string();
  net::TcpNode* cnode = cn.value();
  auto client = std::make_unique<kv::KvClient>(cnode, cluster->routing(), kv::KvClient::Options());
  cnode->loop().post([&] { cnode->set_handler(client.get()); });

  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  std::promise<Status> done;
  auto fut = done.get_future();
  cnode->loop().post([&] {
    client->put("tcp-traced", to_bytes("v"), [&](Status s) { done.set_value(s); });
  });
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(20)), std::future_status::ready);
  ASSERT_TRUE(fut.get().is_ok());

  // The client's reply follows the leader's commit, which follows a quorum
  // of follower fsyncs: once the put returned, all of them are readable.
  const auto traces = Tracer::global().recent(16);
  const CommitTrace* t = find_commit_trace(traces);
  ASSERT_NE(t, nullptr) << Tracer::global().recent_json(16);
  expect_connected(*t);
  const TraceSpan* rpc = t->find("client_rpc");
  const TraceSpan* commit = t->find("commit");
  ASSERT_TRUE(rpc && commit);
  EXPECT_EQ(rpc->parent, 0u);
  EXPECT_EQ(commit->parent, rpc->id);
  EXPECT_NE(rpc->node, commit->node);
  // A follower's fsync hangs under the net_accept span the leader's thread
  // opened for that follower, which the follower's thread closed before it
  // began the fsync. At least one such fsync finished before the commit.
  int closed_follower_fsyncs = 0;
  for (const TraceSpan& s : t->spans) {
    if (s.name != "wal_fsync" || s.node == commit->node) continue;
    const TraceSpan* accept = t->find("net_accept:" + std::to_string(s.node));
    ASSERT_NE(accept, nullptr) << Tracer::global().recent_json(16);
    EXPECT_EQ(s.parent, accept->id);
    EXPECT_EQ(accept->parent, commit->id);
    EXPECT_EQ(accept->node, commit->node);
    EXPECT_FALSE(accept->open());
    if (!s.open()) ++closed_follower_fsyncs;
  }
  EXPECT_GE(closed_follower_fsyncs, 1) << Tracer::global().recent_json(16);

  cluster.reset();  // joins every I/O thread, incl. the client node's loop
  client.reset();
  std::filesystem::remove_all(dir);
}

// Puts one client turn sends arrive in one server read and commit as one
// batched instance. The first write's trace carries that instance's commit
// tree; every other write's trace records a zero-length "batched:<slot>"
// span naming the instance that carried it. Every tree stays connected.
TEST(TracePropagation, TcpBurstKeepsConnectedTrees) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("rspaxos_trace_burst_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  node::TcpClusterOptions opts;
  opts.num_servers = 3;
  opts.f = 1;
  opts.data_dir = dir.string();
  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  std::unique_ptr<node::TcpCluster> cluster = std::move(started).value();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (cluster->leader_server_of(0) < 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no leader";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  auto cn = cluster->start_client();
  ASSERT_TRUE(cn.is_ok()) << cn.status().to_string();
  net::TcpNode* cnode = cn.value();
  auto client = std::make_unique<kv::KvClient>(cnode, cluster->routing(), kv::KvClient::Options());
  cnode->loop().post([&] { cnode->set_handler(client.get()); });
  // Warm the leader hint, so every burst put goes straight to the leader.
  std::promise<Status> warm;
  cnode->loop().post([&] { client->put("warm", to_bytes("w"), [&](Status s) { warm.set_value(s); }); });
  ASSERT_TRUE(warm.get_future().get().is_ok());

  constexpr int kPuts = 16;
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  std::atomic<int> ok{0}, resolved{0};
  cnode->loop().post([&] {
    for (int i = 0; i < kPuts; ++i) {
      client->put("burst-" + std::to_string(i), to_bytes("v"), [&](Status s) {
        if (s.is_ok()) ok.fetch_add(1);
        resolved.fetch_add(1);
      });
    }
  });
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (resolved.load() < kPuts && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(ok.load(), kPuts);

  const auto traces = Tracer::global().recent(64);
  std::set<uint64_t> commit_slots;
  std::vector<uint64_t> batched_slots;
  int put_trees = 0;
  for (const CommitTrace& t : traces) {
    const TraceSpan* rpc = t.find("client_rpc");
    if (rpc == nullptr || rpc->parent != 0) continue;
    ++put_trees;
    expect_connected(t);
    const TraceSpan* commit = t.find("commit");
    for (const TraceSpan& s : t.spans) {
      if (s.name.rfind("batched:", 0) != 0) continue;
      EXPECT_EQ(commit, nullptr) << "a write that carried the commit is not also batched";
      EXPECT_EQ(s.parent, rpc->id);
      EXPECT_EQ(s.duration_us(), 0);
      EXPECT_FALSE(s.open());
      batched_slots.push_back(std::stoull(s.name.substr(8)));
    }
    if (commit != nullptr) {
      EXPECT_EQ(commit->parent, rpc->id);
      commit_slots.insert(t.slot);
    }
  }
  EXPECT_EQ(put_trees, kPuts) << Tracer::global().recent_json(64);
  EXPECT_FALSE(batched_slots.empty()) << "the burst was not batched";
  EXPECT_EQ(commit_slots.size() + batched_slots.size(), static_cast<size_t>(kPuts))
      << Tracer::global().recent_json(64);
  for (uint64_t slot : batched_slots) {
    EXPECT_EQ(commit_slots.count(slot), 1u) << "batched:" << slot << " names no commit";
  }

  cluster.reset();
  client.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rspaxos
