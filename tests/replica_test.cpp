// Multi-Paxos Replica tests: election, replication, commit/apply ordering,
// leader failover with value recovery, catch-up of restarted nodes, leases,
// and cost accounting (coded shares vs full copies).
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "consensus/replica.h"
#include "sim/sim_network.h"
#include "sim/sim_world.h"
#include "storage/wal.h"

namespace rspaxos::consensus {
namespace {

struct Applied {
  Slot slot;
  ValueId vid;
  std::string header;
  bool had_full;
  size_t data_size;
};

// One Replica bound to a sim node with a MemWal and an apply recorder.
struct ReplicaHost final : MessageHandler {
  sim::SimNetwork* net;
  sim::SimNode* node;
  storage::MemWal wal;
  std::unique_ptr<Replica> replica;
  std::vector<Applied> applied;
  GroupConfig cfg;
  ReplicaOptions opts;

  ReplicaHost(sim::SimNetwork* n, NodeId id, GroupConfig c, ReplicaOptions o)
      : net(n), node(n->node(id)), cfg(std::move(c)), opts(o) {
    make();
  }

  void make() {
    replica = std::make_unique<Replica>(node, &wal, cfg, opts);
    replica->set_apply([this](const ApplyView& v) {
      applied.push_back(Applied{v.slot, v.vid, rspaxos::to_string(*v.header),
                                v.full_payload != nullptr,
                                v.full_payload ? v.full_payload->size()
                                               : v.share->data.size()});
    });
    node->set_handler(this);
    replica->start();
  }

  void on_message(NodeId from, MsgType type, BytesView payload) override {
    replica->on_message(from, type, payload);
  }

  void crash() {
    net->crash(node->id());
    node->set_handler(nullptr);
    replica.reset();
    applied.clear();  // volatile
  }

  void restart() {
    net->restart(node->id());
    opts.bootstrap_leader = false;
    make();
  }
};

struct Cluster {
  sim::SimWorld world;
  sim::SimNetwork net;
  std::vector<std::unique_ptr<ReplicaHost>> hosts;

  explicit Cluster(int n, int f = 1, uint64_t seed = 77, bool rs = true)
      : world(seed), net(&world) {
    std::vector<NodeId> members;
    for (int i = 1; i <= n; ++i) members.push_back(static_cast<NodeId>(i));
    GroupConfig cfg =
        rs ? GroupConfig::rs_max_x(members, f).value() : GroupConfig::majority(members);
    ReplicaOptions opts;
    opts.heartbeat_interval = 20 * kMillis;
    opts.election_timeout_min = 150 * kMillis;
    opts.election_timeout_max = 300 * kMillis;
    opts.lease_duration = 100 * kMillis;
    opts.max_clock_drift = 10 * kMillis;
    for (int i = 1; i <= n; ++i) {
      ReplicaOptions o = opts;
      o.bootstrap_leader = (i == 1);
      hosts.push_back(std::make_unique<ReplicaHost>(&net, static_cast<NodeId>(i), cfg, o));
    }
  }

  ReplicaHost* leader() {
    for (auto& h : hosts) {
      if (h->replica && h->replica->is_leader()) return h.get();
    }
    return nullptr;
  }

  ReplicaHost* wait_leader(DurationMicros max = 10 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (world.now() < deadline) {
      if (ReplicaHost* l = leader()) return l;
      world.run_for(10 * kMillis);
    }
    return nullptr;
  }
};

TEST(Replica, BootstrapElectsInitialLeader) {
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->node->id(), 1u);
  EXPECT_EQ(l->replica->leader_hint(), 1u);
  // Followers learn the hint via heartbeats.
  c.world.run_for(200 * kMillis);
  for (auto& h : c.hosts) EXPECT_EQ(h->replica->leader_hint(), 1u);
}

TEST(Replica, ProposeCommitsAndAppliesEverywhere) {
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  std::optional<Slot> slot;
  l->replica->propose(to_bytes("cmd-a"), Bytes(900, 0xee), [&](StatusOr<Slot> r) {
    ASSERT_TRUE(r.is_ok());
    slot = r.value();
  });
  c.world.run_for(500 * kMillis);
  ASSERT_TRUE(slot.has_value());
  for (auto& h : c.hosts) {
    ASSERT_EQ(h->applied.size(), 1u) << "node " << h->node->id();
    EXPECT_EQ(h->applied[0].header, "cmd-a");
    EXPECT_EQ(h->applied[0].slot, *slot);
  }
  // Leader applies the full value; followers apply 1/X-size shares (X=3).
  EXPECT_TRUE(l->applied[0].had_full);
  EXPECT_EQ(l->applied[0].data_size, 900u);
  for (auto& h : c.hosts) {
    if (h.get() == l) continue;
    EXPECT_FALSE(h->applied[0].had_full);
    EXPECT_EQ(h->applied[0].data_size, 300u);
  }
}

TEST(Replica, CommitsStayOrderedUnderPipelining) {
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  int committed = 0;
  for (int i = 0; i < 50; ++i) {
    l->replica->propose(Bytes{static_cast<uint8_t>(i)}, Bytes(64, static_cast<uint8_t>(i)),
                        [&](StatusOr<Slot> r) {
                          ASSERT_TRUE(r.is_ok());
                          committed++;
                        });
  }
  c.world.run_for(2 * kSeconds);
  EXPECT_EQ(committed, 50);
  for (auto& h : c.hosts) {
    ASSERT_EQ(h->applied.size(), 50u);
    for (size_t i = 0; i < 50; ++i) {
      EXPECT_EQ(h->applied[i].header, std::string(1, static_cast<char>(i)));
      if (i > 0) {
        EXPECT_GT(h->applied[i].slot, h->applied[i - 1].slot);
      }
    }
  }
}

TEST(Replica, NonLeaderRejectsPropose) {
  Cluster c(5);
  ASSERT_NE(c.wait_leader(), nullptr);
  ReplicaHost* follower = nullptr;
  for (auto& h : c.hosts) {
    if (!h->replica->is_leader()) follower = h.get();
  }
  ASSERT_NE(follower, nullptr);
  bool failed = false;
  follower->replica->propose(Bytes{}, Bytes{}, [&](StatusOr<Slot> r) {
    EXPECT_FALSE(r.is_ok());
    EXPECT_EQ(r.status().code(), Code::kUnavailable);
    failed = true;
  });
  EXPECT_TRUE(failed);
}

TEST(Replica, LeaderCrashTriggersFailoverAndValueSurvives) {
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  bool committed = false;
  l->replica->propose(to_bytes("survivor"), Bytes(600, 0x66),
                      [&](StatusOr<Slot> r) { committed = r.is_ok(); });
  c.world.run_for(500 * kMillis);
  ASSERT_TRUE(committed);

  l->crash();
  c.world.run_for(2 * kSeconds);
  ReplicaHost* l2 = c.leader();
  ASSERT_NE(l2, nullptr);
  EXPECT_NE(l2->node->id(), l->node->id());

  // New leader can still commit, and the log keeps the old entry: a fresh
  // proposal lands in a later slot.
  std::optional<Slot> s2;
  l2->replica->propose(to_bytes("next"), Bytes(10, 1), [&](StatusOr<Slot> r) {
    ASSERT_TRUE(r.is_ok());
    s2 = r.value();
  });
  c.world.run_for(1 * kSeconds);
  ASSERT_TRUE(s2.has_value());
  // All live replicas applied both commands in order.
  for (auto& h : c.hosts) {
    if (!h->replica) continue;
    bool saw_survivor = false, saw_next = false;
    for (const auto& a : h->applied) {
      if (a.header == "survivor") saw_survivor = true;
      if (a.header == "next") {
        saw_next = true;
        EXPECT_TRUE(saw_survivor) << "order violated on node " << h->node->id();
      }
    }
    EXPECT_TRUE(saw_next) << "node " << h->node->id();
  }
}

TEST(Replica, NewLeaderRecoversUncommittedValueFromShares) {
  // Kill the leader right after it gathers a write quorum; the next leader's
  // phase 1 must find >= X shares and re-propose the same value id.
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  std::optional<Slot> slot;
  l->replica->propose(to_bytes("maybe-chosen"), Bytes(300, 0x77),
                      [&](StatusOr<Slot> r) { if (r.is_ok()) slot = r.value(); });
  // Let accepts reach followers and be persisted, then crash the leader
  // before it can spread commit knowledge far.
  c.world.run_for(150 * kMillis);
  l->crash();
  c.world.run_for(3 * kSeconds);
  ReplicaHost* l2 = c.leader();
  ASSERT_NE(l2, nullptr);
  c.world.run_for(2 * kSeconds);
  // The value must be applied on every live node exactly once (stability).
  for (auto& h : c.hosts) {
    if (!h->replica) continue;
    int count = 0;
    for (const auto& a : h->applied) {
      if (a.header == "maybe-chosen") count++;
    }
    EXPECT_EQ(count, 1) << "node " << h->node->id();
  }
}

TEST(Replica, RestartedFollowerCatchesUp) {
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  ReplicaHost* victim = c.hosts[4].get();
  victim->crash();

  int committed = 0;
  for (int i = 0; i < 10; ++i) {
    l->replica->propose(Bytes{static_cast<uint8_t>('A' + i)}, Bytes(120, 5),
                        [&](StatusOr<Slot> r) { if (r.is_ok()) committed++; });
  }
  c.world.run_for(1 * kSeconds);
  EXPECT_EQ(committed, 10) << "QW=4 of 5 still reachable";

  victim->restart();
  c.world.run_for(5 * kSeconds);
  // The restarted node learned and applied all ten entries via catch-up
  // (leader re-encoded its fragments, §4.5).
  EXPECT_EQ(victim->applied.size(), 10u);
  EXPECT_GE(l->replica->stats().catchup_entries_served, 1u);
}

TEST(Replica, LeaseBecomesValidAndGatesOnQuorum) {
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  c.world.run_for(300 * kMillis);  // a few heartbeat rounds
  EXPECT_TRUE(l->replica->lease_valid());

  // Cut the leader off: the lease must lapse within lease_duration.
  c.net.partition({l->node->id()}, {1, 2, 3, 4, 5});
  c.world.run_for(300 * kMillis);
  EXPECT_FALSE(l->replica->lease_valid());
}

TEST(Replica, RecoverPayloadDecodesFromFollowers) {
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  Bytes value(999, 0x3c);
  std::optional<Slot> slot;
  l->replica->propose(to_bytes("k"), value, [&](StatusOr<Slot> r) {
    if (r.is_ok()) slot = r.value();
  });
  c.world.run_for(500 * kMillis);
  ASSERT_TRUE(slot.has_value());

  // Ask a *follower* (which only holds a share) to recover the payload.
  ReplicaHost* follower = nullptr;
  for (auto& h : c.hosts) {
    if (!h->replica->is_leader()) follower = h.get();
  }
  ASSERT_NE(follower, nullptr);
  std::optional<SharedBytes> got;
  follower->replica->recover_payload(*slot, [&](StatusOr<SharedBytes> r) {
    ASSERT_TRUE(r.is_ok());
    got = std::move(r).value();
  });
  c.world.run_for(1 * kSeconds);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, SharedBytes(value));
}

TEST(Replica, CodedModeSendsLessDataThanFullCopy) {
  auto run = [](bool rs) {
    Cluster c(5, 1, 99, rs);
    ReplicaHost* l = c.wait_leader();
    EXPECT_NE(l, nullptr);
    uint64_t before = l->node->bytes_sent();
    int committed = 0;
    for (int i = 0; i < 20; ++i) {
      l->replica->propose(Bytes{1}, Bytes(90'000, 1),
                          [&](StatusOr<Slot> r) { if (r.is_ok()) committed++; });
    }
    c.world.run_for(5 * kSeconds);
    EXPECT_EQ(committed, 20);
    return l->node->bytes_sent() - before;
  };
  uint64_t coded = run(true);
  uint64_t full = run(false);
  // Full copy sends ~4 x 90 KB per value; coded sends ~4 x 30 KB. Allow
  // generous slack for control traffic.
  EXPECT_LT(static_cast<double>(coded), 0.45 * static_cast<double>(full))
      << "coded=" << coded << " full=" << full;
}

TEST(Replica, WalFlushesShrinkWithCoding) {
  auto run = [](bool rs) {
    Cluster c(5, 1, 7, rs);
    ReplicaHost* l = c.wait_leader();
    EXPECT_NE(l, nullptr);
    int committed = 0;
    for (int i = 0; i < 10; ++i) {
      l->replica->propose(Bytes{1}, Bytes(60'000, 2),
                          [&](StatusOr<Slot> r) { if (r.is_ok()) committed++; });
    }
    c.world.run_for(5 * kSeconds);
    EXPECT_EQ(committed, 10);
    uint64_t flushed = 0;
    for (auto& h : c.hosts) flushed += h->wal.bytes_flushed();
    return flushed;
  };
  uint64_t coded = run(true);
  uint64_t full = run(false);
  EXPECT_LT(static_cast<double>(coded), 0.5 * static_cast<double>(full))
      << "coded=" << coded << " full=" << full;
}

TEST(Replica, SurvivesFullClusterRestart) {
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    l->replica->propose(Bytes{static_cast<uint8_t>(i)}, Bytes(50, 9),
                        [&](StatusOr<Slot> r) { if (r.is_ok()) committed++; });
  }
  c.world.run_for(1 * kSeconds);
  ASSERT_EQ(committed, 5);

  for (auto& h : c.hosts) h->crash();
  for (auto& h : c.hosts) h->restart();
  c.world.run_for(5 * kSeconds);

  ReplicaHost* l2 = c.leader();
  ASSERT_NE(l2, nullptr);
  // After restart + re-election, all five entries re-commit/apply in order.
  c.world.run_for(2 * kSeconds);
  for (auto& h : c.hosts) {
    ASSERT_GE(h->applied.size(), 5u) << "node " << h->node->id();
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(h->applied[static_cast<size_t>(i)].header,
                std::string(1, static_cast<char>(i)));
    }
  }
}

// A leader elected after a whole-cluster restart finds the slots its
// predecessor committed still open, and its state machine lacks them until
// it re-commits and applies them. Heartbeat acks alone must not make its
// lease serve reads in that window: a fast read there missed acked writes.
TEST(Replica, FreshLeaderServesNoLeaseReadBeforeApplyingWhatItRecovered) {
  Cluster c(5);
  ReplicaHost* l = c.wait_leader();
  ASSERT_NE(l, nullptr);
  int committed = 0;
  for (int i = 0; i < 5; ++i) {
    l->replica->propose(Bytes{static_cast<uint8_t>(i)}, Bytes(50, 9),
                        [&](StatusOr<Slot> r) { if (r.is_ok()) committed++; });
  }
  c.world.run_for(1 * kSeconds);
  ASSERT_EQ(committed, 5);

  // Accepts are dropped across the restart, so the new leader cannot
  // re-commit what it recovered; heartbeats and their acks still flow.
  c.net.set_delivery_tap([](NodeId, NodeId, MsgType type, const SharedBytes&) {
    return type != MsgType::kAccept;
  });
  for (auto& h : c.hosts) h->crash();
  for (auto& h : c.hosts) h->restart();
  ReplicaHost* l2 = c.wait_leader();
  ASSERT_NE(l2, nullptr);
  c.world.run_for(500 * kMillis);  // many heartbeat rounds, all acked
  ASSERT_TRUE(l2->replica->is_leader());
  EXPECT_LT(l2->replica->last_applied(), 5u);
  EXPECT_FALSE(l2->replica->lease_valid());

  // Accepts flow again: once the recovered slots are applied, the lease holds.
  c.net.set_delivery_tap(nullptr);
  c.world.run_for(2 * kSeconds);
  ASSERT_TRUE(l2->replica->is_leader());
  EXPECT_GE(l2->replica->last_applied(), 5u);
  EXPECT_TRUE(l2->replica->lease_valid());
}

}  // namespace
}  // namespace rspaxos::consensus
