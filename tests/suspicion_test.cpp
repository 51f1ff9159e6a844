// The leader routes around followers it suspects (DESIGN.md §17): a member
// with no heartbeat ack for election_timeout_max gets no accepts and no share fetches while
// the others still make up QW. Each case checks that its fault landed in the
// window it claims (suspicion set in before the measured traffic began), then
// counts the bytes the leader sent each peer through the simulator's send tap,
// which sees sends to crashed and partitioned nodes too.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "kv/cluster.h"
#include "obs/metrics.h"

namespace rspaxos::kv {
namespace {

constexpr DurationMicros kHeartbeat = 20 * kMillis;
constexpr DurationMicros kSuspectAfter = 300 * kMillis;  // election_timeout_max

SimClusterOptions tuned() {
  SimClusterOptions opts;  // 5 servers, θ(3,5): QW = 4, X = 3
  opts.replica.heartbeat_interval = kHeartbeat;
  opts.replica.election_timeout_min = 150 * kMillis;
  opts.replica.election_timeout_max = kSuspectAfter;
  opts.replica.lease_duration = 100 * kMillis;
  opts.replica.max_clock_drift = 10 * kMillis;
  return opts;
}

struct Fixture {
  sim::SimWorld world;
  SimCluster cluster;
  std::unique_ptr<KvClient> client;
  /// Bytes and messages each (from, to, type) was sent, once counting starts.
  std::map<std::tuple<NodeId, NodeId, MsgType>, std::pair<uint64_t, uint64_t>> sent;

  Fixture() : world(11), cluster(&world, tuned()) {
    cluster.wait_for_leaders();
    KvClient::Options copts;
    copts.request_timeout = 5 * kSeconds;
    client = cluster.make_client(0, copts);
  }

  void count_sends() {
    cluster.network().set_send_tap([this](NodeId from, NodeId to, MsgType type, size_t bytes) {
      auto& [b, n] = sent[{from, to, type}];
      b += bytes;
      n += 1;
    });
  }
  uint64_t bytes(int from, int to, MsgType type) {
    auto it = sent.find({endpoint_id(from, 0), endpoint_id(to, 0), type});
    return it == sent.end() ? 0 : it->second.first;
  }
  uint64_t msgs(int from, MsgType type) {
    uint64_t n = 0;
    for (const auto& [k, v] : sent) {
      if (std::get<0>(k) == endpoint_id(from, 0) && std::get<2>(k) == type) n += v.second;
    }
    return n;
  }

  Status put(const std::string& key, Bytes value) {
    std::optional<Status> out;
    client->put(key, std::move(value), [&](Status s) { out = s; });
    run_until([&] { return out.has_value(); });
    return out.value_or(Status::timeout("sim ended"));
  }
  StatusOr<Bytes> read(const std::string& key, bool consistent) {
    std::optional<StatusOr<Bytes>> out;
    auto cb = [&](StatusOr<Bytes> r) { out = std::move(r); };
    if (consistent) {
      client->consistent_get(key, cb);
    } else {
      client->get(key, cb);
    }
    run_until([&] { return out.has_value(); });
    if (!out.has_value()) return Status::timeout("sim ended");
    return std::move(*out);
  }

  template <typename Pred>
  bool run_until(Pred done, DurationMicros max = 30 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (!done() && world.now() < deadline) world.run_for(1 * kMillis);
    return done();
  }

  int leader() const { return cluster.leader_server_of(0); }
  consensus::Replica& replica(int s) { return cluster.server(s, 0)->replica(); }
  std::vector<NodeId> suspects(int s) { return replica(s).suspected_peers(); }
  int64_t suspected_gauge(int s) {
    return obs::MetricsRegistry::global()
        .gauge_family("rsp_consensus_suspected_peers", "", {"node", "group"})
        .with({std::to_string(endpoint_id(s, 0)), "0"})
        .value();
  }
};

Bytes value_for(int i, int round = 0) {
  return Bytes(1024, static_cast<uint8_t>('a' + (i + round) % 26));
}

TEST(Suspicion, CrashedFollowerGetsNoAcceptsOrFetchesThenRejoins) {
  Fixture f;
  const int l = f.leader();
  ASSERT_EQ(l, 0);
  const int dead = 3;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.put("k" + std::to_string(i), value_for(i)).is_ok());

  f.cluster.crash_server(dead);
  EXPECT_TRUE(f.suspects(l).empty()) << "suspected before any silence";
  f.world.run_for(kSuspectAfter);
  ASSERT_EQ(f.suspects(l), std::vector<NodeId>{endpoint_id(dead, 0)});
  f.world.run_for(kHeartbeat);  // the gauge follows on the next heartbeat
  EXPECT_EQ(f.suspected_gauge(l), 1);

  f.count_sends();
  const uint64_t skipped0 = f.replica(l).stats().accepts_skipped;
  constexpr int kPuts = 200;
  for (int i = 0; i < kPuts; ++i) {
    ASSERT_TRUE(f.put("k" + std::to_string(i), value_for(i, 1)).is_ok()) << i;
  }
  EXPECT_EQ(f.bytes(l, dead, MsgType::kAccept), 0u);
  EXPECT_EQ(f.bytes(l, dead, MsgType::kFetchShareReq), 0u);
  EXPECT_GT(f.bytes(l, dead, MsgType::kCommit), 0u) << "heartbeats still probe the suspect";
  for (int s : {1, 2, 4}) EXPECT_GT(f.bytes(l, s, MsgType::kAccept), 0u) << s;
  EXPECT_GE(f.replica(l).stats().accepts_skipped - skipped0, static_cast<uint64_t>(kPuts));

  // Back up: its first heartbeat ack clears the suspicion.
  f.cluster.restart_server(dead);
  const TimeMicros back = f.world.now();
  ASSERT_TRUE(f.run_until([&] { return f.suspects(l).empty(); }, kSuspectAfter));
  EXPECT_LE(f.world.now() - back, kHeartbeat + 5 * kMillis);
  f.world.run_for(kHeartbeat);
  EXPECT_EQ(f.suspected_gauge(l), 0);

  // It missed every accept above, so it catches up from the leader.
  const consensus::Slot target = f.replica(l).commit_index();
  ASSERT_TRUE(f.run_until([&] { return f.replica(dead).last_applied() >= target; }));

  // As leader it holds only the shares catch-up re-coded for it, yet reads
  // every acked value.
  f.replica(l).transfer_leadership(endpoint_id(dead, 0));
  ASSERT_TRUE(f.run_until([&] { return f.leader() == dead; }));
  for (int i = 0; i < kPuts; ++i) {
    auto got = f.read("k" + std::to_string(i), /*consistent=*/true);
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i, 1)) << i;
  }
}

TEST(Suspicion, BelowWriteQuorumAcceptsStillGoToEveryMember) {
  Fixture f;
  const int l = f.leader();
  ASSERT_EQ(l, 0);
  ASSERT_TRUE(f.put("before", value_for(0)).is_ok());

  // Two of five silenced: three unsuspected members cannot make QW = 4.
  std::set<NodeId> cut{endpoint_id(3, 0), endpoint_id(4, 0)};
  std::set<NodeId> rest{endpoint_id(0, 0), endpoint_id(1, 0), endpoint_id(2, 0),
                        kClientBase};
  f.cluster.network().partition(cut, rest);
  f.world.run_for(kSuspectAfter + kHeartbeat);
  ASSERT_EQ(f.suspects(l).size(), 2u);

  f.count_sends();
  const uint64_t skipped0 = f.replica(l).stats().accepts_skipped;
  std::optional<Status> out;
  f.client->put("during", value_for(1), [&](Status s) { out = s; });
  f.world.run_for(500 * kMillis);
  EXPECT_FALSE(out.has_value()) << "committed without a write quorum";
  EXPECT_GT(f.bytes(l, 3, MsgType::kAccept), 0u);
  EXPECT_GT(f.bytes(l, 4, MsgType::kAccept), 0u);
  EXPECT_EQ(f.replica(l).stats().accepts_skipped, skipped0);

  f.cluster.network().heal_partitions();
  ASSERT_TRUE(f.run_until([&] { return out.has_value(); }));
  EXPECT_TRUE(out->is_ok()) << out->to_string();
  auto got = f.read("during", /*consistent=*/true);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), value_for(1));
}

TEST(Suspicion, StalledProposalWidensToTheSuspectAndCommitsWhenItReturns) {
  Fixture f;
  const int l = f.leader();
  ASSERT_EQ(l, 0);
  ASSERT_TRUE(f.put("before", value_for(0)).is_ok());
  const int dead = 3;
  f.cluster.crash_server(dead);
  f.world.run_for(kSuspectAfter);
  ASSERT_EQ(f.suspects(l), std::vector<NodeId>{endpoint_id(dead, 0)});

  // Silence a second follower just now: it is not suspected for another
  // election_timeout_max, so the put goes to 1, 2 and 4 and stalls at three
  // of QW = 4 acks.
  f.cluster.network().partition({endpoint_id(4, 0)},
                                {endpoint_id(0, 0), endpoint_id(1, 0), endpoint_id(2, 0),
                                 endpoint_id(dead, 0), kClientBase});
  f.count_sends();
  const uint64_t skipped0 = f.replica(l).stats().accepts_skipped;
  const DurationMicros retransmit = tuned().replica.retransmit_interval;
  std::optional<Status> out;
  f.client->put("during", value_for(1), [&](Status s) { out = s; });

  // The first retransmit (one interval in) still skips the suspect.
  f.world.run_for(retransmit + retransmit / 2);
  EXPECT_FALSE(out.has_value());
  EXPECT_EQ(f.bytes(l, dead, MsgType::kAccept), 0u);
  EXPECT_EQ(f.replica(l).stats().accepts_skipped - skipped0, 2u);

  // The next one widens to every member that has not acked, the suspect
  // included; the other follower is still inside its window.
  f.world.run_for(retransmit);
  ASSERT_EQ(f.suspects(l), std::vector<NodeId>{endpoint_id(dead, 0)});
  EXPECT_GT(f.bytes(l, dead, MsgType::kAccept), 0u);
  EXPECT_FALSE(out.has_value());

  // The suspect comes back, accepts the retransmitted frame, and its vote
  // completes the write quorum while the other follower is still cut off.
  f.cluster.restart_server(dead);
  ASSERT_TRUE(f.run_until([&] { return out.has_value(); }));
  EXPECT_TRUE(out->is_ok()) << out->to_string();
  auto got = f.read("during", /*consistent=*/true);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value(), value_for(1));
}

TEST(Suspicion, RecoveryReadAfterLeaderCrashFetchesXMinusOneShares) {
  Fixture f;
  const int old = f.leader();
  ASSERT_EQ(old, 0);
  constexpr int kKeys = 20;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(f.put("k" + std::to_string(i), value_for(i)).is_ok());
  }
  f.cluster.crash_server(old);
  ASSERT_TRUE(f.run_until([&] { return f.leader() >= 0; }));
  const int l = f.leader();
  // The new leader suspects its predecessor once it has led, with no ack
  // from it, for election_timeout_max.
  EXPECT_TRUE(f.suspects(l).empty());
  f.world.run_for(kSuspectAfter);
  ASSERT_EQ(f.suspects(l), std::vector<NodeId>{endpoint_id(old, 0)});

  f.count_sends();
  const uint64_t decoded0 = f.cluster.server(l, 0)->stats().ec_degraded_reads;
  for (int i = 0; i < kKeys; ++i) {
    auto got = f.read("k" + std::to_string(i), /*consistent=*/false);
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i)) << i;
  }
  // Each degraded read decoded from X = 3 shares: its own plus exactly
  // X - 1 = 2 fetched on the first pass; a widened retry would ask all four
  // peers. (The newest value or so is resident: the election re-proposed it.)
  const uint64_t decoded = f.cluster.server(l, 0)->stats().ec_degraded_reads - decoded0;
  EXPECT_GE(decoded, static_cast<uint64_t>(kKeys - 2));
  EXPECT_EQ(f.msgs(l, MsgType::kFetchShareReq), 2 * decoded);
  EXPECT_EQ(f.bytes(l, old, MsgType::kFetchShareReq), 0u);
}

}  // namespace
}  // namespace rspaxos::kv
