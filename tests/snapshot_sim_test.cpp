// Snapshot + log-compaction integration tests over the simulated cluster
// (§4.5 generalized): checkpoints truncate the WAL prefix, restarts replay
// only the post-snapshot suffix, replicas whose gap predates the leader's log
// start converge via InstallSnapshot, and shares evicted behind the horizon
// never break reads.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "kv/cluster.h"

namespace rspaxos::kv {
namespace {

struct SnapFixture {
  sim::SimWorld world;
  SimCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit SnapFixture(SimClusterOptions opts = {}, uint64_t seed = 42)
      : world(seed), cluster(&world, tuned(opts)) {
    cluster.wait_for_leaders();
    KvClient::Options copts;
    copts.request_timeout = 500 * kMillis;
    client = cluster.make_client(0, copts);
  }

  static SimClusterOptions tuned(SimClusterOptions opts) {
    opts.replica.heartbeat_interval = 20 * kMillis;
    opts.replica.election_timeout_min = 150 * kMillis;
    opts.replica.election_timeout_max = 300 * kMillis;
    opts.replica.lease_duration = 100 * kMillis;
    opts.replica.max_clock_drift = 10 * kMillis;
    return opts;
  }

  Status put(const std::string& key, Bytes value) {
    std::optional<Status> out;
    client->put(key, std::move(value), [&](Status s) { out = s; });
    run_until([&] { return out.has_value(); });
    return out.value_or(Status::timeout("sim ended"));
  }

  StatusOr<Bytes> get(const std::string& key) {
    std::optional<StatusOr<Bytes>> out;
    client->get(key, [&](StatusOr<Bytes> r) { out = std::move(r); });
    run_until([&] { return out.has_value(); });
    if (!out.has_value()) return Status::timeout("sim ended");
    return std::move(*out);
  }

  template <typename Pred>
  void run_until(Pred done, DurationMicros max = 30 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (!done() && world.now() < deadline) world.run_for(5 * kMillis);
  }

  int leader() const { return cluster.leader_server_of(0); }
  consensus::Replica& replica(int s) { return cluster.server(s, 0)->replica(); }
};

Bytes value_for(int i) {
  return Bytes(256, static_cast<uint8_t>('a' + (i % 26)));
}

// Leader's complete rows as a plain map, for cross-run state comparison.
std::map<std::string, Bytes> leader_state(SnapFixture& f) {
  int l = f.leader();
  EXPECT_GE(l, 0);
  std::map<std::string, Bytes> out;
  f.cluster.server(l, 0)->store().for_each(
      [&](const std::string& k, const LocalStore::Record& r) {
        if (r.complete) out[k] = Bytes(r.value().begin(), r.value().end());
      });
  return out;
}

TEST(SnapshotSim, CheckpointTruncatesWalAndRestartReplaysOnlySuffix) {
  SimClusterOptions opts;
  opts.replica.checkpoint_interval_slots = 16;
  SnapFixture f(opts);

  const int kKeys = 60;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(f.put("k" + std::to_string(i), value_for(i)).is_ok()) << i;
  }
  // Let offers propagate so every node saves its fragment and compacts.
  f.run_until([&] {
    for (int s = 0; s < 5; ++s) {
      if (f.cluster.wal(s, 0).truncated_bytes() == 0) return false;
    }
    return true;
  });

  int leader = f.leader();
  ASSERT_GE(leader, 0);
  EXPECT_GE(f.replica(leader).stats().checkpoints, 1u);
  for (int s = 0; s < 5; ++s) {
    EXPECT_GT(f.cluster.wal(s, 0).truncated_bytes(), 0u) << "server " << s;
    EXPECT_GT(f.replica(s).snapshot_applied(), 0u) << "server " << s;
    // Per-node snapshot storage is the coded fragment, ~|state|/X — far
    // smaller than the full image (X = 3 here).
    EXPECT_GT(f.cluster.snap_store(s, 0).stored_bytes(), 0u);
    EXPECT_LT(f.cluster.snap_store(s, 0).stored_bytes(),
              static_cast<uint64_t>(kKeys) * 256)
        << "fragment should be a fraction of full state";
  }

  // The surviving WAL holds only the compaction head plus the post-snapshot
  // suffix — far fewer records than the total slots ever appended.
  int follower = (leader + 1) % 5;
  size_t records = 0;
  f.cluster.wal(follower, 0).replay([&](BytesView, storage::WalPos) { records++; });
  EXPECT_LT(records, static_cast<size_t>(kKeys))
      << "restart must replay only the post-snapshot suffix";

  // Restart that follower: it reconstructs the base image from fragments,
  // replays the suffix, and converges.
  consensus::Slot target = f.replica(leader).last_applied();
  f.cluster.crash_server(follower);
  f.world.run_for(200 * kMillis);
  f.cluster.restart_server(follower);
  f.run_until([&] {
    return f.replica(follower).state_ready() &&
           f.replica(follower).last_applied() >= target;
  });
  EXPECT_TRUE(f.replica(follower).state_ready());
  EXPECT_GE(f.replica(follower).last_applied(), target);
  EXPECT_GE(f.replica(follower).stats().snapshot_installs, 1u);
  EXPECT_EQ(f.cluster.server(follower, 0)->store().size(),
            f.cluster.server(leader, 0)->store().size());

  // Reads still serve every value written before the snapshot.
  for (int i : {0, 7, 31, kKeys - 1}) {
    auto got = f.get("k" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << "k" << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i));
  }
}

// Satellite: a replica partitioned long enough that its gap falls below the
// leader's log start converges through InstallSnapshot, and the final state
// matches a no-snapshot control run byte for byte.
TEST(SnapshotSim, LaggingReplicaConvergesViaInstallSnapshot) {
  auto run_workload = [](SnapFixture& f, bool with_partition) {
    const int kPhase1 = 20, kTotal = 80;
    for (int i = 0; i < kPhase1; ++i) {
      ASSERT_TRUE(f.put("k" + std::to_string(i), value_for(i)).is_ok());
    }
    if (with_partition) {
      std::set<NodeId> lagging{endpoint_id(4, 0)};
      std::set<NodeId> rest;
      for (int s = 0; s < 4; ++s) rest.insert(endpoint_id(s, 0));
      f.cluster.network().partition(lagging, rest);
    }
    for (int i = kPhase1; i < kTotal; ++i) {
      ASSERT_TRUE(f.put("k" + std::to_string(i % 40), value_for(i)).is_ok());
    }
  };

  SimClusterOptions opts;
  opts.replica.checkpoint_interval_slots = 16;
  SnapFixture f(opts);
  run_workload(f, /*with_partition=*/true);

  int leader = f.leader();
  ASSERT_GE(leader, 0);
  ASSERT_NE(leader, 4);
  // Wait until the leader's log start has moved past the lagging node's
  // applied index: catch-up alone can no longer close the gap.
  f.run_until([&] {
    return f.replica(leader).log_start() > f.replica(4).last_applied() + 1;
  });
  ASSERT_GT(f.replica(leader).log_start(), f.replica(4).last_applied() + 1)
      << "gap must predate the leader's log start for this test to bite";

  f.cluster.network().heal_partitions();
  consensus::Slot target = f.replica(leader).last_applied();
  f.run_until([&] { return f.replica(4).last_applied() >= target; });
  EXPECT_GE(f.replica(4).last_applied(), target);
  EXPECT_GE(f.replica(4).stats().snapshot_installs, 1u)
      << "the gap can only close through InstallSnapshot";

  // Control run: identical workload, snapshots off, no partition. The final
  // KV state must be identical — compaction changes cost, not semantics.
  SimClusterOptions control_opts;
  control_opts.replica.checkpoint_interval_slots = 0;
  SnapFixture control(control_opts);
  run_workload(control, /*with_partition=*/false);

  auto snap_state = leader_state(f);
  auto control_state = leader_state(control);
  EXPECT_FALSE(snap_state.empty());
  EXPECT_EQ(snap_state, control_state);
}

// Evicting shares behind the horizon never loses data while checkpoints
// compact the log underneath: after a failover the new leader still serves
// every key — pre-snapshot values from the erasure-coded checkpoint, later
// ones by decoding shares its peers read back from their WALs.
TEST(SnapshotSim, EvictedSharesKeepDataReadable) {
  SimClusterOptions opts;
  opts.replica.checkpoint_interval_slots = 16;
  opts.replica.payload_cache_slots = 8;
  SnapFixture f(opts);

  auto total_evicted = [&] {
    uint64_t evicted = 0;
    for (int s = 0; s < 5; ++s) evicted += f.replica(s).stats().shares_evicted;
    return evicted;
  };
  int keys = 0;
  const int kKeys = 60;
  while (keys < 240 && (keys < kKeys || total_evicted() == 0)) {
    ASSERT_TRUE(f.put("k" + std::to_string(keys % kKeys), value_for(keys % kKeys)).is_ok())
        << keys;
    keys++;
  }
  EXPECT_GT(total_evicted(), 0u) << "no share was ever evicted";

  // Failover: the new leader's rows are incomplete shares, and every peer's
  // log has evicted the shares behind its horizon.
  int old_leader = f.leader();
  ASSERT_GE(old_leader, 0);
  f.cluster.crash_server(old_leader);
  f.run_until([&] {
    int l = f.leader();
    return l >= 0 && l != old_leader;
  });
  ASSERT_GE(f.leader(), 0);

  for (int i = 0; i < kKeys; ++i) {
    auto got = f.get("k" + std::to_string(i));
    ASSERT_TRUE(got.is_ok()) << "k" << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), value_for(i)) << "k" << i;
  }
}

}  // namespace
}  // namespace rspaxos::kv
