// Elastic resharding over the simulated cluster (DESIGN.md §14): online
// shard migration under a skewed write workload with zero acked-write loss,
// crash of the source leader mid-copy (janitor abort + convergence), the
// background balancer moving a hot shard and spreading leaders, and the
// Zipfian generator actually skewing per-shard load the way the balancer's
// input assumes.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "kv/cluster.h"
#include "kv/migration.h"
#include "load/open_loop.h"

namespace rspaxos::kv {
namespace {

constexpr int kShards = 4;

struct ReshardFixture {
  sim::SimWorld world;
  SimCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit ReshardFixture(SimClusterOptions opts, uint64_t seed = 42)
      : world(seed), cluster(&world, tuned(opts)) {
    cluster.wait_for_leaders();
    KvClient::Options copts;
    copts.request_timeout = 500 * kMillis;
    copts.max_attempts = 400;
    client = cluster.make_client(0, copts);
  }

  static SimClusterOptions tuned(SimClusterOptions opts) {
    opts.num_shards = kShards;
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

  Status del(const std::string& key) {
    std::optional<Status> out;
    client->del(key, [&](Status s) { out = s; });
    run_until([&] { return out.has_value(); });
    return out.value_or(Status::timeout("sim ended"));
  }

  template <typename Pred>
  void run_until(Pred done, DurationMicros max = 60 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (!done() && world.now() < deadline) world.run_for(1 * kMillis);
  }

  /// Newest routing map any LIVE host has published.
  std::shared_ptr<const ShardMap> newest_map() const {
    std::shared_ptr<const ShardMap> best;
    for (int s = 0; s < cluster.options().num_servers; ++s) {
      if (!cluster.server_alive(s)) continue;
      auto* host = const_cast<SimCluster&>(cluster).host(s);
      if (host == nullptr) continue;
      auto m = host->routing()->snapshot();
      if (!best || m->epoch > best->epoch) best = std::move(m);
    }
    return best;
  }
};

/// The i-th distinct key (prefix "rs/") routing to `shard` under kShards.
std::string key_in_shard(uint32_t shard, int i) {
  int found = 0;
  for (int n = 0;; ++n) {
    std::string key = "rs/" + std::to_string(n);
    if (shard_of(key, kShards) == shard && found++ == i) return key;
  }
}

Bytes value_of(int version, size_t len = 512) {
  Bytes v(len, static_cast<uint8_t>('a' + version % 26));
  std::string tag = std::to_string(version);
  for (size_t i = 0; i < tag.size() && i < v.size(); ++i) v[i] = static_cast<uint8_t>(tag[i]);
  return v;
}

// The tentpole scenario: migrate a shard between groups while a skewed write
// workload keeps committing into it. Every write acked at ANY point — before,
// during, or after the move — must read back its exact last value from the
// new owner, and the source group must eventually hold none of the shard.
TEST(Reshard, MigrationCompletesUnderLoad) {
  SimClusterOptions opts;
  opts.num_groups = 2;
  ReshardFixture f(opts);
  // Identity map: shard 2 starts in group 0 (2 % 2); move it to group 1.
  const uint32_t kShard = 2, kFrom = 0, kTo = 1;

  // Seed the shard, plus one key that gets deleted pre-move (the copy must
  // not resurrect it at the destination).
  const int kKeys = 48;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back(key_in_shard(kShard, i));
  std::map<std::string, int> acked;  // key -> last acked version
  int version = 0;
  for (const auto& k : keys) {
    ++version;
    ASSERT_TRUE(f.put(k, value_of(version)).is_ok()) << k;
    acked[k] = version;
  }
  std::string doomed = key_in_shard(kShard, kKeys);
  ASSERT_TRUE(f.put(doomed, value_of(0)).is_ok());
  ASSERT_TRUE(f.del(doomed).is_ok());

  int src = f.cluster.leader_server_of(static_cast<int>(kFrom));
  ASSERT_GE(src, 0);
  f.cluster.server(src, static_cast<int>(kFrom))->start_migration(kShard, kTo);

  // Skewed write-through: hammer a small hot set of the migrating shard
  // (plus a rotating cold tail) until the flip lands. kRetry during the seal
  // window and kWrongShard after the flip are absorbed by the client — the
  // put either acks (and must survive) or fails (and carries no obligation).
  auto moved = [&] {
    auto m = f.newest_map();
    return m && m->group_of(kShard) == kTo && m->migrations.empty();
  };
  size_t during = 0;
  TimeMicros deadline = f.world.now() + 120 * kSeconds;
  for (size_t i = 0; !moved() && f.world.now() < deadline; ++i) {
    const std::string& k = (i % 4 != 3) ? keys[i % 3]  // hot 3 keys take 3/4
                                        : keys[i % keys.size()];
    ++version;
    if (f.put(k, value_of(version)).is_ok()) {
      acked[k] = version;
      ++during;
    }
  }
  ASSERT_TRUE(moved()) << "migration did not complete";
  EXPECT_GT(during, 0u) << "no write committed during the migration window";
  EXPECT_GE(f.newest_map()->epoch, 2u);  // prepare + flip

  // Zero acked-write loss: every acked key serves exactly its last acked
  // value from the new owner; the deleted key stays dead.
  for (const auto& [k, ver] : acked) {
    auto got = f.get(k);
    ASSERT_TRUE(got.is_ok()) << k;
    EXPECT_EQ(got.value(), value_of(ver)) << k;
  }
  auto dead = f.get(doomed);
  ASSERT_FALSE(dead.is_ok());
  EXPECT_EQ(dead.status().code(), Code::kNotFound);

  // The client converged onto the new map (it was redirected at least once
  // while chasing the old owner) and the source group GC'd the moved rows.
  EXPECT_GE(f.client->routing_epoch(), 2u);
  EXPECT_GT(f.client->stats().wrong_shard, 0u);
  f.run_until([&] {
    for (int s = 0; s < f.cluster.options().num_servers; ++s) {
      size_t leftover = 0;
      f.cluster.server(s, static_cast<int>(kFrom))
          ->store()
          .for_each([&](const std::string& k, const LocalStore::Record&) {
            if (!is_meta_key(k) && shard_of(k, kShards) == kShard) ++leftover;
          });
      if (leftover != 0) return false;
    }
    return true;
  });
  for (int s = 0; s < f.cluster.options().num_servers; ++s) {
    size_t leftover = 0;
    f.cluster.server(s, static_cast<int>(kFrom))
        ->store()
        .for_each([&](const std::string& k, const LocalStore::Record&) {
          if (!is_meta_key(k) && shard_of(k, kShards) == kShard) ++leftover;
        });
    EXPECT_EQ(leftover, 0u) << "server " << s << " kept rows after GC";
  }
}

// Crash the source-group leader mid-copy. The migration record it committed
// into the routing map is now orphaned; the NEXT source leader's janitor must
// abort it (unseal + remove the record) and the shard keeps serving from the
// original group with every previously acked write intact.
TEST(Reshard, CrashSourceLeaderMidCopyAbortsCleanly) {
  SimClusterOptions opts;
  opts.num_groups = 2;
  opts.spread_leaders = true;  // group 0's leader is not every group's leader
  ReshardFixture f(opts);
  const uint32_t kShard = 2, kFrom = 0, kTo = 1;

  // Enough data that the copy spans several stop-and-wait chunks — the crash
  // window below reliably lands mid-copy.
  const int kKeys = 200;
  std::map<std::string, int> acked;
  int version = 0;
  for (int i = 0; i < kKeys; ++i) {
    std::string k = key_in_shard(kShard, i);
    ++version;
    ASSERT_TRUE(f.put(k, value_of(version, 4096)).is_ok()) << k;
    acked[k] = version;
  }

  int src = f.cluster.leader_server_of(static_cast<int>(kFrom));
  ASSERT_GE(src, 0);
  KvServer* srv = f.cluster.server(src, static_cast<int>(kFrom));
  srv->start_migration(kShard, kTo);
  // Run until the prepare epoch is visible on ANOTHER machine (the meta
  // commit is durable cluster-wide) and the destination has acknowledged at
  // least one chunk, then kill the source leader while its driver is still
  // copying.
  int witness = (src + 1) % f.cluster.options().num_servers;
  auto copying = [&] {
    const MigrationDriver* d = srv->migration();
    return d != nullptr && std::string(d->phase_name()) == "copy" && d->moved_bytes() > 0;
  };
  f.run_until(
      [&] { return f.cluster.host(witness)->routing()->epoch() >= 1 && copying(); });
  ASSERT_GE(f.cluster.host(witness)->routing()->epoch(), 1u);
  const MigrationDriver* driver = srv->migration();
  ASSERT_NE(driver, nullptr);
  ASSERT_STREQ(driver->phase_name(), "copy") << "the crash would miss the copy phase";
  ASSERT_GT(driver->moved_bytes(), 0u) << "no chunk acknowledged before the crash";
  f.cluster.crash_server(src);

  // New source leader -> janitor adopts the orphan -> abort: record removed,
  // shard still owned by the original group, seal (if any) lifted.
  f.run_until([&] {
    int l = f.cluster.leader_server_of(static_cast<int>(kFrom));
    if (l < 0 || l == src) return false;
    auto m = f.newest_map();
    return m && m->migrations.empty() && m->group_of(kShard) == kFrom;
  });
  auto m = f.newest_map();
  ASSERT_TRUE(m != nullptr);
  EXPECT_TRUE(m->migrations.empty()) << "orphaned migration not aborted";
  EXPECT_EQ(m->group_of(kShard), kFrom);
  int l = f.cluster.leader_server_of(static_cast<int>(kFrom));
  ASSERT_GE(l, 0);
  EXPECT_FALSE(f.cluster.server(l, static_cast<int>(kFrom))->shard_sealed(kShard));

  // The shard keeps serving: new writes commit, old acked writes survive
  // (recovery reads where the new leader holds only shares).
  std::string probe = key_in_shard(kShard, 0);
  ++version;
  ASSERT_TRUE(f.put(probe, value_of(version)).is_ok());
  acked[probe] = version;
  for (const auto& [k, ver] : acked) {
    auto got = f.get(k);
    ASSERT_TRUE(got.is_ok()) << k;
    ASSERT_FALSE(got.value().empty()) << k;
    EXPECT_EQ(got.value()[0], value_of(ver)[0]) << k;
  }

  // The crashed machine rejoins and catches up.
  f.cluster.restart_server(src);
  f.run_until([&] {
    auto* s0 = f.cluster.server(src, static_cast<int>(kFrom));
    return s0 != nullptr && s0->replica().state_ready();
  });
  EXPECT_TRUE(f.cluster.server(src, static_cast<int>(kFrom))->replica().state_ready());
}

// The background balancer (meta-leader-elected) notices one group absorbing
// the whole write load and migrates a shard off it without any operator
// involvement.
TEST(Reshard, BalancerMovesShardOffHotGroup) {
  SimClusterOptions opts;
  opts.num_groups = 2;
  opts.balancer = true;
  opts.balancer_opts.interval = 300 * kMillis;
  opts.balancer_opts.min_writes = 40;
  opts.balancer_opts.hot_ratio = 1.5;
  ReshardFixture f(opts);

  // Identity map: shards 0 and 2 both live in group 0. Drive all writes at
  // them (shard 0 hottest) — the balancer should shed group 0's second-
  // hottest shard (2) to idle group 1.
  std::string hot0 = key_in_shard(0, 0), hot1 = key_in_shard(0, 1);
  std::string warm = key_in_shard(2, 0);
  auto rebalanced = [&] {
    auto m = f.newest_map();
    if (!m || !m->migrations.empty()) return false;
    return m->group_of(0) == 1 || m->group_of(2) == 1;
  };
  TimeMicros deadline = f.world.now() + 120 * kSeconds;
  for (size_t i = 0; !rebalanced() && f.world.now() < deadline; ++i) {
    const std::string& k = (i % 3 == 2) ? warm : (i % 2 ? hot1 : hot0);
    ASSERT_TRUE(f.put(k, value_of(static_cast<int>(i), 128)).is_ok());
  }
  ASSERT_TRUE(rebalanced()) << "balancer never moved a shard";
  uint64_t proposed = 0;
  for (int s = 0; s < f.cluster.options().num_servers; ++s) {
    if (f.cluster.balancer(s)) proposed += f.cluster.balancer(s)->shard_moves_proposed();
  }
  EXPECT_GE(proposed, 1u);
  EXPECT_GE(f.newest_map()->epoch, 2u);

  // Data written to the moved shard before the move still serves after it.
  auto got = f.get(warm);
  ASSERT_TRUE(got.is_ok());
}

// Leader spreading: a cluster booted with every group led by server 0
// converges to a spread where no machine leads more than idle+slack groups.
TEST(Reshard, BalancerSpreadsLeaders) {
  SimClusterOptions opts;
  opts.num_groups = 4;
  opts.spread_leaders = false;  // server 0 boots as leader of all 4 groups
  opts.balancer = true;
  opts.balancer_opts.interval = 300 * kMillis;
  opts.balancer_opts.move_shards = false;
  opts.balancer_opts.spread_leaders = true;
  opts.balancer_opts.leader_slack = 2;
  ReshardFixture f(opts);

  auto max_led = [&] {
    std::vector<int> led(static_cast<size_t>(f.cluster.options().num_servers), 0);
    for (int g = 0; g < f.cluster.options().num_groups; ++g) {
      int l = f.cluster.leader_server_of(g);
      if (l < 0) return 1 << 20;  // mid-election; not converged
      led[static_cast<size_t>(l)]++;
    }
    int m = 0;
    for (int c : led) m = std::max(m, c);
    return m;
  };
  ASSERT_EQ(max_led(), 4) << "expected server 0 to lead every group at boot";
  f.run_until([&] { return max_led() <= 2; }, 120 * kSeconds);
  EXPECT_LE(max_led(), 2) << "balancer failed to spread leaders";
  uint64_t moves = 0;
  for (int s = 0; s < f.cluster.options().num_servers; ++s) {
    if (f.cluster.balancer(s)) moves += f.cluster.balancer(s)->leader_moves_proposed();
  }
  EXPECT_GE(moves, 1u);
}

// The Zipfian generator option: per-shard applied-write counters (the
// balancer's input signal) must match the analytic Zipf mass of the keys
// hashed into each shard — i.e. the skew is real, not just a different
// uniform.
TEST(Reshard, ZipfWorkloadSkewsShardLoad) {
  sim::SimWorld world(7);
  SimClusterOptions opts = ReshardFixture::tuned({});
  opts.num_groups = 1;  // routing is not under test here
  SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();
  KvClient::Options copts;
  copts.request_timeout = 500 * kMillis;
  auto client = cluster.make_client(0, copts);
  NodeContext* ctx = cluster.network().node(kClientBase);

  load::OpenLoopSpec spec;
  spec.qps = 500;
  spec.value_size = 128;
  spec.key_space = 256;
  spec.zipf_s = 1.3;
  spec.duration = 2 * kSeconds;
  load::OpenLoopGen gen(ctx, client.get(), spec);
  bool finished = false;
  gen.start([&finished] { finished = true; });
  TimeMicros deadline = world.now() + 60 * kSeconds;
  while (!finished && world.now() < deadline) world.run_for(5 * kMillis);
  ASSERT_TRUE(finished);
  ASSERT_GT(gen.recorder().ok(), 500u);

  // Analytic per-shard mass under Zipf(1.3) over the generator's key space.
  double expect[kShards] = {0, 0, 0, 0};
  double norm = 0;
  for (int r = 0; r < spec.key_space; ++r) norm += 1.0 / std::pow(r + 1.0, spec.zipf_s);
  for (int r = 0; r < spec.key_space; ++r) {
    expect[shard_of("k-" + std::to_string(r), kShards)] +=
        (1.0 / std::pow(r + 1.0, spec.zipf_s)) / norm;
  }
  uint64_t counts[kShards] = {0, 0, 0, 0};
  uint64_t total = 0;
  for (uint32_t s = 0; s < kShards; ++s) {
    counts[s] = cluster.host(0)->shard_writes(s);
    total += counts[s];
  }
  ASSERT_GT(total, 0u);
  for (uint32_t s = 0; s < kShards; ++s) {
    double got = static_cast<double>(counts[s]) / static_cast<double>(total);
    EXPECT_NEAR(got, expect[s], 0.06) << "shard " << s;
  }
  // The shard holding the hottest key dominates under s = 1.3 (rank-0 mass
  // alone is ~25%); uniform load would put every shard near 25%.
  uint32_t hot = static_cast<uint32_t>(shard_of("k-0", kShards));
  EXPECT_GT(expect[hot], 0.3) << "test geometry broken: hot mass too diluted";
  for (uint32_t s = 0; s < kShards; ++s) {
    if (s != hot) {
      EXPECT_GT(counts[hot], counts[s]);
    }
  }
}

}  // namespace
}  // namespace rspaxos::kv
