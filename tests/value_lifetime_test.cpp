// Value lifetime (DESIGN.md §15): a value has one resident buffer per
// replica. The log entry's share, its cached payload and the KV row that
// stores the value are handles on the same immutable allocation, checked here
// by pointer identity; a recovery read of an old slot must not leave a
// cached payload below the GC floor, where nothing would ever drop it; and
// behind the horizon the log holds no value buffer at all, yet every
// protocol path still gets the evicted shares back from the WALs. In flight,
// the accept frame the encoder filled is the buffer the link delivers (on
// retransmits too), and a retained WAL record's body is the log's share.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "consensus/msg.h"
#include "ec/policy.h"
#include "kv/cluster.h"

namespace rspaxos::kv {
namespace {

struct LifetimeFixture {
  sim::SimWorld world{7};
  SimCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit LifetimeFixture(int servers, uint64_t payload_cache_slots = 512)
      : cluster(&world, options(servers, payload_cache_slots)) {
    cluster.wait_for_leaders();
    KvClient::Options copts;
    copts.request_timeout = 500 * kMillis;
    client = cluster.make_client(0, copts);
  }

  static SimClusterOptions options(int servers, uint64_t payload_cache_slots) {
    SimClusterOptions o;
    o.num_servers = servers;  // f = 1: θ(1,3) at 3 servers, θ(3,5) at 5
    o.replica.heartbeat_interval = 20 * kMillis;
    o.replica.election_timeout_min = 150 * kMillis;
    o.replica.election_timeout_max = 300 * kMillis;
    o.replica.lease_duration = 100 * kMillis;
    o.replica.payload_cache_slots = payload_cache_slots;
    return o;
  }

  template <typename Pred>
  bool run_until(Pred done, DurationMicros max = 30 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (!done() && world.now() < deadline) world.run_for(5 * kMillis);
    return done();
  }

  void put_all(const std::string& prefix, int count, size_t len) {
    int done = 0;
    for (int i = 0; i < count; ++i) {
      client->put(prefix + std::to_string(i), Bytes(len, static_cast<uint8_t>(i + 1)),
                  [&](Status s) {
                    EXPECT_TRUE(s.is_ok()) << s.to_string();
                    done++;
                  });
    }
    ASSERT_TRUE(run_until([&] { return done == count; }));
    world.run_for(300 * kMillis);  // commits reach every follower
  }

  /// One put at a time, so each takes its own log slot.
  void put_each(const std::string& prefix, int count, size_t len, uint8_t seed) {
    for (int i = 0; i < count; ++i) {
      std::optional<Status> out;
      client->put(prefix + std::to_string(i), Bytes(len + i, static_cast<uint8_t>(seed + i)),
                  [&](Status s) { out = s; });
      ASSERT_TRUE(run_until([&] { return out.has_value(); }));
      ASSERT_TRUE(out->is_ok()) << out->to_string();
    }
  }

  Bytes get(const std::string& key) {
    std::optional<StatusOr<Bytes>> got;
    client->get(key, [&](StatusOr<Bytes> r) { got = std::move(r); });
    EXPECT_TRUE(run_until([&] { return got.has_value(); }));
    if (!got.has_value() || !got->is_ok()) return {};
    return std::move(*got).value();
  }

  /// Crashes the leader and waits for a successor; returns the new leader.
  int fail_over() {
    int old = cluster.leader_server_of(0);
    EXPECT_GE(old, 0);
    cluster.crash_server(old);
    EXPECT_TRUE(run_until([&] {
      int l = cluster.leader_server_of(0);
      return l >= 0 && l != old;
    }));
    return cluster.leader_server_of(0);
  }
};

/// On every live server: each store row references exactly the buffer its
/// log entry holds, and in full-copy mode an entry holds one buffer only.
void expect_one_copy(SimCluster& cluster, int servers, bool full_copy) {
  for (int s = 0; s < servers; ++s) {
    if (!cluster.server_alive(s)) continue;
    KvServer* srv = cluster.server(s, 0);
    size_t rows = 0;
    srv->store().for_each([&](const std::string& key, const LocalStore::Record& rec) {
      ++rows;
      auto bufs = srv->replica().entry_buffers_for_test(rec.slot);
      ASSERT_NE(rec.data.id(), nullptr) << "server " << s << " key " << key;
      if (full_copy) {
        EXPECT_EQ(bufs.payload, nullptr) << "second buffer at server " << s << " key " << key;
      }
      const void* expected = (rec.complete && !full_copy) ? bufs.payload : bufs.share;
      EXPECT_EQ(rec.data.id(), expected)
          << "server " << s << " key " << key << (rec.complete ? " (complete)" : " (share)");
    });
    EXPECT_GT(rows, 0u) << "server " << s;
  }
}

class OneCopy : public ::testing::TestWithParam<int> {};

TEST_P(OneCopy, StoreRowsAndLogEntriesShareOneBuffer) {
  const int servers = GetParam();
  const bool full_copy = servers == 3;
  LifetimeFixture f(servers);
  f.put_all("k", 24, 3000);
  expect_one_copy(f.cluster, servers, full_copy);

  // After a failover the new leader's first read of a share-only row is a
  // recovery read (θ(3,5)); the completed row and the log's cache must
  // reference the one decoded buffer.
  int leader = f.fail_over();
  ASSERT_GE(leader, 0);
  EXPECT_EQ(f.get("k5"), Bytes(3000, 6));
  f.world.run_for(300 * kMillis);
  KvServer* srv = f.cluster.server(leader, 0);
  if (!full_copy) EXPECT_GE(srv->stats().recovery_reads, 1u);
  const LocalStore::Record* rec = srv->store().find("k5");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->complete);
  expect_one_copy(f.cluster, servers, full_copy);

  // recover_payload hands out the log's own buffer once it is resident.
  std::optional<SharedBytes> got;
  srv->replica().recover_payload(rec->slot, [&](StatusOr<SharedBytes> r) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    got = std::move(r).value();
  });
  ASSERT_TRUE(f.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(got->id(), rec->data.id());
}

INSTANTIATE_TEST_SUITE_P(Theta, OneCopy, ::testing::Values(3, 5),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return p.param == 3 ? std::string("x1_n3") : std::string("x3_n5");
                         });

class InFlight : public ::testing::TestWithParam<int> {};

/// The leader's retained accept frame and the frame the sim link delivers
/// share one allocation, on the first send and on the retransmit of a
/// dropped accept; and on every replica each retained WAL record of a slot
/// references the share buffer its log entry holds.
TEST_P(InFlight, AcceptFramesAndWalRecordsReferenceOneBuffer) {
  const int servers = GetParam();
  LifetimeFixture f(servers);
  const int leader = f.cluster.leader_server_of(0);
  ASSERT_GE(leader, 0);
  const consensus::Replica& lead = f.cluster.server(leader, 0)->replica();

  bool drop_first = false;
  size_t same_frame = 0, retransmits = 0;
  std::map<std::pair<NodeId, consensus::Slot>, const void*> dropped;
  f.cluster.network().set_delivery_tap(
      [&](NodeId from, NodeId to, MsgType type, const SharedBytes& payload) {
        if (type != MsgType::kAccept || from != endpoint_id(leader, 0)) return true;
        auto msg = consensus::AcceptMsg::decode(payload);
        EXPECT_TRUE(msg.is_ok());
        if (!msg.is_ok()) return true;
        const consensus::Slot slot = msg.value().slot;
        // Null once the slot committed without this follower.
        const void* retained = lead.accept_frame_for_test(slot, to);
        if (retained != nullptr) {
          EXPECT_EQ(payload.id(), retained) << "slot " << slot << " to " << to;
          ++same_frame;
        }
        auto key = std::make_pair(to, slot);
        auto it = dropped.find(key);
        if (it != dropped.end()) {
          EXPECT_EQ(payload.id(), it->second) << "retransmit of slot " << slot << " to " << to;
          ++retransmits;
          dropped.erase(it);
          return true;
        }
        if (!drop_first) return true;
        dropped.emplace(key, payload.id());
        return false;
      });
  f.put_all("a", 8, 3000);
  EXPECT_GT(same_frame, 0u);

  // Every follower loses the first copy of each accept, so no instance
  // reaches a quorum until the leader retransmits its retained frames.
  drop_first = true;
  f.put_all("b", 8, 3000);
  drop_first = false;
  EXPECT_GT(retransmits, 0u);
  f.cluster.network().set_delivery_tap(nullptr);

  size_t checked = 0;
  for (int s = 0; s < servers; ++s) {
    const consensus::Replica& r = f.cluster.server(s, 0)->replica();
    for (consensus::Slot slot = r.log_start(); slot <= r.last_applied(); ++slot) {
      auto bufs = r.entry_buffers_for_test(slot);
      if (bufs.share == nullptr || !bufs.wal_pos.valid()) continue;
      const storage::WalRecord* rec = f.cluster.host_wal(s).retained(0, bufs.wal_pos);
      ASSERT_NE(rec, nullptr) << "server " << s << " slot " << slot;
      EXPECT_EQ(rec->body.id(), bufs.share) << "server " << s << " slot " << slot;
      ++checked;
    }
  }
  EXPECT_GT(checked, static_cast<size_t>(servers));
}

INSTANTIATE_TEST_SUITE_P(Theta, InFlight, ::testing::Values(3, 5),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return p.param == 3 ? std::string("x1_n3") : std::string("x3_n5");
                         });

TEST(ValueLifetime, RecoveredPayloadsBelowTheGcFloorAreNotCached) {
  constexpr uint64_t kCacheSlots = 8;
  LifetimeFixture f(5, kCacheSlots);
  f.put_all("old", 30, 2000);
  int leader = f.fail_over();
  ASSERT_GE(leader, 0);
  // Recovery reads of slots already below the new leader's payload GC floor.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(f.get("old" + std::to_string(i)), Bytes(2000, static_cast<uint8_t>(i + 1)));
  }
  EXPECT_GE(f.cluster.server(leader, 0)->stats().recovery_reads, 10u);
  f.put_all("new", 20, 2000);

  for (int s = 0; s < 5; ++s) {
    if (!f.cluster.server_alive(s)) continue;
    const consensus::Replica& r = f.cluster.server(s, 0)->replica();
    ASSERT_GT(r.last_applied(), kCacheSlots);
    const consensus::Slot floor = r.last_applied() - kCacheSlots;
    for (consensus::Slot slot = r.log_start(); slot <= floor; ++slot) {
      EXPECT_EQ(r.entry_buffers_for_test(slot).payload, nullptr)
          << "server " << s << " slot " << slot << " (floor " << floor << ")";
    }
  }
}

/// On every live server, no log entry at or below the horizon holds a value
/// buffer: neither a share nor a cached payload. A superseded value therefore
/// has no holder left at all; a live one only its KV row.
void expect_nothing_resident_behind_horizon(SimCluster& cluster, int servers,
                                            uint64_t horizon) {
  for (int s = 0; s < servers; ++s) {
    if (!cluster.server_alive(s)) continue;
    const consensus::Replica& r = cluster.server(s, 0)->replica();
    ASSERT_GT(r.last_applied(), horizon) << "server " << s;
    const consensus::Slot floor = r.last_applied() - horizon;
    for (consensus::Slot slot = r.log_start(); slot <= floor; ++slot) {
      auto bufs = r.entry_buffers_for_test(slot);
      EXPECT_EQ(bufs.share, nullptr) << "server " << s << " slot " << slot;
      EXPECT_EQ(bufs.payload, nullptr) << "server " << s << " slot " << slot;
    }
    EXPECT_GT(r.stats().shares_evicted, 0u) << "server " << s;
  }
}

class Eviction : public ::testing::TestWithParam<int> {};

TEST_P(Eviction, EvictedSharesServeCatchupAndRecoveryReads) {
  constexpr uint64_t kHorizon = 8;
  const int servers = GetParam();
  LifetimeFixture f(servers, kHorizon);
  f.put_each("old", 6, 3000, 0x40);

  // A follower misses everything from here on, well past the horizon, while
  // the others overwrite a small key set (superseding most of what they log).
  const int leader = f.cluster.leader_server_of(0);
  ASSERT_GE(leader, 0);
  const int lagging = (leader + 1) % servers;
  std::set<NodeId> rest;
  for (int s = 0; s < servers; ++s) {
    if (s != lagging) rest.insert(endpoint_id(s, 0));
  }
  f.cluster.network().partition({endpoint_id(lagging, 0)}, rest);
  for (int round = 0; round < 4; ++round) {
    f.put_each("hot", 10, 2000 + 100 * round, static_cast<uint8_t>(round * 16));
  }
  f.cluster.network().heal_partitions();
  const consensus::Replica& lead = f.cluster.server(leader, 0)->replica();
  const consensus::Replica& lag = f.cluster.server(lagging, 0)->replica();
  ASSERT_TRUE(f.run_until([&] { return lag.last_applied() >= lead.last_applied(); }));
  f.world.run_for(300 * kMillis);  // caught-up records land, then evict
  expect_nothing_resident_behind_horizon(f.cluster, servers, kHorizon);

  // The follower applied exactly what the leader holds: the full value in
  // full-copy mode, otherwise the share the leader's value encodes to.
  const consensus::GroupConfig& cfg = lag.config();
  const ec::EcPolicy& code = ec::PolicyCache::get(cfg.code, cfg.x, cfg.n());
  const int lag_idx = cfg.index_of(endpoint_id(lagging, 0));
  size_t compared = 0;
  f.cluster.server(leader, 0)->store().for_each(
      [&](const std::string& key, const LocalStore::Record& want) {
        ASSERT_TRUE(want.complete) << key;
        const LocalStore::Record* got = f.cluster.server(lagging, 0)->store().find(key);
        ASSERT_NE(got, nullptr) << key;
        ++compared;
        if (got->complete) {
          EXPECT_TRUE(std::equal(got->value().begin(), got->value().end(),
                                 want.value().begin(), want.value().end()))
              << key;
        } else {
          EXPECT_EQ(Bytes(got->data.begin(), got->data.end()),
                    code.encode_share(want.data, lag_idx))
              << key;
        }
      });
  EXPECT_EQ(compared, 16u);

  auto readbacks = [&] {
    uint64_t n = 0;
    for (int s = 0; s < servers; ++s) {
      if (f.cluster.server_alive(s)) n += f.cluster.server(s, 0)->replica().stats().share_readbacks;
    }
    return n;
  };
  EXPECT_GT(readbacks(), 0u) << "catch-up past the horizon reads shares back";

  // Recovery reads after a leader crash: the "old" keys were last written
  // far behind every horizon, so at θ(3,5) the new leader decodes shares
  // that it and its peers read back from their WALs.
  ASSERT_GE(f.fail_over(), 0);
  const uint64_t before = readbacks();
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(f.get("old" + std::to_string(i)), Bytes(3000 + i, static_cast<uint8_t>(0x40 + i)))
        << "old" << i;
  }
  if (servers == 5) {
    EXPECT_GT(readbacks(), before);
  }
}

INSTANTIATE_TEST_SUITE_P(Theta, Eviction, ::testing::Values(3, 5),
                         [](const ::testing::TestParamInfo<int>& p) {
                           return p.param == 3 ? std::string("x1_n3") : std::string("x3_n5");
                         });

}  // namespace
}  // namespace rspaxos::kv
