// Tests for composite (batched) write instances: wire format, commit
// amortization, follower slice bookkeeping, recovery reads into a batch,
// ordering vs consistent reads, and deletes inside batches.
#include <gtest/gtest.h>

#include "kv/cluster.h"

namespace rspaxos::kv {
namespace {

struct BatchFixture {
  sim::SimWorld world{21};
  SimCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit BatchFixture(DurationMicros window = 5 * kMillis)
      : cluster(&world, options(window)) {
    cluster.wait_for_leaders();
    KvClient::Options copts;
    copts.request_timeout = 500 * kMillis;
    client = cluster.make_client(0, copts);
  }

  static SimClusterOptions options(DurationMicros window) {
    SimClusterOptions o;
    o.replica.heartbeat_interval = 20 * kMillis;
    o.replica.election_timeout_min = 150 * kMillis;
    o.replica.election_timeout_max = 300 * kMillis;
    o.replica.lease_duration = 100 * kMillis;
    o.kv.batch_window = window;
    return o;
  }

  template <typename Pred>
  bool run_until(Pred done, DurationMicros max = 30 * kSeconds) {
    TimeMicros deadline = world.now() + max;
    while (!done() && world.now() < deadline) world.run_for(2 * kMillis);
    return done();
  }
};

TEST(BatchWire, HeaderRoundTrip) {
  BatchHeader h;
  h.items.push_back(BatchItem{Op::kPut, "alpha", 0, 100});
  h.items.push_back(BatchItem{Op::kDelete, "beta", 100, 0});
  h.items.push_back(BatchItem{Op::kPut, "gamma", 100, 77});
  Bytes enc = h.encode();
  EXPECT_EQ(peek_op(enc).value(), Op::kBatch);
  auto d = BatchHeader::decode(enc);
  ASSERT_TRUE(d.is_ok());
  ASSERT_EQ(d.value().items.size(), 3u);
  EXPECT_EQ(d.value().items[0].key, "alpha");
  EXPECT_EQ(d.value().items[1].op, Op::kDelete);
  EXPECT_EQ(d.value().items[2].offset, 100u);
  EXPECT_EQ(d.value().items[2].len, 77u);
}

TEST(BatchWire, RejectsNonBatchAndJunk) {
  CommandHeader h;
  h.op = Op::kPut;
  h.key = "x";
  EXPECT_FALSE(BatchHeader::decode(h.encode()).is_ok());
  EXPECT_FALSE(BatchHeader::decode(Bytes{}).is_ok());
  EXPECT_FALSE(peek_op(Bytes{}).is_ok());
}

TEST(Batching, ConcurrentWritesShareOneInstance) {
  BatchFixture f;
  int done = 0;
  constexpr int kWrites = 10;
  for (int i = 0; i < kWrites; ++i) {
    f.client->put("bk" + std::to_string(i), Bytes(200, static_cast<uint8_t>(i)),
                  [&](Status s) {
                    EXPECT_TRUE(s.is_ok());
                    done++;
                  });
  }
  ASSERT_TRUE(f.run_until([&] { return done == kWrites; }));
  int leader = f.cluster.leader_server_of(0);
  ASSERT_GE(leader, 0);
  const auto& stats = f.cluster.server(leader, 0)->stats();
  // All ten writes landed in very few composite instances.
  EXPECT_GE(stats.batches_committed, 1u);
  EXPECT_LE(f.cluster.server(leader, 0)->replica().stats().commits, 4u);
  // And every value reads back correctly.
  for (int i = 0; i < kWrites; ++i) {
    std::optional<Bytes> got;
    f.client->get("bk" + std::to_string(i), [&](StatusOr<Bytes> r) {
      ASSERT_TRUE(r.is_ok());
      got = std::move(r).value();
    });
    ASSERT_TRUE(f.run_until([&] { return got.has_value(); }));
    EXPECT_EQ(*got, Bytes(200, static_cast<uint8_t>(i)));
  }
}

TEST(Batching, FollowersTrackSlices) {
  BatchFixture f;
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    f.client->put("s" + std::to_string(i), Bytes(300 + i, 1), [&](Status) { done++; });
  }
  ASSERT_TRUE(f.run_until([&] { return done == 3; }));
  f.world.run_for(300 * kMillis);
  int leader = f.cluster.leader_server_of(0);
  for (int s = 0; s < 5; ++s) {
    if (s == leader) continue;
    const auto* rec = f.cluster.server(s, 0)->store().find("s1");
    ASSERT_NE(rec, nullptr) << "server " << s;
    EXPECT_FALSE(rec->complete);
    EXPECT_EQ(rec->slice_len, 301u);
    // Slice sits inside the instance payload.
    EXPECT_LE(rec->slice_off + rec->slice_len, rec->full_len);
  }
}

TEST(Batching, FollowerRowsOfOneBatchShareOneShareBuffer) {
  BatchFixture f(20 * kMillis);
  constexpr int kItems = 64;  // KvServer::kBatchMaxCount: one instance
  constexpr size_t kLen = 300;
  int done = 0;
  for (int i = 0; i < kItems; ++i) {
    f.client->put("fb" + std::to_string(i), Bytes(kLen, static_cast<uint8_t>(i)),
                  [&](Status s) {
                    EXPECT_TRUE(s.is_ok());
                    done++;
                  });
  }
  ASSERT_TRUE(f.run_until([&] { return done == kItems; }));
  f.world.run_for(300 * kMillis);
  int leader = f.cluster.leader_server_of(0);
  ASSERT_GE(leader, 0);
  // θ(3,5): one follower share is a third of the instance payload.
  const uint64_t share = (kItems * kLen + 2) / 3;
  for (int s = 0; s < 5; ++s) {
    if (s == leader) continue;
    const LocalStore& store = f.cluster.server(s, 0)->store();
    const LocalStore::Record* first = store.find("fb0");
    ASSERT_NE(first, nullptr) << "server " << s;
    for (int i = 1; i < kItems; ++i) {
      const LocalStore::Record* rec = store.find("fb" + std::to_string(i));
      ASSERT_NE(rec, nullptr) << "server " << s << " key " << i;
      EXPECT_EQ(rec->slot, first->slot) << "writes did not share one instance";
      EXPECT_EQ(rec->data.id(), first->data.id()) << "server " << s << " key " << i;
    }
    // Every row references the one instance share: about one share
    // resident, not one per key.
    EXPECT_GE(store.resident_bytes(), share) << "server " << s;
    EXPECT_LT(store.resident_bytes(), 2 * share) << "server " << s;
  }
}

TEST(Batching, RecoveryReadSlicesOneKeyOutOfTheBatch) {
  BatchFixture f;
  int done = 0;
  for (int i = 0; i < 5; ++i) {
    f.client->put("rr" + std::to_string(i), Bytes(128, static_cast<uint8_t>(0x40 + i)),
                  [&](Status) { done++; });
  }
  ASSERT_TRUE(f.run_until([&] { return done == 5; }));
  f.world.run_for(300 * kMillis);

  int old_leader = f.cluster.leader_server_of(0);
  f.cluster.crash_server(old_leader);
  ASSERT_TRUE(f.run_until([&] {
    int l = f.cluster.leader_server_of(0);
    return l >= 0 && l != old_leader;
  }));

  // Read one key: the new leader decodes the whole instance payload and
  // returns just this key's slice.
  std::optional<Bytes> got;
  f.client->get("rr3", [&](StatusOr<Bytes> r) {
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    got = std::move(r).value();
  });
  ASSERT_TRUE(f.run_until([&] { return got.has_value(); }));
  EXPECT_EQ(*got, Bytes(128, 0x43));
  int new_leader = f.cluster.leader_server_of(0);
  EXPECT_GE(f.cluster.server(new_leader, 0)->stats().recovery_reads, 1u);
}

TEST(Batching, DeleteInsideBatch) {
  BatchFixture f;
  bool put_done = false;
  f.client->put("doomed", to_bytes("x"), [&](Status) { put_done = true; });
  ASSERT_TRUE(f.run_until([&] { return put_done; }));
  int done = 0;
  f.client->put("kept", to_bytes("y"), [&](Status) { done++; });
  f.client->del("doomed", [&](Status) { done++; });
  ASSERT_TRUE(f.run_until([&] { return done == 2; }));

  std::optional<Status> missing;
  f.client->get("doomed", [&](StatusOr<Bytes> r) { missing = r.status(); });
  ASSERT_TRUE(f.run_until([&] { return missing.has_value(); }));
  EXPECT_EQ(missing->code(), Code::kNotFound);
  std::optional<Bytes> kept;
  f.client->get("kept", [&](StatusOr<Bytes> r) {
    ASSERT_TRUE(r.is_ok());
    kept = std::move(r).value();
  });
  ASSERT_TRUE(f.run_until([&] { return kept.has_value(); }));
  EXPECT_EQ(to_string(*kept), "y");
}

TEST(Batching, ConsistentReadFlushesTheBatch) {
  BatchFixture f(50 * kMillis);  // long window: reads must not wait it out
  bool put_acked = false;
  f.client->put("flush-k", to_bytes("v"), [&](Status) { put_acked = true; });
  // Immediately issue a consistent read from another client; it must flush
  // the queued batch and observe the value.
  auto reader = f.cluster.make_client(1);
  std::optional<StatusOr<Bytes>> read;
  reader->consistent_get("flush-k", [&](StatusOr<Bytes> r) { read = std::move(r); });
  ASSERT_TRUE(f.run_until([&] { return read.has_value() && put_acked; }));
  ASSERT_TRUE(read->is_ok()) << read->status().to_string();
  EXPECT_EQ(to_string(read->value()), "v");
}

TEST(Batching, SizeThresholdFlushesEarly) {
  BatchFixture f(1 * kSeconds);  // huge window; byte cap must trigger
  int done = 0;
  // Default cap is 4 MB: two 3 MB writes cannot share one batch.
  for (int i = 0; i < 2; ++i) {
    f.client->put("big" + std::to_string(i), Bytes(3u << 20, 1),
                  [&](Status s) {
                    EXPECT_TRUE(s.is_ok());
                    done++;
                  });
  }
  ASSERT_TRUE(f.run_until([&] { return done == 2; }, 60 * kSeconds));
}

}  // namespace
}  // namespace rspaxos::kv
