// Tests for composite (batched) write instances: wire format, commit
// amortization, follower slice bookkeeping, recovery reads into a batch,
// ordering vs consistent reads, deletes inside batches, the rules that keep
// lone and large writes plain commands, rows leaving the instance buffer
// behind the payload floor, and a burst over real TCP.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <set>
#include <thread>

#include "consensus/msg.h"
#include "kv/cluster.h"
#include "node/tcp_cluster.h"

namespace rspaxos::kv {
namespace {

struct BatchFixture {
  sim::SimWorld world{21};
  SimCluster cluster;
  std::unique_ptr<KvClient> client;

  explicit BatchFixture(DurationMicros window = 5 * kMillis) : BatchFixture(options(window)) {}

  explicit BatchFixture(SimClusterOptions o) : cluster(&world, o) {
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

  Status put(const std::string& key, Bytes value) {
    std::optional<Status> st;
    client->put(key, std::move(value), [&](Status s) { st = s; });
    if (!run_until([&] { return st.has_value(); })) return Status::timeout("put " + key);
    return *st;
  }
};

/// Records every accept frame a server endpoint receives, then hands it on.
struct AcceptTap final : MessageHandler {
  explicit AcceptTap(MessageHandler* inner) : inner(inner) {}
  void on_message(NodeId from, MsgType type, BytesView payload) override {
    if (type == MsgType::kAccept) frames.emplace_back(payload.begin(), payload.end());
    inner->on_message(from, type, payload);
  }
  MessageHandler* inner;
  std::vector<Bytes> frames;
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
  // The completed row holds a copy of its own slice, not the whole decoded
  // instance.
  const LocalStore::Record* rec = f.cluster.server(new_leader, 0)->store().find("rr3");
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->complete);
  EXPECT_EQ(rec->data.size(), 128u);
  EXPECT_EQ(Bytes(rec->value().begin(), rec->value().end()), Bytes(128, 0x43));
}

TEST(Batching, RowsLeaveTheInstanceBufferBehindThePayloadFloor) {
  // θ(1,3): every replica applies complete rows. A 4-slot horizon lets a
  // few later writes carry the payload floor past the batch.
  SimClusterOptions o = BatchFixture::options(5 * kMillis);
  o.num_servers = 3;
  o.replica.payload_cache_slots = 4;
  BatchFixture f(o);
  constexpr int kItems = 8;
  int done = 0;
  for (int i = 0; i < kItems; ++i) {
    f.client->put("fl" + std::to_string(i), Bytes(300 + i, static_cast<uint8_t>(i)),
                  [&](Status s) {
                    EXPECT_TRUE(s.is_ok());
                    done++;
                  });
  }
  ASSERT_TRUE(f.run_until([&] { return done == kItems; }));
  const int leader = f.cluster.leader_server_of(0);
  ASSERT_GE(leader, 0);
  {
    // Precondition: the writes share one instance, and its rows slice it.
    const LocalStore& store = f.cluster.server(leader, 0)->store();
    const LocalStore::Record* first = store.find("fl0");
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(store.find("fl7")->data.id(), first->data.id());
    EXPECT_EQ(f.cluster.server(leader, 0)->stats().batches_committed, 1u);
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(f.put("later" + std::to_string(i), Bytes(100, 0xee)).is_ok());
  }
  f.world.run_for(300 * kMillis);  // followers learn the commits and apply

  for (int s = 0; s < 3; ++s) {
    const LocalStore& store = f.cluster.server(s, 0)->store();
    ASSERT_EQ(store.size(), static_cast<size_t>(kItems + 8)) << "server " << s;
    std::set<const void*> buffers;
    uint64_t live = 0;
    store.for_each([&](const std::string& key, const LocalStore::Record& rec) {
      ASSERT_TRUE(rec.complete) << "server " << s << " key " << key;
      EXPECT_EQ(rec.data.size(), rec.slice_len) << "server " << s << " key " << key;
      EXPECT_TRUE(buffers.insert(rec.data.id()).second)
          << "server " << s << " key " << key << " shares a buffer";
      live += rec.slice_len;
    });
    EXPECT_EQ(store.resident_bytes(), live) << "server " << s;
    BytesView fl5 = store.find("fl5")->value();
    EXPECT_EQ(Bytes(fl5.begin(), fl5.end()), Bytes(305, 5)) << "server " << s;
  }
}

TEST(Batching, LoneAndLargeWritesArePlainCommands) {
  SimClusterOptions o = BatchFixture::options(5 * kMillis);
  o.num_servers = 3;  // θ(1,3): an accept frame carries the value itself
  BatchFixture f(o);
  const int leader = f.cluster.leader_server_of(0);
  ASSERT_GE(leader, 0);
  const int follower = (leader + 1) % 3;
  AcceptTap tap(f.cluster.server(follower, 0));
  f.cluster.network().node(endpoint_id(follower, 0))->set_handler(&tap);

  const Bytes lone(1024, 0x11);
  ASSERT_TRUE(f.put("lone", lone).is_ok());
  // A small write opens a batch; a write at the cap arrives inside the
  // window, flushes the small one alone and then goes alone itself.
  const Bytes small(200, 0x22);
  const Bytes large(KvServer::kBatchMaxBytes, 0x33);
  int done = 0;
  f.client->put("small", small, [&](Status s) {
    EXPECT_TRUE(s.is_ok());
    done++;
  });
  f.client->put("large", large, [&](Status s) {
    EXPECT_TRUE(s.is_ok());
    done++;
  });
  ASSERT_TRUE(f.run_until([&] { return done == 2; }));
  f.cluster.network().node(endpoint_id(follower, 0))->set_handler(f.cluster.server(follower, 0));
  EXPECT_EQ(f.cluster.server(leader, 0)->stats().batches_committed, 0u);

  // Each write's accept frame is the one an unbatched proposal encodes: a
  // plain put header and the value as the payload.
  const std::map<std::string, const Bytes*> values = {
      {"lone", &lone}, {"small", &small}, {"large", &large}};
  std::set<std::string> seen;
  for (const Bytes& frame : tap.frames) {
    auto m = consensus::AcceptMsg::decode(frame);
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    auto op = peek_op(m.value().share.header);
    ASSERT_TRUE(op.is_ok());
    ASSERT_EQ(op.value(), Op::kPut) << "slot " << m.value().slot;
    auto h = CommandHeader::decode(m.value().share.header);
    ASSERT_TRUE(h.is_ok());
    auto it = values.find(h.value().key);
    ASSERT_NE(it, values.end()) << h.value().key;
    consensus::AcceptMsg expect = m.value();
    CommandHeader plain;
    plain.op = Op::kPut;
    plain.key = it->first;
    expect.share.header = plain.encode();
    expect.share.value_len = it->second->size();
    expect.share.data = SharedBytes(*it->second);
    EXPECT_EQ(expect.encode(), frame) << it->first;
    seen.insert(it->first);
  }
  EXPECT_EQ(seen.size(), values.size());
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
  // Two writes of 40 KiB reach the 64 KiB cap together: the batch closes at
  // the second one instead of waiting out the window.
  constexpr size_t kLen = 40u << 10;
  static_assert(kLen < KvServer::kBatchMaxBytes && 2 * kLen >= KvServer::kBatchMaxBytes);
  for (int i = 0; i < 2; ++i) {
    f.client->put("big" + std::to_string(i), Bytes(kLen, 1),
                  [&](Status s) {
                    EXPECT_TRUE(s.is_ok());
                    done++;
                  });
  }
  ASSERT_TRUE(f.run_until([&] { return done == 2; }, 500 * kMillis));
  EXPECT_EQ(f.cluster.server(f.cluster.leader_server_of(0), 0)->stats().batches_committed, 1u);
}

TEST(BatchingTcp, OneClientTurnOfPutsSharesInstances) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("rspaxos_batch_tcp_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  node::TcpClusterOptions opts;
  opts.num_servers = 3;
  opts.f = 1;
  opts.data_dir = dir.string();
  auto started = node::TcpCluster::start(opts);
  ASSERT_TRUE(started.is_ok()) << started.status().to_string();
  std::unique_ptr<node::TcpCluster> cluster = std::move(started).value();
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int leader = -1;
  while ((leader = cluster->leader_server_of(0)) < 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no leader";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // Reads a leader-side counter on the leader's own loop thread.
  auto on_leader = [&](auto fn) {
    std::promise<uint64_t> p;
    auto fut = p.get_future();
    KvServer* srv = cluster->server(leader, 0);
    cluster->endpoint(leader, 0)->loop().post([&] { p.set_value(fn(srv)); });
    return fut.get();
  };
  auto commits = [](KvServer* s) { return s->replica().stats().commits; };
  auto cn = cluster->start_client();
  ASSERT_TRUE(cn.is_ok()) << cn.status().to_string();
  net::TcpNode* cnode = cn.value();
  auto client = std::make_unique<KvClient>(cnode, cluster->routing(), KvClient::Options());
  cnode->loop().post([&] { cnode->set_handler(client.get()); });

  // Warm the client's leader hint, so the burst goes straight to the leader.
  std::promise<Status> warm;
  cnode->loop().post([&] { client->put("warm", to_bytes("w"), [&](Status s) { warm.set_value(s); }); });
  ASSERT_TRUE(warm.get_future().get().is_ok());
  const uint64_t commits0 = on_leader(commits);

  constexpr int kPuts = 32;
  std::atomic<int> ok{0}, resolved{0};
  cnode->loop().post([&] {
    for (int i = 0; i < kPuts; ++i) {
      client->put("tb" + std::to_string(i), Bytes(1024, static_cast<uint8_t>(i)),
                  [&](Status s) {
                    if (s.is_ok()) ok.fetch_add(1);
                    resolved.fetch_add(1);
                  });
    }
  });
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (resolved.load() < kPuts && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(ok.load(), kPuts);
  const uint64_t instances = on_leader(commits) - commits0;
  EXPECT_GE(instances, 1u);
  EXPECT_LT(instances, static_cast<uint64_t>(kPuts)) << "the burst was not batched";
  EXPECT_GE(on_leader([](KvServer* s) { return s->stats().batches_committed; }), 1u);

  std::atomic<int> matched{0}, read{0};
  cnode->loop().post([&] {
    for (int i = 0; i < kPuts; ++i) {
      client->get("tb" + std::to_string(i), [&, i](StatusOr<Bytes> r) {
        if (r.is_ok() && r.value() == Bytes(1024, static_cast<uint8_t>(i))) matched.fetch_add(1);
        read.fetch_add(1);
      });
    }
  });
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (read.load() < kPuts && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(matched.load(), kPuts);

  cluster.reset();  // joins every loop thread, the client node's included
  client.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rspaxos::kv
