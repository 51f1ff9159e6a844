// Unit tests for the util substrate: marshal, crc32, rng, histogram,
// event loop.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <set>
#include <thread>

#include <map>
#include <vector>

#include "util/crc32.h"
#include "util/event_loop.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/marshal.h"
#include "util/rng.h"
#include "util/slab_map.h"
#include "util/status.h"
#include "util/timing_wheel.h"

namespace rspaxos {
namespace {

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::ok().is_ok());
  Status s = Status::invalid("boom");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kInvalidArgument);
  EXPECT_EQ(s.message(), "boom");
  EXPECT_EQ(s.to_string(), "INVALID_ARGUMENT: boom");
}

TEST(StatusOr, HoldsValueOrStatus) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.is_ok());
  EXPECT_EQ(v.value(), 42);
  StatusOr<int> e(Status::not_found("x"));
  EXPECT_FALSE(e.is_ok());
  EXPECT_EQ(e.status().code(), Code::kNotFound);
}

TEST(Marshal, RoundTripPrimitives) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i64(-12345);
  Bytes buf = w.take();

  Reader r(buf);
  uint8_t a;
  uint16_t b;
  uint32_t c;
  uint64_t d;
  int64_t e;
  ASSERT_TRUE(r.u8(a).is_ok());
  ASSERT_TRUE(r.u16(b).is_ok());
  ASSERT_TRUE(r.u32(c).is_ok());
  ASSERT_TRUE(r.u64(d).is_ok());
  ASSERT_TRUE(r.i64(e).is_ok());
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xbeef);
  EXPECT_EQ(c, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0123456789abcdefULL);
  EXPECT_EQ(e, -12345);
  EXPECT_TRUE(r.done());
}

TEST(Marshal, VarintBoundaries) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     0xffffffffull, ~0ull}) {
    Writer w;
    w.varint(v);
    Reader r(w.buffer());
    uint64_t out;
    ASSERT_TRUE(r.varint(out).is_ok());
    EXPECT_EQ(out, v);
  }
}

TEST(Marshal, BytesAndStrings) {
  Writer w;
  w.bytes(to_bytes("hello"));
  w.str("world");
  w.bytes(Bytes{});
  Bytes buf = w.take();
  Reader r(buf);
  Bytes b;
  std::string s;
  Bytes empty;
  ASSERT_TRUE(r.bytes(b).is_ok());
  ASSERT_TRUE(r.str(s).is_ok());
  ASSERT_TRUE(r.bytes(empty).is_ok());
  EXPECT_EQ(to_string(b), "hello");
  EXPECT_EQ(s, "world");
  EXPECT_TRUE(empty.empty());
}

TEST(Marshal, TruncationDetected) {
  Writer w;
  w.u64(7);
  Bytes buf = w.take();
  buf.resize(3);
  Reader r(buf);
  uint64_t v;
  EXPECT_FALSE(r.u64(v).is_ok());
}

TEST(Marshal, BadLengthPrefixDetected) {
  Writer w;
  w.varint(1000);  // claims 1000 bytes follow
  w.raw(to_bytes("short"));
  Reader r(w.buffer());
  Bytes out;
  EXPECT_FALSE(r.bytes(out).is_ok());
}

TEST(Crc32, KnownVectors) {
  // CRC32C("123456789") == 0xE3069283 (iSCSI test vector).
  Bytes v = to_bytes("123456789");
  EXPECT_EQ(crc32c(v), 0xE3069283u);
  EXPECT_EQ(crc32c(BytesView{}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  uint32_t whole = crc32c(data);
  uint32_t part = crc32c(data.data(), 10);
  part = crc32c(data.data() + 10, data.size() - 10, part);
  EXPECT_EQ(part, whole);
}

TEST(Crc32, DetectsBitFlip) {
  Bytes data(1024, 0x5a);
  uint32_t before = crc32c(data);
  data[512] ^= 1;
  EXPECT_NE(crc32c(data), before);
}

// Pins the dispatched implementation (SSE4.2 crc32 instruction where the
// host has it) against the portable slice-by-4 reference. The hardware
// kernel switches between three-chain long blocks, three-chain short blocks
// and a single chain with 8/4/1-byte tails, after aligning the pointer, so
// the test walks every length across those thresholds, every start offset
// within two alignment periods, random seeds and random split points.
TEST(Crc32, HardwareMatchesReference) {
  constexpr size_t kMaxLen = 3 * kCrc32cLongBlock + 3 * kCrc32cShortBlock + 40;
  constexpr size_t kPad = 16;
  Rng rng(42);
  Bytes data(kMaxLen + kPad);
  rng.fill(data.data(), data.size());

  // Every length from 0 past the long-block threshold (plus a short-block
  // round and a tail), at offset 0 and seed 0. The reference over each
  // prefix extends the previous one by a byte, so it costs O(kMaxLen).
  uint32_t ref = 0;
  for (size_t len = 0; len <= kMaxLen; ++len) {
    if (len > 0) ref = crc32c_reference(data.data() + len - 1, 1, ref);
    ASSERT_EQ(crc32c(data.data(), len), ref) << "len " << len;
  }

  // Every start offset 0..15 with a random seed, at lengths around each
  // threshold of the kernel.
  std::vector<size_t> lens;
  for (size_t base : {size_t{0}, size_t{8}, 3 * kCrc32cShortBlock, 6 * kCrc32cShortBlock,
                      3 * kCrc32cLongBlock, 6 * kCrc32cLongBlock}) {
    for (size_t d = 0; d < 10; ++d) {
      if (base + d >= 5) lens.push_back(base + d - 5);
    }
  }
  Bytes big(6 * kCrc32cLongBlock + 16 + kPad);
  rng.fill(big.data(), big.size());
  for (size_t off = 0; off < kPad; ++off) {
    for (size_t len : lens) {
      uint32_t seed = static_cast<uint32_t>(rng.next_u64());
      ASSERT_EQ(crc32c(big.data() + off, len, seed),
                crc32c_reference(big.data() + off, len, seed))
          << "off " << off << " len " << len;
    }
  }

  // An update split at random cut points equals the one-shot CRC.
  for (int trial = 0; trial < 200; ++trial) {
    size_t len = static_cast<size_t>(rng.next_below(big.size() - kPad));
    uint32_t seed = static_cast<uint32_t>(rng.next_u64());
    uint32_t whole = crc32c_reference(big.data(), len, seed);
    size_t a = static_cast<size_t>(rng.next_below(len + 1));
    size_t b = a + static_cast<size_t>(rng.next_below(len - a + 1));
    uint32_t parts = crc32c(big.data(), a, seed);
    parts = crc32c(big.data() + a, b - a, parts);
    parts = crc32c(big.data() + b, len - b, parts);
    ASSERT_EQ(parts, whole) << "len " << len << " cuts " << a << "," << b;
  }
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  bool differs = false;
  Rng a2(123);
  for (int i = 0; i < 100; ++i) {
    if (a2.next_u64() != c.next_u64()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, FillCoversBuffer) {
  Rng r(11);
  Bytes buf(37, 0);
  r.fill(buf.data(), buf.size());
  std::set<uint8_t> distinct(buf.begin(), buf.end());
  EXPECT_GT(distinct.size(), 4u);  // astronomically unlikely to fail
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
  EXPECT_NEAR(h.mean(), 50.5, 0.01);
  EXPECT_NEAR(static_cast<double>(h.value_at(0.5)), 50, 3);
  EXPECT_NEAR(static_cast<double>(h.value_at(0.99)), 99, 3);
}

TEST(Histogram, LargeValuesWithinRelativeError) {
  Histogram h;
  int64_t v = 123456789;
  h.record(v);
  EXPECT_EQ(h.count(), 1u);
  int64_t got = h.value_at(0.5);
  EXPECT_NEAR(static_cast<double>(got), static_cast<double>(v), v * 0.02);
}

TEST(Histogram, MergeAccumulates) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.value_at(0.5), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Logging, SinkCapturesStructuredLine) {
  LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  std::vector<std::pair<LogLevel, std::string>> lines;
  set_log_sink([&lines](LogLevel l, const std::string& s) { lines.emplace_back(l, s); });
  set_log_node(7);
  RSP_WARN << "commit stalled" << RSP_KV("slot", 42) << RSP_KV("ballot", "3.1");
  set_log_node(kNoLogNode);
  set_log_sink(nullptr);
  set_log_level(saved);

  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].first, LogLevel::kWarn);
  const std::string& s = lines[0].second;
  EXPECT_NE(s.find("commit stalled"), std::string::npos) << s;
  EXPECT_NE(s.find(" slot=42"), std::string::npos) << s;       // RSP_KV suffix form
  EXPECT_NE(s.find(" ballot=3.1"), std::string::npos) << s;
  EXPECT_NE(s.find("node=7"), std::string::npos) << s;         // per-thread node tag
  EXPECT_NE(s.find(" t="), std::string::npos) << s;            // monotonic timestamp
  EXPECT_NE(s.find("util_test.cpp"), std::string::npos) << s;  // source location
}

TEST(Logging, LevelFiltersBelowThreshold) {
  LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  int captured = 0;
  set_log_sink([&captured](LogLevel, const std::string&) { captured++; });
  RSP_WARN << "should be filtered";
  RSP_ERROR << "should pass";
  set_log_sink(nullptr);
  set_log_level(saved);
  EXPECT_EQ(captured, 1);
}

TEST(EventLoop, RunsPostedTasks) {
  EventLoop loop;
  std::atomic<int> n{0};
  for (int i = 0; i < 100; ++i) loop.post([&n] { n++; });
  loop.drain();
  EXPECT_EQ(n.load(), 100);
}

TEST(EventLoop, TasksRunInOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) loop.post([&order, i] { order.push_back(i); });
  loop.drain();
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventLoop, TimersFire) {
  EventLoop loop;
  std::promise<void> fired;
  auto t0 = std::chrono::steady_clock::now();
  loop.schedule(5000, [&fired] { fired.set_value(); });
  fired.get_future().wait();
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  EXPECT_GE(elapsed, 4000);
}

TEST(EventLoop, CancelledTimerDoesNotFire) {
  EventLoop loop;
  std::atomic<bool> fired{false};
  auto id = loop.schedule(20000, [&fired] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  loop.drain();
  EXPECT_FALSE(fired.load());
}

TEST(EventLoop, PostFromManyThreads) {
  EventLoop loop;
  std::atomic<int> n{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&loop, &n] {
      for (int i = 0; i < 500; ++i) loop.post([&n] { n++; });
    });
  }
  for (auto& t : threads) t.join();
  loop.drain();
  EXPECT_EQ(n.load(), 4000);
}

// The reactor surface over a pipe: readiness reaches the handler on the loop
// thread, rewatch switches the interest set, and an unwatched fd (or one its
// handler unwatched and closed inside on_io) is never reported again.
TEST(EventLoop, WatchRewatchUnwatchDeliverReadiness) {
  struct Handler final : EventLoop::IoHandler {
    EventLoop* loop = nullptr;
    std::atomic<int> calls{0};
    std::atomic<uint32_t> events{0};
    std::atomic<bool> off_loop{false};
    std::function<void()> action;  // runs inside on_io, on the loop thread
    void on_io(uint32_t ev) override {
      if (!loop->on_loop_thread()) off_loop = true;
      events = ev;
      if (action) action();
      calls++;
    }
  };
  auto wait_calls = [](const Handler& h, int n) {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (h.calls.load() < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return h.calls.load() >= n;
  };
  // Lets the loop run a few cycles, so a readiness it would report, it has.
  auto settle = [](EventLoop& loop) {
    for (int i = 0; i < 3; ++i) {
      loop.drain();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    loop.drain();
  };
  auto on_loop = [](EventLoop& loop, std::function<void()> fn) {
    std::promise<void> done;
    loop.post([&] {
      fn();
      done.set_value();
    });
    done.get_future().wait();
  };

  EventLoop loop;
  ASSERT_TRUE(loop.ok());
  int fds[2];
  ASSERT_EQ(::pipe2(fds, O_NONBLOCK | O_CLOEXEC), 0);
  const int rd = fds[0], wr = fds[1];
  char byte = 'x';

  // Readable: on_io fires with EPOLLIN on the loop thread.
  Handler reader;
  reader.loop = &loop;
  reader.action = [rd] {
    char buf[16];
    while (::read(rd, buf, sizeof(buf)) > 0) {
    }
  };
  bool ok = false;
  on_loop(loop, [&] { ok = loop.watch(rd, EPOLLIN, &reader); });
  ASSERT_TRUE(ok);
  settle(loop);
  EXPECT_EQ(reader.calls.load(), 0);
  ASSERT_EQ(::write(wr, &byte, 1), 1);
  ASSERT_TRUE(wait_calls(reader, 1));
  EXPECT_TRUE(reader.events.load() & EPOLLIN);
  EXPECT_FALSE(reader.off_loop.load());

  // rewatch: the write end, watched for input, reports nothing until its
  // interest becomes EPOLLOUT; an empty pipe is writable.
  Handler writer;
  writer.loop = &loop;
  on_loop(loop, [&] { ok = loop.watch(wr, EPOLLIN, &writer); });
  ASSERT_TRUE(ok);
  settle(loop);
  EXPECT_EQ(writer.calls.load(), 0);
  writer.action = [&] { loop.unwatch(wr); };  // level-triggered: stop at one
  on_loop(loop, [&] { ok = loop.rewatch(wr, EPOLLOUT, &writer); });
  ASSERT_TRUE(ok);
  ASSERT_TRUE(wait_calls(writer, 1));
  EXPECT_TRUE(writer.events.load() & EPOLLOUT);
  EXPECT_FALSE(writer.off_loop.load());
  settle(loop);
  EXPECT_EQ(writer.calls.load(), 1);

  // After unwatch, the pipe turning readable delivers no further on_io.
  on_loop(loop, [&] { loop.unwatch(rd); });
  const int before = reader.calls.load();
  ASSERT_EQ(::write(wr, &byte, 1), 1);
  settle(loop);
  EXPECT_EQ(reader.calls.load(), before);

  // A handler that unwatches and closes its own fd inside on_io gets no
  // further call, although it left the byte unread (level-triggered).
  Handler closer;
  closer.loop = &loop;
  closer.action = [&] {
    loop.unwatch(rd);
    ::close(rd);
  };
  on_loop(loop, [&] { ok = loop.watch(rd, EPOLLIN, &closer); });
  ASSERT_TRUE(ok);
  ASSERT_TRUE(wait_calls(closer, 1));
  settle(loop);
  EXPECT_EQ(closer.calls.load(), 1);
  EXPECT_FALSE(closer.off_loop.load());
  ::close(wr);
}

TEST(SlabMap, InsertFindErase) {
  SlabMap<int> m;
  EXPECT_TRUE(m.empty());
  m.emplace(7, 70);
  m.emplace(8, 80);
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 70);
  EXPECT_EQ(m.find(9), nullptr);
  EXPECT_TRUE(m.erase(7));
  EXPECT_FALSE(m.erase(7));
  EXPECT_EQ(m.find(7), nullptr);
  ASSERT_NE(m.find(8), nullptr);
  EXPECT_EQ(*m.find(8), 80);
}

TEST(SlabMap, ChurnRecyclesSlotsAndStaysConsistent) {
  // Interleaved insert/erase across many growth cycles, checked against a
  // reference map. Sequential-ish keys stress the fmix64 pre-hash; erases
  // exercise backward-shift deletion inside long probe clusters.
  SlabMap<uint64_t> m;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(42);
  for (int round = 0; round < 20000; ++round) {
    uint64_t key = rng.next_below(4096);
    if (rng.chance(0.55)) {
      if (ref.count(key) == 0) {
        m.emplace(key, key * 3);
        ref[key] = key * 3;
      }
    } else {
      EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
    }
    if (round % 1000 == 0) {
      EXPECT_EQ(m.size(), ref.size());
      for (const auto& [k, v] : ref) {
        ASSERT_NE(m.find(k), nullptr) << k;
        EXPECT_EQ(*m.find(k), v);
      }
    }
  }
  size_t visited = 0;
  m.for_each([&](uint64_t k, uint64_t& v) {
    ++visited;
    EXPECT_EQ(ref.at(k), v);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(SlabMap, EraseResetsValueForSlotReuse) {
  // Erase must default-construct the slot so held resources (here: a vector)
  // are released even before the slot is recycled.
  SlabMap<std::vector<int>> m;
  m.emplace(1, std::vector<int>(1000, 7));
  EXPECT_TRUE(m.erase(1));
  auto& v = m.emplace(2, std::vector<int>{1});  // recycles slot 0
  EXPECT_EQ(v.size(), 1u);
}

TEST(TimingWheel, FiresAtDeadlineGranularity) {
  TimingWheel w(/*tick_us=*/100);
  w.add(1, 0, 250);
  w.add(2, 0, 900);
  std::vector<TimingWheel::Entry> due;
  w.advance(200, due);
  EXPECT_TRUE(due.empty());
  w.advance(250, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, 1u);
  due.clear();
  w.advance(1000, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, 2u);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, FarDeadlineSurvivesManyRevolutions) {
  // An entry parked far beyond one wheel revolution must neither fire early
  // nor be lost; the cheap-skip bound must not hide it either.
  TimingWheel w(10, /*buckets=*/8);  // revolution = 80us
  w.add(5, 1, 1000);
  std::vector<TimingWheel::Entry> due;
  for (int64_t t = 0; t < 1000; t += 7) {
    w.advance(t, due);
    EXPECT_TRUE(due.empty()) << "fired early at t=" << t;
  }
  w.advance(1005, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, 5u);
  EXPECT_EQ(due[0].gen, 1u);
}

TEST(TimingWheel, LargeTimeJumpCollectsEverything) {
  TimingWheel w(10, 8);
  for (uint64_t i = 0; i < 100; ++i) w.add(i, 0, static_cast<int64_t>(10 * i));
  std::vector<TimingWheel::Entry> due;
  w.advance(10000, due);  // jump many revolutions at once
  EXPECT_EQ(due.size(), 100u);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, StaleGenerationEntriesStillDrain) {
  // Lazy cancellation: the wheel happily returns superseded (id, gen)
  // entries; the owner filters them. What matters is they drain and size()
  // reflects it.
  TimingWheel w(10);
  w.add(1, 1, 50);
  w.add(1, 2, 120);  // supersedes gen 1 from the owner's point of view
  EXPECT_EQ(w.size(), 2u);
  std::vector<TimingWheel::Entry> due;
  w.advance(200, due);
  EXPECT_EQ(due.size(), 2u);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheel, CheapSkipAfterAdvanceStillSeesNewEarlyEntry) {
  // Regression guard: after an advance leaves a far-out entry, adding a
  // nearer one must lower the internal next-deadline bound.
  TimingWheel w(10);
  w.add(1, 0, 10000);
  std::vector<TimingWheel::Entry> due;
  w.advance(100, due);
  EXPECT_TRUE(due.empty());
  w.add(2, 0, 150);
  w.advance(160, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].id, 2u);
}

}  // namespace
}  // namespace rspaxos
