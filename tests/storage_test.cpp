// WAL tests: durability-before-callback, group commit batching, crash loss
// semantics (SimWal), and real file round-trip with torn/corrupt tail
// handling (FileWal).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>

#include "obs/metrics.h"
#include "sim/sim_disk.h"
#include "sim/sim_world.h"
#include "storage/file_wal.h"
#include "storage/sim_wal.h"
#include "storage/wal.h"
#include "util/rng.h"

namespace rspaxos {
namespace {

using storage::FileWal;
using storage::MemWal;
using storage::SimWal;
using storage::WalPos;

TEST(MemWal, AppendAndReplayInOrder) {
  MemWal wal;
  int cbs = 0;
  wal.append(to_bytes("a"), [&](Status s, WalPos) { EXPECT_TRUE(s.is_ok()); cbs++; });
  wal.append(to_bytes("b"), [&](Status s, WalPos) { EXPECT_TRUE(s.is_ok()); cbs++; });
  EXPECT_EQ(cbs, 2);
  std::string out;
  wal.replay([&](BytesView r, WalPos) { out += to_string(r); });
  EXPECT_EQ(out, "ab");
  EXPECT_EQ(wal.bytes_flushed(), 2u);
}

TEST(SimWal, CallbackFiresOnlyAfterDiskCompletes) {
  sim::SimWorld w(1);
  sim::SimDisk disk(&w, sim::DiskParams{100, 1e9});  // 10 ms/op
  SimWal wal(&disk);
  bool durable = false;
  wal.group(0)->append(to_bytes("rec"), [&](Status, WalPos) { durable = true; });
  w.run_for(5 * kMillis);
  EXPECT_FALSE(durable);
  w.run_for(6 * kMillis);
  EXPECT_TRUE(durable);
}

TEST(SimWal, GroupCommitBatchesConcurrentAppends) {
  sim::SimWorld w(1);
  sim::SimDisk disk(&w, sim::DiskParams{100, 1e9});
  SimWal wal(&disk);
  int done = 0;
  // First append starts a flush; the next 9 arrive while the device is busy
  // and must share the second flush: 2 flushes total, not 10.
  for (int i = 0; i < 10; ++i) {
    wal.group(0)->append(Bytes(100, static_cast<uint8_t>(i)), [&](Status, WalPos) { done++; });
  }
  w.run_to_completion();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(wal.flush_ops(), 2u);
  EXPECT_EQ(disk.ops(), 2u);
}

TEST(SimWal, ReplayReturnsOnlyDurableRecords) {
  sim::SimWorld w(1);
  sim::SimDisk disk(&w, sim::DiskParams{100, 1e9});
  SimWal wal(&disk);
  wal.group(0)->append(to_bytes("one"), nullptr);
  w.run_to_completion();  // "one" durable
  wal.group(0)->append(to_bytes("two"), nullptr);
  // Crash before the second flush completes.
  wal.drop_unflushed();
  w.run_to_completion();
  std::string out;
  wal.group(0)->replay([&](BytesView r, WalPos) { out += to_string(r); });
  EXPECT_EQ(out, "one");
}

TEST(SimWal, LostAppendCallbackNeverFires) {
  sim::SimWorld w(1);
  sim::SimDisk disk(&w, sim::DiskParams{100, 1e9});
  SimWal wal(&disk);
  wal.group(0)->append(to_bytes("x"), nullptr);  // occupies the disk
  bool fired = false;
  wal.group(0)->append(to_bytes("y"), [&](Status, WalPos) { fired = true; });
  wal.drop_unflushed();
  w.run_to_completion();
  EXPECT_FALSE(fired);
}

class FileWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rspaxos_wal_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(FileWalTest, AppendSyncReplay) {
  auto wal = FileWal::open(path_.string(), 0);
  ASSERT_TRUE(wal.is_ok());
  std::promise<void> done;
  wal.value()->group(0)->append(to_bytes("hello"), nullptr);
  wal.value()->group(0)->append(to_bytes("world"), [&](Status s, WalPos) {
    EXPECT_TRUE(s.is_ok());
    done.set_value();
  });
  done.get_future().wait();
  std::vector<std::string> records;
  wal.value()->group(0)->replay([&](BytesView r, WalPos) { records.push_back(to_string(r)); });
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], "hello");
  EXPECT_EQ(records[1], "world");
  EXPECT_GE(wal.value()->bytes_flushed(), 10u);
}

TEST_F(FileWalTest, SurvivesReopen) {
  {
    auto wal = FileWal::open(path_.string(), 0);
    ASSERT_TRUE(wal.is_ok());
    std::promise<void> done;
    wal.value()->group(0)->append(to_bytes("persist-me"),
                                  [&](Status, WalPos) { done.set_value(); });
    done.get_future().wait();
  }
  auto wal2 = FileWal::open(path_.string(), 0);
  ASSERT_TRUE(wal2.is_ok());
  std::vector<std::string> records;
  wal2.value()->group(0)->replay([&](BytesView r, WalPos) { records.push_back(to_string(r)); });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "persist-me");
}

TEST_F(FileWalTest, TornTailRecordIgnored) {
  {
    auto wal = FileWal::open(path_.string(), 0);
    ASSERT_TRUE(wal.is_ok());
    std::promise<void> done;
    wal.value()->group(0)->append(to_bytes("good"), [&](Status, WalPos) { done.set_value(); });
    done.get_future().wait();
  }
  // Simulate a crash mid-append: garbage partial frame at the tail.
  {
    FILE* f = std::fopen(path_.string().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    uint32_t bogus_len = 1 << 20;
    std::fwrite(&bogus_len, 4, 1, f);
    std::fwrite("xx", 1, 2, f);
    std::fclose(f);
  }
  auto wal2 = FileWal::open(path_.string(), 0);
  ASSERT_TRUE(wal2.is_ok());
  std::vector<std::string> records;
  wal2.value()->group(0)->replay([&](BytesView r, WalPos) { records.push_back(to_string(r)); });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "good");
}

TEST_F(FileWalTest, CorruptRecordStopsReplay) {
  {
    auto wal = FileWal::open(path_.string(), 0);
    ASSERT_TRUE(wal.is_ok());
    std::promise<void> done;
    wal.value()->group(0)->append(to_bytes("first"), nullptr);
    wal.value()->group(0)->append(to_bytes("second"), [&](Status, WalPos) { done.set_value(); });
    done.get_future().wait();
  }
  // Flip a byte inside the second record's payload.
  {
    FILE* f = std::fopen(path_.string().c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    // frame1 = 8 + 4 (group key) + 5; corrupt one payload byte of frame 2.
    std::fseek(f, 17 + 8 + 2, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, 17 + 8 + 2, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);
  }
  auto wal2 = FileWal::open(path_.string(), 0);
  ASSERT_TRUE(wal2.is_ok());
  std::vector<std::string> records;
  wal2.value()->group(0)->replay([&](BytesView r, WalPos) { records.push_back(to_string(r)); });
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "first");
}

// All appends inside one group-commit window land as a single vectored flush
// op, survive replay byte-identical, and show up in rsp_wal_batch_records.
TEST_F(FileWalTest, VectoredBatchSingleFlushReplayByteIdentical) {
  auto& batch_hist = obs::MetricsRegistry::global().histogram(
      "rsp_wal_batch_records", "Records coalesced per group-commit batch");
  uint64_t hist_before = batch_hist.count();

  auto wal = FileWal::open(path_.string(), 20000);  // 20 ms window
  ASSERT_TRUE(wal.is_ok());
  constexpr int kRecords = 40;
  std::vector<Bytes> expected;
  Rng rng(11);
  for (int i = 0; i < kRecords; ++i) {
    // Varied sizes including the empty record edge case.
    size_t len = i == 0 ? 0 : rng.next_below(3000);
    Bytes rec(len);
    rng.fill(rec.data(), len);
    expected.push_back(rec);
  }
  std::atomic<int> done{0};
  std::promise<void> all;
  for (auto& rec : expected) {
    wal.value()->group(0)->append(rec, [&](Status s, WalPos) {
      EXPECT_TRUE(s.is_ok());
      if (++done == kRecords) all.set_value();
    });
  }
  all.get_future().wait();
  // One writev+fdatasync for the whole window (<=2 tolerates a scheduling
  // hiccup splitting the batch).
  EXPECT_LE(wal.value()->flush_ops(), 2u);

  auto snap = batch_hist.snapshot();
  EXPECT_GT(snap.count(), hist_before);
  EXPECT_GE(snap.max(), kRecords / 2);  // some batch coalesced many records

  std::vector<Bytes> replayed;
  wal.value()->group(0)->replay(
      [&](BytesView r, WalPos) { replayed.emplace_back(r.begin(), r.end()); });
  ASSERT_EQ(replayed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replayed[i], expected[i]) << "record " << i << " not byte-identical";
  }
}

// A batch larger than IOV_MAX records exercises the writev chunking loop.
TEST_F(FileWalTest, VectoredBatchBeyondIovMax) {
  auto wal = FileWal::open(path_.string(), 100000);  // 100 ms window
  ASSERT_TRUE(wal.is_ok());
  constexpr int kRecords = 1100;  // > IOV_MAX (1024) iovecs in one batch
  std::atomic<int> done{0};
  std::promise<void> all;
  for (int i = 0; i < kRecords; ++i) {
    Bytes rec(16);
    std::memcpy(rec.data(), &i, sizeof(i));
    wal.value()->group(0)->append(std::move(rec), [&](Status s, WalPos) {
      EXPECT_TRUE(s.is_ok());
      if (++done == kRecords) all.set_value();
    });
  }
  all.get_future().wait();
  EXPECT_LE(wal.value()->flush_ops(), 3u);
  int n = 0;
  wal.value()->group(0)->replay([&](BytesView r, WalPos) {
    ASSERT_EQ(r.size(), 16u);
    int got;
    std::memcpy(&got, r.data(), sizeof(got));
    EXPECT_EQ(got, n++);
  });
  EXPECT_EQ(n, kRecords);
}

// Torn-tail truncation detection survives the vectored write path: garbage
// appended after a batched flush is still cut off at replay.
TEST_F(FileWalTest, VectoredBatchTornTailStillDetected) {
  constexpr int kRecords = 10;
  {
    auto wal = FileWal::open(path_.string(), 10000);
    ASSERT_TRUE(wal.is_ok());
    std::atomic<int> done{0};
    std::promise<void> all;
    for (int i = 0; i < kRecords; ++i) {
      wal.value()->group(0)->append(Bytes(100, static_cast<uint8_t>(i)), [&](Status, WalPos) {
        if (++done == kRecords) all.set_value();
      });
    }
    all.get_future().wait();
    EXPECT_LE(wal.value()->flush_ops(), 2u);
  }
  {
    FILE* f = std::fopen(path_.string().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    uint32_t bogus_len = 7 << 20;
    std::fwrite(&bogus_len, 4, 1, f);
    std::fwrite("torn", 1, 4, f);
    std::fclose(f);
  }
  auto wal2 = FileWal::open(path_.string(), 0);
  ASSERT_TRUE(wal2.is_ok());
  int n = 0;
  wal2.value()->group(0)->replay([&](BytesView r, WalPos) {
    EXPECT_EQ(r.size(), 100u);
    ++n;
  });
  EXPECT_EQ(n, kRecords);
}

// Replay streams in 64 KiB chunks; records larger than the chunk must still
// come back byte-identical (rolling buffer grows only for the big record).
TEST_F(FileWalTest, ReplayStreamsLargeRecords) {
  Rng rng(23);
  Bytes big(300 * 1024);
  rng.fill(big.data(), big.size());
  {
    auto wal = FileWal::open(path_.string(), 0);
    ASSERT_TRUE(wal.is_ok());
    std::promise<void> done;
    wal.value()->group(0)->append(to_bytes("small-before"), nullptr);
    wal.value()->group(0)->append(big, nullptr);
    wal.value()->group(0)->append(to_bytes("small-after"),
                                  [&](Status, WalPos) { done.set_value(); });
    done.get_future().wait();
  }
  auto wal2 = FileWal::open(path_.string(), 0);
  ASSERT_TRUE(wal2.is_ok());
  std::vector<Bytes> records;
  wal2.value()->group(0)->replay(
      [&](BytesView r, WalPos) { records.emplace_back(r.begin(), r.end()); });
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(to_string(records[0]), "small-before");
  EXPECT_EQ(records[1], big);
  EXPECT_EQ(to_string(records[2]), "small-after");
}

TEST_F(FileWalTest, GroupCommitWindowBatchesAppends) {
  auto wal = FileWal::open(path_.string(), 2000);  // 2 ms window
  ASSERT_TRUE(wal.is_ok());
  std::atomic<int> done{0};
  std::promise<void> all;
  for (int i = 0; i < 20; ++i) {
    wal.value()->group(0)->append(Bytes(10, static_cast<uint8_t>(i)), [&](Status, WalPos) {
      if (++done == 20) all.set_value();
    });
  }
  all.get_future().wait();
  // All 20 appends landed within one or two windows.
  EXPECT_LE(wal.value()->flush_ops(), 3u);
}

// Property sweep: truncate the log inside (or at the start of) the final
// record at EVERY byte offset. Whatever the cut, open() must repair the tail
// down to the longest valid frame prefix, replay exactly the intact records,
// and keep accepting appends afterwards.
TEST_F(FileWalTest, TornTailRepairAtEveryByteOffset) {
  const std::vector<std::string> recs = {"alpha", "bravo!", "charlie-7", "delta-delta"};
  {
    auto wal = FileWal::open(path_.string(), 0);
    ASSERT_TRUE(wal.is_ok());
    std::promise<void> done;
    for (size_t i = 0; i < recs.size(); ++i) {
      wal.value()->group(0)->append(to_bytes(recs[i]),
                          i + 1 == recs.size() ? [&](Status, WalPos) { done.set_value(); }
                                               : storage::Wal::DurableFn{});
    }
    done.get_future().wait();
  }
  // Byte image of the intact log; each frame is 8 bytes of header + 4 bytes
  // of group key + payload.
  std::vector<uint8_t> image;
  {
    std::ifstream in(path_.string(), std::ios::binary);
    image.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  size_t prefix = 0;
  for (size_t i = 0; i + 1 < recs.size(); ++i) prefix += 12 + recs[i].size();
  ASSERT_EQ(image.size(), prefix + 12 + recs.back().size());

  for (size_t cut = prefix; cut < image.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    {
      std::ofstream out(path_.string(), std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(image.data()),
                static_cast<std::streamsize>(cut));
    }
    auto wal = FileWal::open(path_.string(), 0);
    ASSERT_TRUE(wal.is_ok());
    std::vector<std::string> got;
    wal.value()->group(0)->replay([&](BytesView r, WalPos) { got.push_back(to_string(r)); });
    ASSERT_EQ(got.size(), recs.size() - 1);
    for (size_t i = 0; i + 1 < recs.size(); ++i) EXPECT_EQ(got[i], recs[i]);
    // The repaired log must keep accepting appends.
    std::promise<void> done;
    wal.value()->group(0)->append(to_bytes("recovered"), [&](Status s, WalPos) {
      EXPECT_TRUE(s.is_ok());
      done.set_value();
    });
    done.get_future().wait();
    got.clear();
    wal.value()->group(0)->replay([&](BytesView r, WalPos) { got.push_back(to_string(r)); });
    ASSERT_EQ(got.size(), recs.size());
    EXPECT_EQ(got.back(), "recovered");
  }
}

// truncate_prefix: the replacement head lands in a fresh segment, the
// manifest commits, old segments are unlinked, and the compacted log
// round-trips a process restart.
TEST_F(FileWalTest, TruncatePrefixRotatesUnlinksAndSurvivesReopen) {
  {
    auto wal = FileWal::open(path_.string(), 0);
    ASSERT_TRUE(wal.is_ok());
    std::promise<void> flushed;
    for (int i = 0; i < 8; ++i) wal.value()->group(0)->append(Bytes(1024, uint8_t(i)), nullptr);
    wal.value()->group(0)->append(to_bytes("tail"), [&](Status, WalPos) { flushed.set_value(); });
    flushed.get_future().wait();
    uint64_t seg_before = wal.value()->active_segment();

    std::vector<Bytes> head;
    head.push_back(to_bytes("head-1"));
    head.push_back(to_bytes("head-2"));
    std::promise<uint64_t> reclaimed;
    wal.value()->group(0)->truncate_prefix(std::move(head), [&](StatusOr<uint64_t> r) {
      ASSERT_TRUE(r.is_ok());
      reclaimed.set_value(r.value());
    });
    EXPECT_GT(reclaimed.get_future().get(), 8u * 1024u);
    EXPECT_GT(wal.value()->first_segment(), seg_before);
    EXPECT_GE(wal.value()->group(0)->truncated_bytes(), 8u * 1024u);
    // Old segments are gone from disk.
    for (uint64_t s = 0; s <= seg_before; ++s) {
      EXPECT_FALSE(std::filesystem::exists(wal.value()->segment_path(s)))
          << "segment " << s << " should be unlinked";
    }
    std::promise<void> appended;
    wal.value()->group(0)->append(to_bytes("after-truncate"),
                                  [&](Status, WalPos) { appended.set_value(); });
    appended.get_future().wait();
  }
  auto wal2 = FileWal::open(path_.string(), 0);
  ASSERT_TRUE(wal2.is_ok());
  std::vector<std::string> got;
  wal2.value()->group(0)->replay([&](BytesView r, WalPos) { got.push_back(to_string(r)); });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "head-1");
  EXPECT_EQ(got[1], "head-2");
  EXPECT_EQ(got[2], "after-truncate");
}

// Appends rotate into new segments once the active one passes segment_bytes;
// replay stitches all live segments back together in order.
TEST_F(FileWalTest, SegmentRotationReplaysAcrossSegments) {
  {
    auto wal = FileWal::open(path_.string(), 0, /*segment_bytes=*/4096);
    ASSERT_TRUE(wal.is_ok());
    // One durable batch per record, so rotation (a batch-boundary decision)
    // actually triggers once the active segment passes 4 KiB.
    for (int i = 0; i < 16; ++i) {
      std::promise<void> done;
      wal.value()->group(0)->append(Bytes(1024, static_cast<uint8_t>('a' + i)),
                          [&](Status, WalPos) { done.set_value(); });
      done.get_future().wait();
    }
    EXPECT_GT(wal.value()->active_segment(), 0u);
  }
  auto wal2 = FileWal::open(path_.string(), 0, 4096);
  ASSERT_TRUE(wal2.is_ok());
  int i = 0;
  wal2.value()->group(0)->replay([&](BytesView r, WalPos) {
    ASSERT_EQ(r.size(), 1024u);
    EXPECT_EQ(r[0], static_cast<uint8_t>('a' + i));
    ++i;
  });
  EXPECT_EQ(i, 16);
}

TEST(SimWalTruncate, BarrierReplacesPrefixAndCountsBytes) {
  sim::SimWorld w(1);
  sim::SimDisk disk(&w, sim::DiskParams{100, 1e9});
  SimWal wal(&disk);
  wal.group(0)->append(Bytes(500, 1), nullptr);
  wal.group(0)->append(Bytes(500, 2), nullptr);
  w.run_to_completion();
  std::vector<Bytes> head;
  head.push_back(to_bytes("head"));
  uint64_t reclaimed = 0;
  wal.group(0)->truncate_prefix(std::move(head),
                      [&](StatusOr<uint64_t> r) { reclaimed = r.is_ok() ? r.value() : 0; });
  wal.group(0)->append(to_bytes("after"), nullptr);
  w.run_to_completion();
  EXPECT_EQ(reclaimed, 1000u);
  EXPECT_EQ(wal.group(0)->truncated_bytes(), 1000u);
  std::vector<std::string> got;
  wal.group(0)->replay([&](BytesView r, WalPos) { got.push_back(to_string(r)); });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], "head");
  EXPECT_EQ(got[1], "after");
}

}  // namespace
}  // namespace rspaxos
