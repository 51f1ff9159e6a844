// Parametrized WAL conformance suite: FileWal and SimWal are both MuxWal
// implementations and must agree on the observable contract —
// append/replay ordering, per-group truncate_prefix semantics, crash
// (torn-tail) behaviour, and fsync amortization across groups — even though
// one is a real segmented file and the other a simulated device. A second
// suite holds them, and MemWal, to the read-back contract: a reported
// position reads back exactly its record until a truncation retires it, and
// a record appended as head + shared body reads back as the contiguous bytes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "consensus/replica_internal.h"
#include "sim/sim_disk.h"
#include "sim/sim_world.h"
#include "storage/file_wal.h"
#include "storage/sim_wal.h"
#include "storage/wal.h"
#include "util/rng.h"

namespace rspaxos {
namespace {

constexpr uint32_t kGroups = 4;

/// One WAL under test plus the machinery to drive its asynchrony: a real
/// flusher thread (FileWal) or a simulated world (SimWal). Ops issued through
/// the harness are tracked so drive() can block until everything is durable.
class WalHarness {
 public:
  virtual ~WalHarness() = default;

  virtual storage::MuxWal& mux() = 0;

  /// Returns where the record landed, filled in once it is durable.
  std::shared_ptr<storage::WalPos> append(uint32_t g, storage::WalRecord rec) {
    issued_++;
    auto pos = std::make_shared<storage::WalPos>();
    mux().append(g, std::move(rec), [this, pos](Status s, storage::WalPos at) {
      EXPECT_TRUE(s.is_ok()) << s.message();
      *pos = at;
      completed_++;
    });
    return pos;
  }

  /// Issues the truncation, drives to completion, returns reclaimed bytes.
  uint64_t truncate(uint32_t g, std::vector<Bytes> head) {
    issued_++;
    uint64_t reclaimed = 0;
    mux().truncate_prefix(g, std::move(head), [this, &reclaimed](StatusOr<uint64_t> r) {
      EXPECT_TRUE(r.is_ok());
      if (r.is_ok()) reclaimed = r.value();
      completed_++;
    });
    drive();
    return reclaimed;
  }

  std::vector<std::string> replayed(uint32_t g) {
    std::vector<std::string> out;
    mux().replay(g, [&](BytesView r, storage::WalPos) { out.push_back(to_string(r)); });
    return out;
  }

  std::vector<storage::WalPos> replayed_positions(uint32_t g) {
    std::vector<storage::WalPos> out;
    mux().replay(g, [&](BytesView, storage::WalPos pos) { out.push_back(pos); });
    return out;
  }

  /// Flips one byte inside the frame at `pos`; false where the backend keeps
  /// no on-disk frames.
  virtual bool corrupt(storage::WalPos) { return false; }

  /// Blocks until every op issued through the harness is durable.
  virtual void drive() = 0;
  /// Crash while appending `lost` to group g: the record must not survive,
  /// everything durable before it must.
  virtual void crash_mid_append(uint32_t g, Bytes lost) = 0;
  /// Clean shutdown + recovery, where the backend has a real restart.
  virtual void restart() = 0;

 protected:
  std::atomic<int> issued_{0};
  std::atomic<int> completed_{0};
};

class FileWalHarness final : public WalHarness {
 public:
  explicit FileWalHarness(size_t segment_bytes = storage::FileWal::kDefaultSegmentBytes)
      : segment_bytes_(segment_bytes) {
    path_ = (std::filesystem::temp_directory_path() /
             ("rspaxos_wal_conf_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++)))
                .string();
    std::filesystem::remove(path_);
    open();
  }
  ~FileWalHarness() override {
    wal_.reset();
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::path(path_).parent_path(), ec)) {
      if (e.path().string().rfind(path_, 0) == 0) std::filesystem::remove(e.path(), ec);
    }
  }

  storage::MuxWal& mux() override { return *wal_; }

  void drive() override {
    while (completed_.load() < issued_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void crash_mid_append(uint32_t g, Bytes lost) override {
    // A crash mid-write leaves a torn frame at the active segment's tail:
    // full header, bogus crc, half the payload. open() must trim it.
    drive();
    std::string active = wal_->segment_path(wal_->active_segment());
    wal_.reset();
    FILE* f = std::fopen(active.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    uint32_t len = static_cast<uint32_t>(lost.size()) + 4;
    uint32_t crc = 0xdeadbeef;
    uint32_t gk = g << 1;
    std::fwrite(&len, 4, 1, f);
    std::fwrite(&crc, 4, 1, f);
    std::fwrite(&gk, 4, 1, f);
    std::fwrite(lost.data(), 1, lost.size() / 2, f);
    std::fclose(f);
    open();
  }

  void restart() override {
    drive();
    wal_.reset();
    open();
  }

  bool corrupt(storage::WalPos pos) override {
    drive();
    FILE* f = std::fopen(wal_->segment_path(pos.seg).c_str(), "r+b");
    if (f == nullptr) return false;
    long at = static_cast<long>(pos.off + pos.len - 1);  // last payload byte
    std::fseek(f, at, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, at, SEEK_SET);
    std::fputc(c ^ 0x5a, f);
    std::fclose(f);
    return true;
  }

 private:
  void open() {
    // A short real batching window so cross-group amortization is observable.
    auto w = storage::FileWal::open(path_, /*group_commit_window_us=*/5000, segment_bytes_,
                                    kGroups);
    ASSERT_TRUE(w.is_ok()) << w.status().message();
    wal_ = std::move(w).value();
  }

  static inline std::atomic<int> counter_{0};
  size_t segment_bytes_;
  std::string path_;
  std::unique_ptr<storage::FileWal> wal_;
};

class SimWalHarness final : public WalHarness {
 public:
  SimWalHarness()
      : world_(1), disk_(&world_, sim::DiskParams{100, 1e9}),
        wal_(&disk_, /*retain_for_replay=*/true, kGroups) {}

  storage::MuxWal& mux() override { return wal_; }

  void drive() override {
    world_.run_to_completion();
    EXPECT_EQ(completed_.load(), issued_.load());
  }

  void crash_mid_append(uint32_t g, Bytes lost) override {
    drive();
    wal_.append(g, std::move(lost),
                [](Status, storage::WalPos) { FAIL() << "lost record's callback fired"; });
    issued_++;
    completed_++;  // the callback must never fire; keep drive() balanced
    wal_.drop_unflushed();
    world_.run_to_completion();
  }

  void restart() override { drive(); }  // durable state survives in place

 private:
  sim::SimWorld world_;
  sim::SimDisk disk_;
  storage::SimWal wal_;
};

using HarnessFactory = std::function<std::unique_ptr<WalHarness>()>;

class WalConformance : public ::testing::TestWithParam<HarnessFactory> {
 protected:
  void SetUp() override { h_ = GetParam()(); }
  std::unique_ptr<WalHarness> h_;
};

TEST_P(WalConformance, GroupsReplayIndependently) {
  h_->append(0, to_bytes("g0-1"));
  h_->append(1, to_bytes("g1-1"));
  h_->append(0, to_bytes("g0-2"));
  h_->append(3, to_bytes("g3-1"));
  h_->drive();
  EXPECT_EQ(h_->replayed(0), (std::vector<std::string>{"g0-1", "g0-2"}));
  EXPECT_EQ(h_->replayed(1), (std::vector<std::string>{"g1-1"}));
  EXPECT_EQ(h_->replayed(2), (std::vector<std::string>{}));
  EXPECT_EQ(h_->replayed(3), (std::vector<std::string>{"g3-1"}));
  // The group() facade is the same log viewed through the Wal interface.
  std::vector<std::string> via_view;
  h_->mux().group(1)->replay(
      [&](BytesView r, storage::WalPos) { via_view.push_back(to_string(r)); });
  EXPECT_EQ(via_view, h_->replayed(1));
  EXPECT_EQ(h_->mux().group(kGroups), nullptr);
}

TEST_P(WalConformance, TruncateReplacesOnlyThatGroup) {
  h_->append(0, Bytes(256, 7));
  h_->append(1, to_bytes("keep-me"));
  h_->append(0, Bytes(256, 8));
  h_->drive();
  uint64_t reclaimed = h_->truncate(0, {to_bytes("head")});
  EXPECT_GE(reclaimed, 512u);
  h_->append(0, to_bytes("after"));
  h_->drive();
  EXPECT_EQ(h_->replayed(0), (std::vector<std::string>{"head", "after"}));
  EXPECT_EQ(h_->replayed(1), (std::vector<std::string>{"keep-me"}));
  EXPECT_EQ(h_->mux().group_truncated_bytes(0), reclaimed);
  EXPECT_EQ(h_->mux().group_truncated_bytes(1), 0u);
}

TEST_P(WalConformance, TruncateThenRestartReplaysHeadPlusTail) {
  h_->append(2, to_bytes("old-1"));
  h_->append(2, to_bytes("old-2"));
  h_->drive();
  h_->truncate(2, {to_bytes("h1"), to_bytes("h2")});
  h_->append(2, to_bytes("tail"));
  h_->restart();
  EXPECT_EQ(h_->replayed(2), (std::vector<std::string>{"h1", "h2", "tail"}));
}

TEST_P(WalConformance, CrashMidAppendLosesOnlyTheTornRecord) {
  h_->append(1, to_bytes("durable"));
  h_->crash_mid_append(1, Bytes(64, 0xee));
  EXPECT_EQ(h_->replayed(1), (std::vector<std::string>{"durable"}));
  // The recovered log keeps accepting appends.
  h_->append(1, to_bytes("recovered"));
  h_->drive();
  EXPECT_EQ(h_->replayed(1), (std::vector<std::string>{"durable", "recovered"}));
}

TEST_P(WalConformance, FlushesAmortizedAcrossGroups) {
  // A burst of appends spread over every group must coalesce into far fewer
  // device flushes than records — the shared log batches across shards.
  constexpr int kPerGroup = 8;
  uint64_t flushes_before = h_->mux().flush_ops();
  for (int i = 0; i < kPerGroup; ++i) {
    for (uint32_t g = 0; g < kGroups; ++g) {
      h_->append(g, Bytes(64, static_cast<uint8_t>(i)));
    }
  }
  h_->drive();
  uint64_t flushes = h_->mux().flush_ops() - flushes_before;
  EXPECT_LE(flushes, static_cast<uint64_t>(kPerGroup))
      << "32 cross-group appends should share flushes";
  for (uint32_t g = 0; g < kGroups; ++g) {
    EXPECT_EQ(h_->replayed(g).size(), static_cast<size_t>(kPerGroup));
    EXPECT_GT(h_->mux().group_bytes_flushed(g), 0u);
  }
}

TEST_P(WalConformance, PerReactorAccountingIdentityAcrossSplitLogs) {
  // Multi-reactor hosts split the machine log into one MuxWal per reactor
  // (placement: global group g -> reactor g % R, local index g / R). Model
  // that shape with two independent logs and check the accounting identity
  // each reactor must satisfy on its own: every byte the device flushed is
  // attributed to exactly one of the reactor's groups, and one reactor's
  // counters never move with the other's traffic.
  auto other = GetParam()();  // reactor 1's log; h_ plays reactor 0
  WalHarness* reactor[2] = {h_.get(), other.get()};
  constexpr uint32_t kGlobal = 2 * kGroups;
  constexpr size_t kRecBytes = 128;
  size_t per_group[kGlobal] = {};
  for (int round = 0; round < 3; ++round) {
    for (uint32_t g = 0; g < kGlobal; ++g) {
      if ((g / 2 + static_cast<uint32_t>(round)) % 2 == 0) continue;  // uneven load
      reactor[g % 2]->append(g / 2, Bytes(kRecBytes, static_cast<uint8_t>(g)));
      per_group[g]++;
    }
  }
  uint64_t r0_before_bytes = 0;  // reactor 0's counters, pre-cross-check
  reactor[0]->drive();
  reactor[1]->drive();
  for (int r = 0; r < 2; ++r) {
    uint64_t group_sum = 0;
    uint64_t payload_sum = 0;
    for (uint32_t lg = 0; lg < kGroups; ++lg) {
      group_sum += reactor[r]->mux().group_bytes_flushed(lg);
      payload_sum += per_group[2 * lg + static_cast<uint32_t>(r)] * kRecBytes;
    }
    // Per-group attribution covers at least every record's payload and sums
    // to no more than the device total (framing may only add, never lose).
    EXPECT_GE(group_sum, payload_sum) << "reactor " << r;
    EXPECT_LE(group_sum, reactor[r]->mux().bytes_flushed()) << "reactor " << r;
    EXPECT_GT(reactor[r]->mux().flush_ops(), 0u) << "reactor " << r;
    if (r == 0) r0_before_bytes = reactor[0]->mux().bytes_flushed();
  }
  // Isolation: traffic on reactor 1 must not move reactor 0's counters.
  reactor[1]->append(0, Bytes(kRecBytes, 0x7e));  // global group 1
  per_group[1]++;
  reactor[1]->drive();
  EXPECT_EQ(reactor[0]->mux().bytes_flushed(), r0_before_bytes);
  // Each reactor's replay sees exactly its own groups' records.
  for (uint32_t g = 0; g < kGlobal; ++g) {
    EXPECT_EQ(reactor[g % 2]->replayed(g / 2).size(), per_group[g]) << "group " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WalConformance,
    ::testing::Values(HarnessFactory([]() -> std::unique_ptr<WalHarness> {
                        return std::make_unique<FileWalHarness>();
                      }),
                      HarnessFactory([]() -> std::unique_ptr<WalHarness> {
                        return std::make_unique<SimWalHarness>();
                      })),
    [](const ::testing::TestParamInfo<HarnessFactory>& info) {
      return info.index == 0 ? "FileWal" : "SimWal";
    });

// ---------------------------------------------------------------------------
// Read-back: the position an append reports names exactly that record.
// ---------------------------------------------------------------------------

/// MemWal is a single-group Wal; this gives it the MuxWal face the harness
/// drives, one MemWal per group.
class MemMux final : public storage::MuxWal {
 public:
  uint32_t num_groups() const override { return kGroups; }
  void append(uint32_t g, storage::WalRecord record, storage::Wal::DurableFn cb) override {
    logs_[g].append(std::move(record), std::move(cb));
  }
  void truncate_prefix(uint32_t g, std::vector<Bytes> head,
                       storage::Wal::TruncateFn cb) override {
    logs_[g].truncate_prefix(std::move(head), std::move(cb));
  }
  void replay(uint32_t g, const storage::Wal::ReplayFn& fn) override { logs_[g].replay(fn); }
  StatusOr<Bytes> read(uint32_t g, storage::WalPos pos) const override {
    return logs_[g].read(pos);
  }
  uint64_t group_bytes_flushed(uint32_t g) const override { return logs_[g].bytes_flushed(); }
  uint64_t group_truncated_bytes(uint32_t g) const override {
    return logs_[g].truncated_bytes();
  }
  uint64_t flush_ops() const override { return 0; }
  uint64_t bytes_flushed() const override { return 0; }
  void set_flush_observer(std::function<void(int64_t)>) override {}

 private:
  storage::MemWal logs_[kGroups];
};

class MemWalHarness final : public WalHarness {
 public:
  storage::MuxWal& mux() override { return wal_; }
  void drive() override { EXPECT_EQ(completed_.load(), issued_.load()); }
  // MemWal records are durable the moment they are appended: nothing is
  // ever in flight to lose, and nothing is lost across a "restart".
  void crash_mid_append(uint32_t, Bytes) override {}
  void restart() override {}

 private:
  MemMux wal_;
};

class WalReadBack : public WalConformance {
 protected:
  /// Appends `rounds` batches of `per_round` records to `g`, each batch made
  /// durable before the next (so FileWal's 4 KiB segments rotate between
  /// them). Returns every record with where it landed.
  std::vector<std::pair<Bytes, std::shared_ptr<storage::WalPos>>> fill(uint32_t g, int rounds,
                                                                       int per_round) {
    std::vector<std::pair<Bytes, std::shared_ptr<storage::WalPos>>> out;
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < per_round; ++i) {
        size_t n = out.size();
        Bytes rec(200 + 97 * n, static_cast<uint8_t>(n * 31 + g));
        rec[0] = static_cast<uint8_t>(n);
        out.emplace_back(rec, h_->append(g, rec));
      }
      h_->drive();
    }
    return out;
  }
};

TEST_P(WalReadBack, EveryPositionReadsBackItsRecord) {
  auto recs = fill(0, 6, 3);
  for (const auto& [rec, pos] : recs) {
    ASSERT_TRUE(pos->valid());
    auto got = h_->mux().read(0, *pos);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), rec);
    // The group() facade reads the same record.
    auto via_view = h_->mux().group(0)->read(*pos);
    ASSERT_TRUE(via_view.is_ok());
    EXPECT_EQ(via_view.value(), rec);
  }
  if (dynamic_cast<storage::FileWal*>(&h_->mux()) != nullptr) {
    EXPECT_GT(h_->mux().active_segment(), 2u) << "records should span rotated segments";
  }
}

TEST_P(WalReadBack, ReplayReportsTheAppendPositions) {
  auto recs = fill(1, 4, 3);
  h_->restart();
  std::vector<storage::WalPos> want;
  for (const auto& [rec, pos] : recs) want.push_back(*pos);
  EXPECT_EQ(h_->replayed_positions(1), want);
  for (const auto& [rec, pos] : recs) {
    auto got = h_->mux().read(1, *pos);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), rec);
  }
}

TEST_P(WalReadBack, TruncatedPositionsReadAsNotFound) {
  auto old = fill(0, 4, 3);
  h_->truncate(0, {to_bytes("head")});
  if (dynamic_cast<storage::FileWal*>(&h_->mux()) != nullptr) {
    EXPECT_GT(h_->mux().first_segment(), 0u) << "the old segments should be reclaimed";
  }
  for (const auto& [rec, pos] : old) {
    auto got = h_->mux().read(0, *pos);
    EXPECT_EQ(got.status().code(), Code::kNotFound) << got.status().to_string();
  }
  auto after = h_->append(0, to_bytes("after"));
  h_->drive();
  auto got = h_->mux().read(0, *after);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(to_string(got.value()), "after");
}

TEST_P(WalReadBack, TruncationRetiresOnlyThatGroupsPositions) {
  auto g0 = h_->append(0, Bytes(300, 1));
  auto g1 = h_->append(1, to_bytes("keep-me"));
  h_->drive();
  h_->truncate(0, {to_bytes("head")});
  EXPECT_EQ(h_->mux().read(0, *g0).status().code(), Code::kNotFound);
  auto got = h_->mux().read(1, *g1);
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(to_string(got.value()), "keep-me");
}

TEST_P(WalReadBack, FlippedByteReadsAsCrcErrorNeverTheBytes) {
  auto recs = fill(2, 2, 3);
  const auto& victim = *recs[2].second;
  if (!h_->corrupt(victim)) GTEST_SKIP() << "backend keeps no on-disk frames";
  auto bad = h_->mux().read(2, victim);
  EXPECT_EQ(bad.status().code(), Code::kCorruption) << bad.status().to_string();
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i == 2) continue;
    auto got = h_->mux().read(2, *recs[i].second);
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), recs[i].first);
  }
}

// A record goes to the log as a head plus a shared body: a slot record's
// encoded prefix and its share's buffer. Head-only, body-only and head+body
// records must read back and replay as exactly the bytes the contiguous
// encoder builds (across FileWal's 4 KiB rotations), a retained SimWal
// record must keep the caller's body buffer rather than a copy, and a byte
// flipped inside the body on disk must read as corruption.
TEST_P(WalReadBack, GatheredRecordsReadBackAsTheirContiguousBytes) {
  constexpr uint32_t kG = 3;
  Rng rng(11);
  std::vector<Bytes> want;
  std::vector<SharedBytes> bodies;
  std::vector<std::shared_ptr<storage::WalPos>> pos;
  auto add = [&](storage::WalRecord rec, Bytes contiguous) {
    bodies.push_back(rec.body);
    want.push_back(std::move(contiguous));
    pos.push_back(h_->append(kG, std::move(rec)));
  };
  // Head only, the shape of meta and config records.
  add(consensus::encode_meta_record(consensus::Ballot{7, 2}),
      consensus::encode_meta_record(consensus::Ballot{7, 2}));
  // Body only.
  Bytes raw(1500);
  rng.fill(raw.data(), raw.size());
  add(storage::WalRecord(Bytes{}, SharedBytes(raw)), raw);
  // Slot records, from an empty share to shares larger than a segment.
  for (size_t len : {0u, 1u, 300u, 2500u, 5000u, 700u}) {
    consensus::CodedShare share;
    share.vid = consensus::ValueId{1, len};
    share.share_idx = 2;
    share.x = 3;
    share.n = 5;
    share.value_len = 3 * len;
    share.header = to_bytes("hdr");
    Bytes data(len);
    rng.fill(data.data(), data.size());
    share.data = std::move(data);
    const consensus::Slot slot = 40 + len;
    const consensus::Ballot ballot{3, 1};
    add(storage::WalRecord(consensus::encode_slot_record_head(slot, ballot, share), share.data),
        consensus::encode_slot_record(slot, ballot, share));
    h_->drive();  // one batch per record, so FileWal rotates between them
  }
  h_->drive();

  auto* sim = dynamic_cast<storage::SimWal*>(&h_->mux());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(pos[i]->valid()) << i;
    auto got = h_->mux().read(kG, *pos[i]);
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_EQ(got.value(), want[i]) << i;
    if (sim != nullptr) {
      const storage::WalRecord* kept = sim->retained(kG, *pos[i]);
      ASSERT_NE(kept, nullptr) << i;
      EXPECT_EQ(kept->body.id(), bodies[i].id()) << i;
    }
  }
  h_->restart();
  std::vector<Bytes> replayed;
  h_->mux().replay(kG, [&](BytesView r, storage::WalPos) {
    replayed.emplace_back(r.begin(), r.end());
  });
  EXPECT_EQ(replayed, want);

  const size_t victim = want.size() - 2;  // the 5000-byte share: its last byte is body
  if (!h_->corrupt(*pos[victim])) return;
  EXPECT_EQ(h_->mux().read(kG, *pos[victim]).status().code(), Code::kCorruption);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WalReadBack,
    ::testing::Values(HarnessFactory([]() -> std::unique_ptr<WalHarness> {
                        return std::make_unique<FileWalHarness>(4096);
                      }),
                      HarnessFactory([]() -> std::unique_ptr<WalHarness> {
                        return std::make_unique<SimWalHarness>();
                      }),
                      HarnessFactory([]() -> std::unique_ptr<WalHarness> {
                        return std::make_unique<MemWalHarness>();
                      })),
    [](const ::testing::TestParamInfo<HarnessFactory>& info) {
      return std::string(info.index == 0 ? "FileWal" : info.index == 1 ? "SimWal" : "MemWal");
    });

}  // namespace
}  // namespace rspaxos
