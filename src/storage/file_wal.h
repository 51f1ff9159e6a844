// Real file-backed WAL: CRC-framed group-tagged records, group commit on a
// flusher thread, segment rotation, marker-based per-group prefix truncation.
//
// Record frame: u32 length | u32 crc32c(payload) | payload, where the payload
// begins with a u32 group key `gk` = group << 1 | is_marker. One log serves
// every Paxos group on a machine: a group-commit batch mixes records from all
// groups into one vectored write + one fdatasync, amortizing the flush across
// shards exactly like §7 amortizes it across clients within a group. A data
// record goes down as two iovecs, `len|crc|gk|head` and the body, with the
// CRC chained over the parts: the body (a share) is referenced from the
// caller's buffer until the flush completes and never copied in user space.
//
// On-disk layout: the log is a sequence of segments. Segment 0 is the bare
// `path` (so pre-segmentation logs open unchanged); segment k > 0 is
// `path.<%08u k>.seg`. Appends go to the highest segment, which rolls over
// once it exceeds `segment_bytes` (at a batch boundary, so frames never span
// segments).
//
// truncate_prefix(g) is *logical* per group: a marker record for g — whose
// payload embeds the caller's replacement head — is written into a fresh
// segment and fdatasync'd; that durable marker is the commit point. Replay(g)
// starts at g's newest marker (emitting its embedded head) and continues with
// g's records after it. A crash mid-marker leaves a torn tail, which open()
// trims — the old prefix simply stays authoritative. Physical reclamation is
// decoupled from the logical truncation: a sealed segment is unlinked once
// every group with records in it has its newest marker in a later segment, so
// one group's snapshot cadence never blocks another group's compaction — at
// worst a lagging group keeps shared segments pinned. Unlinked segments may
// leave holes in the sequence; replay treats a missing segment as empty.
// `path.manifest` persists the first live segment as an advisory cleanup
// hint (segments below it are deleted at open).
//
// Open scans the active segment and ftruncates a torn/corrupt tail down to
// the longest valid frame prefix, so a log that crashed mid-append keeps
// accepting (and replaying) appends afterwards. A batch whose write or sync
// fails at run time is cut off the same way before the next batch is
// written: O_APPEND would otherwise put acknowledged records behind a torn
// frame, where open() would later cut them off.
//
// A data record's position is its frame's (segment, offset, framed length).
// read() preads exactly that frame from the calling thread — the bytes are
// durable and segments are append-only, so it needs no lock against the
// flusher — and checks its CRC and group key. Positions before the group's
// newest marker read as not_found even while their segment is still pinned
// by another group.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/wal.h"

namespace rspaxos::storage {

class FileWal final : public MuxWal {
 public:
  static constexpr size_t kDefaultSegmentBytes = 64u << 20;

  /// Opens (creating if needed) the log at `path`. `group_commit_window_us`
  /// bounds how long an append may wait to share a flush with later appends;
  /// `segment_bytes` is the rotation threshold; `num_groups` sizes the
  /// per-group facades (records for groups outside the range still replay
  /// and pin segments, so reopening with a different count is safe).
  static StatusOr<std::unique_ptr<FileWal>> open(
      const std::string& path, int64_t group_commit_window_us = 200,
      size_t segment_bytes = kDefaultSegmentBytes, uint32_t num_groups = 1);
  ~FileWal() override;

  /// Quiesces the log before its callers' contexts go away: records already
  /// staged still reach the disk, but from now on no completion callback
  /// fires, and the flusher thread is joined before this returns. Later
  /// appends are dropped unflushed. The destructor alone also drains, but
  /// still completes callbacks — owners whose callbacks capture shorter-lived
  /// objects (TcpCluster: the transport's nodes) must stop() first.
  void stop();

  // MuxWal interface.
  uint32_t num_groups() const override { return num_groups_; }
  void append(uint32_t g, WalRecord record, Wal::DurableFn cb) override;
  void truncate_prefix(uint32_t g, std::vector<Bytes> head, Wal::TruncateFn cb) override;
  void replay(uint32_t g, const Wal::ReplayFn& fn) override;
  StatusOr<Bytes> read(uint32_t g, WalPos pos) const override;
  uint64_t group_bytes_flushed(uint32_t g) const override;
  uint64_t group_truncated_bytes(uint32_t g) const override;
  uint64_t flush_ops() const override { return flush_ops_.load(); }
  uint64_t bytes_flushed() const override { return bytes_flushed_.load(); }
  void set_flush_observer(std::function<void(int64_t)> fn) override;

  // Diagnostics / test hooks (also surfaced via MuxWal for /status).
  uint64_t first_segment() const override { return first_seq_.load(); }
  uint64_t active_segment() const override { return active_seq_.load(); }
  std::string segment_path(uint64_t seq) const;

 private:
  struct Pending {
    uint32_t group = 0;
    Bytes framed_head;  // len|crc|gk|head; empty for truncate markers
    SharedBytes body;   // written after framed_head
    Wal::DurableFn cb;
    bool truncate = false;
    std::vector<Bytes> head;  // truncate only: replacement records (unframed)
    Wal::TruncateFn tcb;

    size_t framed_size() const { return framed_head.size() + body.size(); }
  };

  /// Flusher-thread-private liveness state rebuilt by open()'s scan.
  struct ScanState {
    std::map<uint64_t, std::set<uint32_t>> seg_groups;  // groups present per segment
    std::map<uint32_t, uint64_t> marker_seg;            // newest marker segment per group
    std::map<uint32_t, uint64_t> live_bytes;            // framed live bytes per group
  };

  FileWal(std::string path, int64_t window_us, size_t segment_bytes, uint32_t num_groups,
          uint64_t first_seq, uint64_t active_seq, int active_fd, size_t active_size,
          ScanState scan);
  void flusher_loop();
  void flush_batch(std::deque<Pending> batch);
  void do_truncate(Pending t);
  /// Unlinks sealed segments no group still needs, advances first_seq_ and
  /// rewrites the manifest hint when it moved. Flusher thread (or open).
  void reclaim_segments();
  /// Creates segment `seq` (O_TRUNC) and fsyncs the directory so the entry
  /// survives a crash; returns the fd or -1.
  int create_segment(uint64_t seq);
  Status write_manifest(uint64_t first_seq);

  std::string path_;
  int64_t window_us_;
  size_t segment_bytes_;
  uint32_t num_groups_;

  // Flusher-thread private (atomics where other threads read diagnostics).
  int fd_;
  std::atomic<uint64_t> first_seq_;
  std::atomic<uint64_t> active_seq_;
  size_t active_size_;
  // Set when a failed batch could not be cut off the active segment: every
  // later append fails rather than landing behind the torn frame.
  bool broken_ = false;
  ScanState live_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> staged_;
  bool stopping_ = false;
  std::atomic<bool> drop_callbacks_{false};  // set by stop()

  // Flush-latency observer: written at assembly time, read by the flusher.
  std::mutex observer_mu_;
  std::function<void(int64_t)> flush_observer_;

  std::atomic<uint64_t> bytes_flushed_{0};
  std::atomic<uint64_t> flush_ops_{0};
  struct GroupCounters {
    std::atomic<uint64_t> flushed{0};
    std::atomic<uint64_t> truncated{0};
    std::atomic<uint64_t> marker_seg{0};  // newest marker's segment (read() floor)
  };
  std::vector<std::unique_ptr<GroupCounters>> group_counters_;  // size num_groups_
  std::thread flusher_;
};

}  // namespace rspaxos::storage
