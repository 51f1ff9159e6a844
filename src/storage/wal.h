// Write-ahead log abstraction.
//
// Acceptors must persist promised/accepted state *before* replying (§4.5:
// "it needs to log all these decisions into disks before sending out the
// reply"), so the WAL append API is asynchronous and the callback fires only
// once the record is durable. Group commit (§7, IO batching) is implemented
// by the durable backends: appends arriving within a batching window share
// one device flush. The callback also reports where the record landed, so a
// caller can drop its in-memory copy and read the record back later.
//
// A record is appended as a small head plus a shared body (WalRecord): the
// bytes on disk are head then body, exactly as if the caller had built them
// contiguously, but the body — a slot record's share — is never copied on
// the way. FileWal writes it with the head in one gather write and holds a
// reference until the flush completes; SimWal and MemWal keep the reference
// as their durable record, so the sim's "disk" and the log entry share one
// buffer. What comes back out — read(pos), replay, and truncation heads — is
// contiguous.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace rspaxos::storage {

/// Where a durable record landed, as reported by the append callback and by
/// replay; read(pos) returns that record. Meaningful only to the log that
/// reported it. A record the log cannot address on its own has no position:
/// FileWal's truncation head (it lives inside its marker frame) and every
/// record of a SimWal that retains nothing.
struct WalPos {
  static constexpr uint64_t kNone = ~uint64_t{0};
  uint64_t seg = kNone;  // FileWal: segment number; SimWal/MemWal: 0
  uint64_t off = 0;      // FileWal: frame offset in the segment; else record sequence
  uint64_t len = 0;      // FileWal: framed length; else 0

  bool valid() const { return seg != kNone; }
  bool operator==(const WalPos&) const = default;
};

/// One record to append: `head` then `body`, stored as their concatenation.
/// Built implicitly from Bytes for records that are head only (meta and
/// config records, tests); a slot record passes its encoded prefix as the
/// head and the share's buffer as the body.
struct WalRecord {
  Bytes head;
  SharedBytes body;

  WalRecord() = default;
  WalRecord(Bytes h)  // NOLINT(google-explicit-constructor): head-only record
      : head(std::move(h)) {}
  WalRecord(Bytes h, SharedBytes b) : head(std::move(h)), body(std::move(b)) {}

  size_t size() const { return head.size() + body.size(); }
  /// The record's bytes in one buffer (head then body).
  Bytes flatten() const {
    Bytes out;
    out.reserve(size());
    out.insert(out.end(), head.begin(), head.end());
    out.insert(out.end(), body.begin(), body.end());
    return out;
  }
};

/// Append-only durable record log with prefix truncation (log compaction).
class Wal {
 public:
  /// Fires once the record is durable, with its position (none on error).
  using DurableFn = std::function<void(Status, WalPos)>;
  using ReplayFn = std::function<void(BytesView record, WalPos pos)>;
  /// Truncation completion: reclaimed (unlinked/forgotten) durable bytes.
  using TruncateFn = std::function<void(StatusOr<uint64_t>)>;

  virtual ~Wal() = default;

  /// Appends one record; cb fires (on the owner's execution context) when
  /// the record — and everything appended before it — is durable. The log
  /// references record.body rather than copying it.
  virtual void append(WalRecord record, DurableFn cb) = 0;

  /// Log compaction after a checkpoint: atomically replaces every record
  /// appended before this call with `head` (the caller-built barrier state —
  /// promise, config, snapshot marker, still-open slots). Records appended
  /// *after* this call are preserved; replay then yields head followed by
  /// them. Ordered with append like any staged record; cb fires once the
  /// head is durable and the old prefix is reclaimed.
  virtual void truncate_prefix(std::vector<Bytes> head, TruncateFn cb) = 0;

  /// Replays all durable records in append order (crash recovery), each
  /// with the position its append reported.
  virtual void replay(const ReplayFn& fn) = 0;

  /// The durable record at `pos`, a position this log reported. not_found
  /// once a truncate_prefix has replaced it; corruption when its bytes no
  /// longer match their CRC — never the damaged bytes. Safe to call from
  /// the owner's context while appends are in flight.
  virtual StatusOr<Bytes> read(WalPos pos) const = 0;

  /// Total bytes made durable — the paper's disk-I/O cost metric.
  virtual uint64_t bytes_flushed() const = 0;
  /// Number of device flush operations issued (group commit batches).
  virtual uint64_t flush_ops() const = 0;
  /// Durable bytes reclaimed by truncate_prefix over this WAL's lifetime.
  virtual uint64_t truncated_bytes() const = 0;
};

/// A durable log multiplexed across several Paxos groups: one device flush
/// stream serves every group's appends (group commit batches fsyncs *across*
/// shards), while truncation and replay stay per-group. `group(g)` returns a
/// Wal facade scoped to one group, so consumers written against Wal (Replica,
/// KvServer) run unchanged over a shared log.
///
/// group() lazily builds the facades and is setup-phase only (not
/// thread-safe); the returned pointers are stable for the MuxWal's lifetime.
class MuxWal {
 public:
  virtual ~MuxWal() = default;

  virtual uint32_t num_groups() const = 0;

  /// Per-group Wal facade (nullptr when g >= num_groups()).
  Wal* group(uint32_t g);

  // Group-scoped primitives the facades delegate to.
  virtual void append(uint32_t g, WalRecord record, Wal::DurableFn cb) = 0;
  virtual void truncate_prefix(uint32_t g, std::vector<Bytes> head,
                               Wal::TruncateFn cb) = 0;
  virtual void replay(uint32_t g, const Wal::ReplayFn& fn) = 0;
  virtual StatusOr<Bytes> read(uint32_t g, WalPos pos) const = 0;
  virtual uint64_t group_bytes_flushed(uint32_t g) const = 0;
  virtual uint64_t group_truncated_bytes(uint32_t g) const = 0;
  /// Device flushes are shared across groups, so the facades all report the
  /// whole log's flush count.
  virtual uint64_t flush_ops() const = 0;
  /// Durable bytes across every group (the shared device) — the machine's
  /// disk-cost axis that /status reports.
  virtual uint64_t bytes_flushed() const = 0;
  /// Observer invoked with each device flush's latency in microseconds, from
  /// the flushing execution context (a real flusher thread for FileWal, the
  /// sim event for SimWal). Set during assembly, before traffic; feeds the
  /// health watchdog's sliding fsync window.
  virtual void set_flush_observer(std::function<void(int64_t)> fn) = 0;
  /// Segment window of the underlying device log (FileWal's on-disk
  /// sequence); logs without segments report [0, 0].
  virtual uint64_t first_segment() const { return 0; }
  virtual uint64_t active_segment() const { return 0; }

 private:
  std::vector<std::unique_ptr<Wal>> views_;
};

/// Wal facade over one group of a MuxWal (what MuxWal::group returns).
class GroupWalView final : public Wal {
 public:
  GroupWalView(MuxWal* mux, uint32_t g) : mux_(mux), g_(g) {}

  void append(WalRecord record, DurableFn cb) override {
    mux_->append(g_, std::move(record), std::move(cb));
  }
  void truncate_prefix(std::vector<Bytes> head, TruncateFn cb) override {
    mux_->truncate_prefix(g_, std::move(head), std::move(cb));
  }
  void replay(const ReplayFn& fn) override { mux_->replay(g_, fn); }
  StatusOr<Bytes> read(WalPos pos) const override { return mux_->read(g_, pos); }
  uint64_t bytes_flushed() const override { return mux_->group_bytes_flushed(g_); }
  uint64_t flush_ops() const override { return mux_->flush_ops(); }
  uint64_t truncated_bytes() const override { return mux_->group_truncated_bytes(g_); }

 private:
  MuxWal* mux_;
  uint32_t g_;
};

/// Instant in-memory WAL for protocol unit tests: records are "durable"
/// immediately, callbacks fire inline. A position is a record's sequence
/// number; truncation retires every sequence before the new head. A record
/// keeps its body by reference.
class MemWal final : public Wal {
 public:
  void append(WalRecord record, DurableFn cb) override;
  void truncate_prefix(std::vector<Bytes> head, TruncateFn cb) override;
  void replay(const ReplayFn& fn) override;
  StatusOr<Bytes> read(WalPos pos) const override;
  uint64_t bytes_flushed() const override { return bytes_; }
  uint64_t flush_ops() const override { return records_.size(); }
  uint64_t truncated_bytes() const override { return truncated_; }

  /// Clears records (simulating disk loss — used by tests of the *unsafe*
  /// configurations; never by the protocol).
  void wipe() {
    first_seq_ += records_.size();
    records_.clear();
    bytes_ = 0;
  }

 private:
  std::vector<WalRecord> records_;
  uint64_t first_seq_ = 0;  // sequence of records_[0]
  uint64_t bytes_ = 0;
  uint64_t truncated_ = 0;
};

}  // namespace rspaxos::storage
