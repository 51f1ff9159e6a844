// Write-ahead log abstraction.
//
// Acceptors must persist promised/accepted state *before* replying (§4.5:
// "it needs to log all these decisions into disks before sending out the
// reply"), so the WAL append API is asynchronous and the callback fires only
// once the record is durable. Group commit (§7, IO batching) is implemented
// by the durable backends: appends arriving within a batching window share
// one device flush.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace rspaxos::storage {

/// Append-only durable record log with prefix truncation (log compaction).
class Wal {
 public:
  using DurableFn = std::function<void(Status)>;
  /// Truncation completion: reclaimed (unlinked/forgotten) durable bytes.
  using TruncateFn = std::function<void(StatusOr<uint64_t>)>;

  virtual ~Wal() = default;

  /// Appends one record; cb fires (on the owner's execution context) when
  /// the record — and everything appended before it — is durable.
  virtual void append(Bytes record, DurableFn cb) = 0;

  /// Log compaction after a checkpoint: atomically replaces every record
  /// appended before this call with `head` (the caller-built barrier state —
  /// promise, config, snapshot marker, still-open slots). Records appended
  /// *after* this call are preserved; replay then yields head followed by
  /// them. Ordered with append like any staged record; cb fires once the
  /// head is durable and the old prefix is reclaimed.
  virtual void truncate_prefix(std::vector<Bytes> head, TruncateFn cb) = 0;

  /// Replays all durable records in append order (crash recovery).
  virtual void replay(const std::function<void(BytesView)>& fn) = 0;

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
  virtual void append(uint32_t g, Bytes record, Wal::DurableFn cb) = 0;
  virtual void truncate_prefix(uint32_t g, std::vector<Bytes> head,
                               Wal::TruncateFn cb) = 0;
  virtual void replay(uint32_t g, const std::function<void(BytesView)>& fn) = 0;
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

  void append(Bytes record, DurableFn cb) override {
    mux_->append(g_, std::move(record), std::move(cb));
  }
  void truncate_prefix(std::vector<Bytes> head, TruncateFn cb) override {
    mux_->truncate_prefix(g_, std::move(head), std::move(cb));
  }
  void replay(const std::function<void(BytesView)>& fn) override {
    mux_->replay(g_, fn);
  }
  uint64_t bytes_flushed() const override { return mux_->group_bytes_flushed(g_); }
  uint64_t flush_ops() const override { return mux_->flush_ops(); }
  uint64_t truncated_bytes() const override { return mux_->group_truncated_bytes(g_); }

 private:
  MuxWal* mux_;
  uint32_t g_;
};

/// Instant in-memory WAL for protocol unit tests: records are "durable"
/// immediately, callbacks fire inline.
class MemWal final : public Wal {
 public:
  void append(Bytes record, DurableFn cb) override;
  void truncate_prefix(std::vector<Bytes> head, TruncateFn cb) override;
  void replay(const std::function<void(BytesView)>& fn) override;
  uint64_t bytes_flushed() const override { return bytes_; }
  uint64_t flush_ops() const override { return records_.size(); }
  uint64_t truncated_bytes() const override { return truncated_; }

  /// Clears records (simulating disk loss — used by tests of the *unsafe*
  /// configurations; never by the protocol).
  void wipe() { records_.clear(); bytes_ = 0; }

 private:
  std::vector<Bytes> records_;
  uint64_t bytes_ = 0;
  uint64_t truncated_ = 0;
};

}  // namespace rspaxos::storage
