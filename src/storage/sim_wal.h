// WAL backed by a simulated disk, with group commit across Paxos groups.
//
// Appends are staged; a flush is issued either immediately (if the device is
// idle) or when the in-flight flush completes, so all appends that arrive
// while the device is busy share the next flush — the batching behaviour the
// paper relies on for small-write throughput (§6.2.2, §7). One SimWal models
// one machine's log device: appends from every group on the machine share the
// staged queue and its flushes, mirroring FileWal's shared-segment layout,
// while the durable record store and truncation stay per-group.
#pragma once

#include <deque>

#include "sim/sim_disk.h"
#include "storage/wal.h"

namespace rspaxos::storage {

class SimWal final : public MuxWal {
 public:
  /// With retain_for_replay = false, durable records are accounted but not
  /// kept in memory: replay returns nothing and appends report no position,
  /// so nothing can be read back. Benchmarks that never restart nodes use
  /// this to bound host memory on multi-GB runs. A retained record's
  /// position is its sequence number within its group; read() serves it
  /// without modelling a device read.
  explicit SimWal(sim::SimDisk* disk, bool retain_for_replay = true,
                  uint32_t num_groups = 1)
      : disk_(disk), retain_(retain_for_replay), groups_(num_groups) {}

  /// Disables group commit: every append becomes its own device flush (the
  /// §7 IO-batching ablation). Default on.
  void set_group_commit(bool enabled) { group_commit_ = enabled; }

  // MuxWal interface.
  uint32_t num_groups() const override { return static_cast<uint32_t>(groups_.size()); }
  void append(uint32_t g, Bytes record, Wal::DurableFn cb) override;
  void truncate_prefix(uint32_t g, std::vector<Bytes> head, Wal::TruncateFn cb) override;
  void replay(uint32_t g, const Wal::ReplayFn& fn) override;
  StatusOr<Bytes> read(uint32_t g, WalPos pos) const override;
  uint64_t group_bytes_flushed(uint32_t g) const override {
    return g < groups_.size() ? groups_[g].bytes_flushed : 0;
  }
  uint64_t group_truncated_bytes(uint32_t g) const override {
    return g < groups_.size() ? groups_[g].truncated : 0;
  }
  uint64_t flush_ops() const override { return flush_ops_; }
  uint64_t bytes_flushed() const override { return bytes_flushed_; }
  void set_flush_observer(std::function<void(int64_t)> fn) override {
    flush_observer_ = std::move(fn);  // single-threaded (sim event loop)
  }

  /// Simulated crash helper: records whose flush had not completed are lost,
  /// mirroring a real power failure. (Durable records always survive.)
  void drop_unflushed();

 private:
  struct GroupState {
    std::vector<Bytes> durable;
    uint64_t first_seq = 0;  // sequence of durable[0]
    uint64_t bytes_flushed = 0;
    uint64_t truncated = 0;
  };

  void maybe_flush();

  sim::SimDisk* disk_;
  bool retain_;
  bool group_commit_ = true;
  struct Pending {
    uint32_t group = 0;
    Bytes record;
    Wal::DurableFn cb;
    // Truncation marker: acts as a flush barrier in the staged queue.
    bool truncate = false;
    std::vector<Bytes> head;
    Wal::TruncateFn tcb;
  };
  std::deque<Pending> staged_;
  std::function<void(int64_t)> flush_observer_;
  bool flush_in_flight_ = false;
  uint64_t wipe_epoch_ = 0;  // invalidates in-flight flushes on crash
  std::vector<GroupState> groups_;
  uint64_t bytes_flushed_ = 0;
  uint64_t flush_ops_ = 0;
};

}  // namespace rspaxos::storage
