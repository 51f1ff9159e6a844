#include "storage/sim_wal.h"

#include "obs/metrics.h"

namespace rspaxos::storage {
namespace {

/// Same metric names as FileWal so sim and real runs are comparable; fsync
/// latency here is sim-time (deterministic).
struct SimWalMetrics {
  obs::Counter* bytes_durable;
  obs::Counter* flushes;
  obs::Counter* truncated;
  obs::Counter* truncates;
  obs::HistogramMetric* fsync_us;
  obs::HistogramMetric* batch_records;

  static SimWalMetrics& get() {
    static SimWalMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::global();
      auto* w = new SimWalMetrics();
      w->bytes_durable =
          &reg.counter("rsp_wal_bytes_durable", "Framed WAL bytes written and fsynced");
      w->flushes = &reg.counter("rsp_wal_flush_total", "Group-commit flush operations");
      w->truncated = &reg.counter("rsp_wal_truncated_bytes",
                                  "Durable WAL bytes reclaimed by prefix truncation");
      w->truncates =
          &reg.counter("rsp_wal_truncate_total", "WAL prefix truncation operations");
      w->fsync_us =
          &reg.histogram("rsp_wal_fsync_us", "Write+fsync latency per group-commit batch");
      w->batch_records =
          &reg.histogram("rsp_wal_batch_records", "Records coalesced per group-commit batch");
      return w;
    }();
    return *m;
  }
};

}  // namespace

void SimWal::append(uint32_t g, Bytes record, Wal::DurableFn cb) {
  if (g >= groups_.size()) groups_.resize(g + 1);
  Pending p;
  p.group = g;
  p.record = std::move(record);
  p.cb = std::move(cb);
  staged_.push_back(std::move(p));
  maybe_flush();
}

void SimWal::truncate_prefix(uint32_t g, std::vector<Bytes> head, Wal::TruncateFn cb) {
  if (g >= groups_.size()) groups_.resize(g + 1);
  Pending p;
  p.group = g;
  p.truncate = true;
  p.head = std::move(head);
  p.tcb = std::move(cb);
  staged_.push_back(std::move(p));
  maybe_flush();
}

void SimWal::maybe_flush() {
  if (flush_in_flight_ || staged_.empty()) return;
  if (staged_.front().truncate) {
    // The replacement head goes down as one device write; on completion the
    // group's old durable log is atomically replaced (the marker-fdatasync
    // commit point of FileWal collapses to this single event in sim time).
    // Only the truncating group's records are reclaimed — the other groups'
    // durable logs are untouched, like FileWal's per-group markers.
    size_t nbytes = 0;
    for (const Bytes& r : staged_.front().head) nbytes += r.size();
    flush_in_flight_ = true;
    flush_ops_++;
    disk_->write(nbytes, [this, nbytes, epoch = wipe_epoch_] {
      if (epoch != wipe_epoch_) return;  // crashed mid-truncate: old log stands
      Pending t = std::move(staged_.front());
      staged_.pop_front();
      GroupState& gs = groups_[t.group];
      uint64_t reclaimed = 0;
      for (const Bytes& r : gs.durable) reclaimed += r.size();
      gs.truncated += reclaimed;
      gs.first_seq += gs.durable.size();
      gs.durable.clear();
      if (retain_) gs.durable = std::move(t.head);
      bytes_flushed_ += nbytes;
      gs.bytes_flushed += nbytes;
      SimWalMetrics& wm = SimWalMetrics::get();
      wm.bytes_durable->inc(nbytes);
      wm.flushes->inc();
      wm.truncated->inc(reclaimed);
      wm.truncates->inc();
      flush_in_flight_ = false;
      if (t.tcb) t.tcb(reclaimed);
      maybe_flush();
    });
    return;
  }
  // Take everything staged up to the next truncation barrier as one batch:
  // group commit — across every group sharing this device — or a single
  // record when batching is disabled for the §7 ablation.
  size_t limit = staged_.size();
  for (size_t i = 0; i < staged_.size(); ++i) {
    if (staged_[i].truncate) {
      limit = i;
      break;
    }
  }
  size_t batch = group_commit_ ? limit : 1;
  size_t nbytes = 0;
  for (size_t i = 0; i < batch; ++i) nbytes += staged_[i].record.size();
  flush_in_flight_ = true;
  flush_ops_++;
  TimeMicros issued_at = disk_->world()->now();
  disk_->write(nbytes, [this, batch, nbytes, issued_at, epoch = wipe_epoch_] {
    if (epoch != wipe_epoch_) return;  // crashed mid-flush: records lost
    bytes_flushed_ += nbytes;
    SimWalMetrics& wm = SimWalMetrics::get();
    wm.bytes_durable->inc(nbytes);
    wm.flushes->inc();
    int64_t fsync_us = static_cast<int64_t>(disk_->world()->now() - issued_at);
    wm.fsync_us->observe(fsync_us);
    wm.batch_records->observe(static_cast<int64_t>(batch));
    if (flush_observer_) flush_observer_(fsync_us);
    std::vector<std::pair<Wal::DurableFn, WalPos>> cbs;
    cbs.reserve(batch);
    for (size_t i = 0; i < batch; ++i) {
      Pending& p = staged_.front();
      GroupState& gs = groups_[p.group];
      gs.bytes_flushed += p.record.size();
      WalPos pos;
      if (retain_) {
        pos = WalPos{0, gs.first_seq + gs.durable.size()};
        gs.durable.push_back(std::move(p.record));
      }
      cbs.emplace_back(std::move(p.cb), pos);
      staged_.pop_front();
    }
    flush_in_flight_ = false;
    for (auto& [cb, pos] : cbs) {
      if (cb) cb(Status::ok(), pos);
    }
    maybe_flush();
  });
}

void SimWal::replay(uint32_t g, const Wal::ReplayFn& fn) {
  if (g >= groups_.size()) return;
  const GroupState& gs = groups_[g];
  for (size_t i = 0; i < gs.durable.size(); ++i) {
    fn(gs.durable[i], WalPos{0, gs.first_seq + i});
  }
}

StatusOr<Bytes> SimWal::read(uint32_t g, WalPos pos) const {
  if (g >= groups_.size() || !pos.valid()) return Status::not_found("wal position not live");
  const GroupState& gs = groups_[g];
  if (pos.off < gs.first_seq || pos.off - gs.first_seq >= gs.durable.size()) {
    return Status::not_found("wal position not live");
  }
  return gs.durable[pos.off - gs.first_seq];
}

void SimWal::drop_unflushed() {
  // Callbacks for lost records never fire — exactly like a crash before
  // fsync returned.
  staged_.clear();
  flush_in_flight_ = false;
  wipe_epoch_++;
}

}  // namespace rspaxos::storage
