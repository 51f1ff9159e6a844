// Replicated KV server (§4): one per (server, Paxos group).
//
// Owns a Replica and a LocalStore, dispatches inbound messages (consensus
// traffic to the replica, client traffic to the request handlers), and
// implements the paper's three read kinds:
//   - fast read: leader-local, gated by the §4.3 lease;
//   - consistent read: commits an explicit read-marker instance first;
//   - recovery read: a new leader holding only a share gathers >= X shares
//     of the key's last write before answering (§4.4, §4.5).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "consensus/replica.h"
#include "kv/command.h"
#include "kv/migration.h"
#include "kv/shard_map.h"
#include "kv/store.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rspaxos::kv {

/// Snapshot of this server's request counters (per-instance deltas over the
/// shared obs::MetricsRegistry families).
struct KvServerStats {
  uint64_t puts = 0;
  uint64_t fast_reads = 0;
  uint64_t consistent_reads = 0;
  uint64_t recovery_reads = 0;
  uint64_t ec_degraded_reads = 0;  // reads decoded from a gathered share set
  uint64_t redirects = 0;
  uint64_t batches_committed = 0;
  uint64_t admission_shed = 0;  // requests bounced with kOverloaded (all reasons)
  uint64_t wrong_shard = 0;     // requests bounced with kWrongShard
};

/// Per-group admission control: overload is answered with kOverloaded (the
/// client backs off) instead of queueing without bound. A request that
/// consumes replication capacity (put / delete / consistent read) is admitted
/// only while every enabled budget has room; fast reads are leader-local and
/// only shed on the health watermark (an overloaded event loop slows
/// everything, including them).
struct KvAdmissionOptions {
  /// Max replication ops accepted but not yet committed. 0 = unlimited.
  size_t max_inflight = 0;
  /// Max bytes of client values accepted but not yet committed (covers both
  /// the batch accumulator and proposed-but-uncommitted instances).
  /// 0 = unlimited.
  size_t max_queue_bytes = 0;
  // Every request is also shed while the host HealthMonitor reports overload
  // (loop lag p99 past its watermark — see obs::HealthOptions).
};

/// Server-side behaviour knobs.
struct KvServerOptions {
  /// Write batching (§7's IO/RPC batching applied at the instance level):
  /// every non-meta put or delete smaller than KvServer::kBatchMaxBytes joins
  /// the open batch, which commits as ONE composite RS-Paxos instance — one
  /// quorum round trip and one WAL record for the whole batch. The batch is
  /// proposed from a timer set this long after its first write: 0 closes it
  /// when the loop cycle that opened it runs its timers, so the writes one
  /// socket read delivers share an instance without waiting. It also closes
  /// early at KvServer::kBatchMaxBytes / kBatchMaxCount. A batch of one
  /// commits as a plain command.
  DurationMicros batch_window = 0;
  KvAdmissionOptions admission;
};

class KvServer final : public MessageHandler {
 public:
  /// A write batch is proposed as soon as it holds this many value bytes or
  /// this many writes, without waiting out KvServerOptions::batch_window. A
  /// value of kBatchMaxBytes or more never batches: it flushes the open batch
  /// and commits alone.
  static constexpr size_t kBatchMaxBytes = 64u << 10;
  static constexpr size_t kBatchMaxCount = 64;

  /// `snap` (optional) is the durable home of this node's checkpoint
  /// fragment; passing one enables erasure-coded checkpointing and snapshot
  /// install (see ReplicaOptions::checkpoint_interval_slots).
  KvServer(NodeContext* ctx, storage::Wal* wal, consensus::GroupConfig cfg,
           consensus::ReplicaOptions opts = {}, KvServerOptions kv_opts = {},
           snapshot::SnapshotStore* snap = nullptr);

  void start() { replica_.start(); }

  void on_message(NodeId from, MsgType type, BytesView payload) override;

  /// Feeds the host health watchdog's overload verdict into admission
  /// control: while it holds, every request is shed. Set before start();
  /// the monitor must outlive this server's message processing.
  void set_health(const obs::HealthMonitor* health) { health_ = health; }

  /// Wires the machine-wide routing view (elastic resharding, DESIGN.md
  /// §14). Set before start(); the view must outlive the server. Without it
  /// the server keeps the frozen shard==group contract: no ownership checks,
  /// no redirects, no migrations.
  void set_routing(RoutingView* routing) { routing_ = routing; }
  /// Apply-path hook bumping the host's per-shard write counters (balancer
  /// input). Runs on this server's loop for every applied write.
  using ShardWriteFn = std::function<void(uint32_t shard)>;
  void set_shard_write_hook(ShardWriteFn fn) { shard_write_ = std::move(fn); }

  /// Leader-only: begin migrating `shard` (which this group must own) to
  /// `to_group`. No-op when not leader, already migrating, or the routing
  /// view disagrees. Driven to completion asynchronously; watch
  /// migration_active() / the routing epoch.
  void start_migration(uint32_t shard, uint32_t to_group);
  bool migration_active() const {
    return migration_ != nullptr && !migration_->finished();
  }
  /// The current (or last) migration driver; null before the first one.
  const MigrationDriver* migration() const { return migration_.get(); }
  bool shard_sealed(uint32_t shard) const { return sealed_.count(shard) > 0; }
  /// Admitted-but-unresolved writes of `shard` (the seal drain fence).
  size_t shard_inflight(uint32_t shard) const {
    auto it = shard_inflight_.find(shard);
    return it == shard_inflight_.end() ? 0 : it->second;
  }

  consensus::Replica& replica() { return replica_; }
  const consensus::Replica& replica() const { return replica_; }
  const LocalStore& store() const { return store_; }
  KvServerStats stats() const;

  /// Live admission-control occupancy (loop thread only; tests/benchmarks).
  size_t admission_inflight() const { return adm_inflight_; }
  size_t admission_queue_bytes() const { return adm_queue_bytes_; }

  /// Leader-side sweep after a view change that requires re-coding: re-puts
  /// every complete value so it is re-committed under the new θ(X', N').
  void reseal_all();

 private:
  friend class MigrationDriver;

  void handle_client(NodeId from, ClientRequest req);
  /// Admission check for a request wanting `bytes` of queue budget. When it
  /// sheds, the kOverloaded reply has already been sent.
  bool admit(NodeId from, uint64_t req_id, size_t bytes, bool replicating);
  void admission_acquire(size_t bytes);
  void admission_release(size_t bytes);
  void reply(NodeId to, uint64_t req_id, ReplyCode code, BytesView value = {},
             uint32_t group_hint = kNoNode);
  /// Shard of a (non-meta) key under the current routing view; 0 without one.
  uint32_t shard_of_key(const std::string& key) const;
  void shard_inflight_acquire(uint32_t shard);
  void shard_inflight_release(uint32_t shard);
  /// Applied write of `key` at the KV layer: balancer counters + migration
  /// dirty tracking.
  void note_applied_write(const std::string& key);
  /// Meta-group only: an applied write of "!routing" publishes the new map
  /// machine-wide. Followers hold only a coded share of the value, so they
  /// recover the payload (cheap, rare) before decoding.
  void maybe_publish_routing(const consensus::ApplyView& view, uint64_t off,
                             uint64_t len);
  void apply_shard_ctl(Op op, const std::string& key);
  void handle_migrate_data(NodeId from, MigrateDataMsg msg);
  void handle_migrate_cmd(const MigrateCmdMsg& msg);
  void on_role_change(bool is_leader);
  /// Leader-side recurring sweep: aborts orphaned migrations out of the map
  /// (source leader crashed mid-copy) and finishes the seal->GC tail after a
  /// crash between flip and GC.
  void migration_janitor();
  void do_put(NodeId from, ClientRequest req);
  void do_fast_get(NodeId from, ClientRequest req);
  void do_consistent_get(NodeId from, ClientRequest req);
  void finish_get(NodeId from, uint64_t req_id, const std::string& key);
  void do_delete(NodeId from, ClientRequest req);
  /// Routes an admitted put or delete: into the open batch, or (meta keys,
  /// values at the cap) proposed alone once the open batch is flushed.
  void submit_write(NodeId from, uint64_t req_id, Op op, std::string key, Bytes value,
                    uint32_t shard);
  /// Proposes one write as a plain CommandHeader instance.
  void propose_write(NodeId from, uint64_t req_id, Op op, std::string key, Bytes value,
                     uint32_t shard);
  void flush_batch();
  void apply_entry(const consensus::ApplyView& view);
  void apply_batch(const consensus::ApplyView& view);
  /// Copies each still-current complete row of a multi-item instance the
  /// payload floor has passed into its own exact-size buffer, so the rows
  /// stop pinning the whole instance once the log has let it go.
  void rehome_sliced_rows();
  /// Serializes the applied KV state (complete rows only; fails while any
  /// share-only row remains — the checkpoint barrier needs the full image).
  StatusOr<Bytes> build_state() const;
  /// Installs a reconstructed state image cut at `snap_slot`. Full mode
  /// (replica applied <= snap_slot): the image replaces the store. Upgrade
  /// mode (applied beyond it, e.g. a rebuilding leader): only share-only rows
  /// whose slot matches the image are completed, so later writes and deletes
  /// are never resurrected.
  void install_state(BytesView image, consensus::Slot snap_slot);
  void on_config_change(const consensus::GroupConfig& old_cfg,
                        const consensus::GroupConfig& new_cfg,
                        consensus::ReencodeAction action);

  NodeContext* ctx_;
  KvServerOptions kv_opts_;
  LocalStore store_;
  const obs::HealthMonitor* health_ = nullptr;
  RoutingView* routing_ = nullptr;
  ShardWriteFn shard_write_;
  uint32_t group_ = 0;
  /// Shards this group has stopped serving (kShardSeal applied; crash-safe
  /// via WAL replay and the state-image trailer).
  std::set<uint32_t> sealed_;
  /// Admitted-but-unresolved writes per shard (seal drain fence).
  std::map<uint32_t, size_t> shard_inflight_;
  /// Dest-side chunk dedup: migration id -> highest committed chunk seq.
  std::map<uint64_t, uint64_t> mig_last_seq_;
  std::unique_ptr<MigrationDriver> migration_;
  NodeContext::TimerId janitor_timer_ = 0;
  // Admission occupancy: replication ops accepted but not yet resolved, and
  // the client value bytes they hold. Released when the commit callback runs
  // (ok or failed), so leadership loss can never leak budget.
  size_t adm_inflight_ = 0;
  size_t adm_queue_bytes_ = 0;
  /// Cached registry handles, labeled by node id (delta views: see replica.h).
  struct Metrics {
    obs::CounterView puts, fast_reads, consistent_reads;
    obs::CounterView recovery_reads, redirects, batches_committed;
    /// Reads answered from gathered shares while the local row was only a
    /// coded share (DESIGN.md §13 degraded reads). Superset label of
    /// recovery_reads kept separate so EC-policy dashboards don't depend on
    /// the legacy recovery-read series.
    obs::CounterView ec_degraded_reads;
    obs::CounterView shed_inflight, shed_queue_bytes, shed_health;
    obs::CounterView wrong_shard;       // requests bounced to the owning group
    obs::CounterView reshard_ok, reshard_aborted;  // migrations by outcome
    obs::CounterView reshard_moved_bytes;          // chunk bytes acked by dest
    obs::Gauge* adm_inflight = nullptr;
    obs::Gauge* adm_queue_bytes = nullptr;
  } m_;

  // Open write batch (leader only; see KvServerOptions::batch_window). Values
  // stay separate until the flush assembles them into one exact-size payload.
  struct BatchWaiter {
    NodeId client = kNoNode;
    uint64_t req_id = 0;
    uint32_t shard = 0;     // for the per-shard inflight release
    obs::SpanContext span;  // the request's trace (ambient when it arrived)
  };
  struct PendingBatch {
    std::vector<BatchItem> items;  // offsets are filled in at the flush
    std::vector<Bytes> values;
    std::vector<BatchWaiter> waiters;
    size_t bytes = 0;
  };
  PendingBatch batch_;
  NodeContext::TimerId batch_timer_ = 0;
  /// Multi-item instances applied with complete rows, in slot order, with
  /// the keys they wrote: rehome_sliced_rows() works through them as the
  /// payload floor passes. Not kept when the log caches every payload
  /// (payload_cache_slots == 0), where the floor never moves.
  std::deque<std::pair<consensus::Slot, std::vector<std::string>>> sliced_;
  const bool track_sliced_;

  consensus::Replica replica_;
};

}  // namespace rspaxos::kv
