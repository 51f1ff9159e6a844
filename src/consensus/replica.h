// Multi-Paxos RS-Paxos replication engine (§2.1 Multi-Paxos, §3 RS-Paxos,
// §4.3 leases, §4.5 crash/recovery, §4.6 view change).
//
// One Replica object is a full group member: distinguished-proposer leader
// when it holds the highest prepared ballot, acceptor and learner always.
// Design points taken from the paper:
//   * Batch prepare: one phase-1 exchange covers every slot >= start_slot,
//     so a stable leader commits values in one round trip (§2.1, §7).
//   * Accept requests carry exactly one coded share per acceptor; the leader
//     "caches the original value itself, while sending coded shares to the
//     followers. Both leader and follower only need to flush the coded
//     shares into disks" (§1) — the WAL record holds the replica's own
//     share, never the full value.
//   * Commit notifications are bundled and ride the heartbeat, off the
//     critical path (§5); they carry value ids only (§2.1).
//   * Acceptor state is durable before any reply (§4.5); restart replays
//     the WAL and rejoins.
//   * Leader election is itself a consensus round: a candidate wins by
//     passing phase 1 on the whole log with a higher ballot (§4.5). Leader
//     leases (§4.3) gate fast reads and delay rival campaigns by lease+drift.
//   * View changes commit CONFIG entries; each epoch re-parameterizes
//     quorums and coding (§4.6).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "consensus/msg.h"
#include "consensus/single.h"
#include "consensus/view.h"
#include "ec/policy.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snapshot/snapshot_store.h"
#include "storage/wal.h"

namespace rspaxos::consensus {

/// Tuning knobs; defaults suit LAN-scale tests. Benchmarks override them to
/// match the paper's environments.
struct ReplicaOptions {
  DurationMicros heartbeat_interval = 50 * kMillis;
  DurationMicros election_timeout_min = 300 * kMillis;
  DurationMicros election_timeout_max = 500 * kMillis;
  DurationMicros lease_duration = 250 * kMillis;   // Δ of §4.3
  DurationMicros max_clock_drift = 20 * kMillis;   // δ of §4.3
  DurationMicros retransmit_interval = 100 * kMillis;
  /// The log keeps only recent values in memory: once an applied entry is
  /// this many slots behind the applied index it drops its cached full
  /// payload (recovery re-gathers shares on demand, §4.4) and evicts its
  /// share, which is read back from the WAL record that made it durable
  /// whenever a promise, catch-up, fetch-share or recovery needs it. A KV
  /// row that stores the value keeps its own reference to the same buffer.
  /// 0 keeps everything resident.
  uint64_t payload_cache_slots = 512;
  /// If true this node starts campaigning immediately at start() (used to
  /// give groups a deterministic initial leader).
  bool bootstrap_leader = false;
  /// Checkpoint cadence: the leader cuts an erasure-coded snapshot of the
  /// applied state every this many applied slots, then truncates the WAL
  /// prefix below the barrier. 0 disables checkpointing. Requires a
  /// SnapshotStore and state hooks (set_snapshot_store / set_state_hooks).
  uint64_t checkpoint_interval_slots = 0;
  /// Paxos group (shard) this replica belongs to, used as the `group` metric
  /// label so per-shard series stay distinguishable when one process hosts
  /// many groups. Purely observational — routing derives the group from the
  /// endpoint id (net/routing.h).
  uint32_t group_id = 0;
};

/// Snapshot fragment transfer chunk for offers / installs: well under the
/// transport frame bound (64 MiB), small enough that head-of-line blocking of
/// consensus traffic stays negligible.
inline constexpr size_t kSnapshotChunkBytes = 1u << 20;

/// A committed log entry as handed to the state machine. Followers usually
/// see only their own coded share (full_payload null) — the KV layer tags
/// such values "incomplete" (§4.4). Both buffers are the log's own: a state
/// machine that keeps them copies the SharedBytes handle, not the bytes.
struct ApplyView {
  Slot slot = 0;
  EntryKind kind = EntryKind::kNormal;
  ValueId vid;
  const Bytes* header = nullptr;              // always present (may be empty)
  const SharedBytes* full_payload = nullptr;  // present on leader / after recovery
  const CodedShare* share = nullptr;          // this replica's share
};

/// Aggregate cost/behaviour counters (the paper's evaluation metrics).
/// Snapshot assembled from the process-wide obs::MetricsRegistry — kept as
/// the stable legacy accessor shape; values are per-Replica-instance deltas.
struct ReplicaStats {
  uint64_t proposals = 0;
  uint64_t commits = 0;
  uint64_t accepts_sent = 0;
  uint64_t elections_started = 0;
  uint64_t times_elected = 0;
  uint64_t catchup_entries_served = 0;
  uint64_t recoveries = 0;
  uint64_t checkpoints = 0;        // erasure-coded snapshots cut by this node
  uint64_t snapshot_installs = 0;  // full-state reconstructions completed
  uint64_t snapshot_bytes = 0;     // fragment bytes durably saved
  uint64_t shares_evicted = 0;     // log-entry shares dropped behind the horizon
  uint64_t share_readbacks = 0;    // evicted shares read back from the WAL
  uint64_t repair_bytes = 0;       // share bytes fetched from peers for repairs
  uint64_t accepts_skipped = 0;    // accepts not sent to suspected followers
};

class Replica final : public MessageHandler {
 public:
  using ProposeFn = std::function<void(StatusOr<Slot>)>;
  using ApplyFn = std::function<void(const ApplyView&)>;
  using RecoverFn = std::function<void(StatusOr<SharedBytes>)>;
  /// Invoked when a CONFIG entry is applied; `action` is the §4.6 re-coding
  /// plan the new view requires.
  using ConfigChangeFn =
      std::function<void(const GroupConfig& old_cfg, const GroupConfig& new_cfg,
                         ReencodeAction action)>;

  /// Builds the full serialized state image at the current applied index.
  /// Must fail (and the checkpoint is skipped) while the state machine holds
  /// rows it cannot fully serialize (e.g. follower rows that are only shares).
  using BuildStateFn = std::function<StatusOr<Bytes>()>;
  /// Installs a reconstructed state image whose barrier is `snap_slot`
  /// (every applied slot <= snap_slot is reflected in `image`).
  using InstallStateFn = std::function<void(BytesView image, Slot snap_slot)>;
  /// True when every state-machine row is fully materialized locally (no
  /// share-only rows) — gates checkpointing and triggers a leader's state
  /// rebuild after election.
  using StateCompleteFn = std::function<bool()>;

  Replica(NodeContext* ctx, storage::Wal* wal, GroupConfig cfg, ReplicaOptions opts = {});
  ~Replica() override;

  /// Registers the state-machine hook. Must be set before start().
  void set_apply(ApplyFn fn) { apply_ = std::move(fn); }
  void set_on_config_change(ConfigChangeFn fn) { on_config_change_ = std::move(fn); }
  /// Fired with `true` when this replica wins an election and with `false`
  /// when it steps down from leadership (not on follower->follower ballot
  /// bumps). The KV layer uses it to adopt or abort shard migrations whose
  /// driver must live on the source-group leader (DESIGN.md §14).
  using RoleChangeFn = std::function<void(bool is_leader)>;
  void set_on_role_change(RoleChangeFn fn) { on_role_change_ = std::move(fn); }

  /// Registers the durable home of this node's checkpoint fragment. Must be
  /// set before start(); without it checkpointing and snapshot install are
  /// disabled (the log is never truncated).
  void set_snapshot_store(snapshot::SnapshotStore* store) { snap_store_ = store; }
  void set_state_hooks(BuildStateFn build, InstallStateFn install, StateCompleteFn complete) {
    build_state_ = std::move(build);
    install_state_ = std::move(install);
    state_complete_ = std::move(complete);
  }

  /// Replays the WAL (if non-empty) and begins participating.
  void start();

  /// Leader-only: replicate a command. `header` is copied to every acceptor
  /// in full; `payload` is erasure-coded θ(X, N) and then kept, without a
  /// copy, as the log entry's cached value. The callback fires with
  /// the assigned slot once the value is chosen (QW durable acks), or with
  /// kUnavailable{leader hint} if this node is not the leader.
  void propose(Bytes header, Bytes payload, ProposeFn cb);

  /// Leader-only: commit a view change to `new_cfg` (epoch must be
  /// current+1). Applied like any entry; switches quorums when executed.
  void propose_config(GroupConfig new_cfg, ProposeFn cb);

  /// Gathers >= X shares of the committed entry in `slot` and returns the
  /// decoded payload (§4.4 recovery read). Works on any replica. Returns the
  /// log's own buffer when the value is resident.
  void recover_payload(Slot slot, RecoverFn cb);

  /// Leader-only, best-effort: nudge `target` to campaign (kLeaderTransfer).
  /// The balancer's leader-move primitive. No-op when not leader or target
  /// is not a member; the transfer is advisory — if the target's campaign
  /// fails, the incumbent simply keeps the lease.
  void transfer_leadership(NodeId target);

  void on_message(NodeId from, MsgType type, BytesView payload) override;

  // --- introspection ---
  bool is_leader() const { return role_ == Role::kLeader; }
  /// Best-known leader (kNoNode if unknown).
  NodeId leader_hint() const;
  /// True while the §4.3 lease makes a leader-local fast read safe.
  bool lease_valid() const;
  Slot commit_index() const { return commit_index_; }
  Slot last_applied() const { return applied_index_; }
  /// Leader: the followers it currently suspects (see suspected()); empty
  /// on any other role.
  std::vector<NodeId> suspected_peers() const;
  const GroupConfig& config() const { return cfg_; }
  ReplicaStats stats() const;
  Ballot current_ballot() const { return ballot_; }
  /// Lowest slot still present in the (durable) log; slots below it live only
  /// in the snapshot.
  Slot log_start() const { return snap_applied_ + 1; }
  /// Barrier of the newest durable snapshot (0 = none).
  Slot snapshot_applied() const { return snap_applied_; }
  uint64_t snapshot_checkpoint_id() const { return snap_ckpt_id_; }
  /// False while a restarted node is still reconstructing its pre-snapshot
  /// state image from the group's fragments (applies are paused).
  bool state_ready() const { return state_ready_; }
  /// Share bytes the log holds in memory (evicted shares excluded; a buffer
  /// a KV row also references counts here too).
  uint64_t resident_share_bytes() const { return resident_share_bytes_; }
  /// Highest slot the horizon has passed: every applied entry at or below
  /// it has dropped its cached payload (and its share, when a WAL record can
  /// give it back). 0 until the applied index passes payload_cache_slots.
  Slot payload_floor() const { return gc_floor_; }

  /// Test hook: identities (SharedBytes::id) of the value buffers the log
  /// entry for `slot` holds — its share and its cached payload — and where
  /// its durable record landed. Both null when the slot is absent or its
  /// buffers were dropped.
  struct EntryBuffers {
    const void* share = nullptr;
    const void* payload = nullptr;
    storage::WalPos wal_pos;
  };
  EntryBuffers entry_buffers_for_test(Slot slot) const;
  /// Test hook: identity of the accept frame a pending proposal for `slot`
  /// retains for `member`; null once the slot is no longer pending.
  const void* accept_frame_for_test(Slot slot, NodeId member) const;

 private:
  enum class Role { kFollower, kCandidate, kLeader };

  struct LogEntry {
    Ballot accepted;
    /// This replica's durable share. Its data is evicted once the entry is
    /// applied, durable and behind the horizon; own_share() reads it back.
    CodedShare share;
    /// Cached original value (the leader's proposal or a recovery read's
    /// decode), shared with the KV row that stores it. Never set in
    /// full-copy mode, where the share already is the value.
    SharedBytes payload;
    /// Where the latest durable record of this slot landed; none until it
    /// lands, and after a WAL truncation retired it.
    storage::WalPos wal_pos;
    bool durable = false;  // share persisted; duplicate accepts ack directly
    bool committed = false;
    bool applied = false;

    bool share_evicted() const { return share.data.empty() && share.value_len > 0; }

    /// The full value when it is resident here: the share itself in
    /// full-copy mode, otherwise the cache. An empty value is always
    /// resident; null when only a coded share (or nothing) is left.
    const SharedBytes* full_payload() const {
      const SharedBytes& v = share.full_copy() ? share.data : payload;
      return v.empty() && share.value_len > 0 ? nullptr : &v;
    }
  };

  struct PendingProposal {
    ValueId vid;
    EntryKind kind = EntryKind::kNormal;
    Bytes header;
    /// Prebuilt AcceptMsg wire frames, one per member index (the proposer's
    /// own slot stays empty). Shares are erasure-coded directly into the
    /// frames' data gaps at propose time; once the encode is done the frames
    /// are shared and immutable, so the first send, every retransmit and
    /// the transport's queue reference the buffer the encoder filled.
    std::vector<SharedBytes> frames;
    uint64_t value_len = 0;
    std::set<NodeId> acks;
    ProposeFn cb;
    TimeMicros last_sent = 0;
    /// Set by the first retransmit: later ones go to every member that has
    /// not acked, suspected or not.
    bool widened = false;
    obs::SpanContext commit_span;
    /// Per member index: the "net_accept" span covering that acceptor's
    /// network + queue time. Opened at first send; the receiver ends it.
    std::vector<obs::SpanContext> net_spans;
  };

  /// Per-slot commit-latency bookkeeping, kept from propose until apply so
  /// quorum-wait / apply spans can be measured and the trace finished.
  struct Inflight {
    obs::SpanContext commit_span;
    obs::SpanContext quorum_span;
    obs::SpanContext apply_span;
    TimeMicros proposed_at = 0;
    TimeMicros quorum_at = 0;
  };

  struct PendingRecovery {
    std::map<int, Bytes> shares;  // share_idx -> data, for the chosen vid
    ValueId vid;                  // vid being gathered (from committed info)
    bool vid_known = false;
    uint32_t x = 0, n = 0;
    ec::CodeId code = ec::CodeId::kRs;
    uint64_t value_len = 0;
    /// First attempt fetches only the policy's cheapest decodable set; a
    /// retry widens to the full membership broadcast (peer died / compacted).
    bool widened = false;
    std::vector<RecoverFn> cbs;
    NodeContext::TimerId retry_timer = 0;
  };

  /// One in-flight single-share repair: rebuilds exactly the requester's
  /// share of `slot` from the policy's cheapest repair plan (sub-masked
  /// fetches under hh, local-group reads under lrc) instead of decoding the
  /// whole value from any X of N. Falls back to recover_payload when the
  /// plan cannot complete (dead peers, unknown code).
  struct PendingRepair {
    ValueId vid;
    Ballot ballot;                   // ballot the entry committed under
    uint32_t x = 0, n = 0;
    ec::CodeId code = ec::CodeId::kRs;
    uint64_t value_len = 0;
    EntryKind kind = EntryKind::kNormal;
    Bytes header;
    NodeId requester = kNoNode;      // catch-up requester awaiting the share
    int target = 0;                  // share index being rebuilt
    ec::RepairPlan plan;
    std::map<int, Bytes> fetched;    // share_idx -> masked sub-share bytes
    NodeContext::TimerId retry_timer = 0;
  };

  // --- role / election ---
  void become_follower(Ballot seen, NodeId leader);
  void start_campaign();
  void on_promise(NodeId from, PromiseMsg msg);
  void become_leader();
  void arm_election_timer();
  void arm_heartbeat_timer();
  void send_heartbeat();

  // --- failure suspicion (leader) ---
  /// True when this node has led for at least election_timeout_max and has
  /// had no heartbeat ack from member `m` for that long: the silence that
  /// makes a follower campaign. Always false off the leader, for itself, and
  /// for a member the transport reports connected (NodeContext::connected_to).
  bool suspected(NodeId m) const;
  /// Per member index: may a send skip it? True for the suspected members
  /// while the unsuspected ones still make up QW; all false otherwise.
  std::vector<bool> skippable() const;
  /// Publishes the suspected-peer count to its gauge.
  void update_suspected_gauge();

  // --- proposer path ---
  /// Runs phase 2 for `slot` (pass kNoSlot to assign the next free one).
  static constexpr Slot kNoSlot = 0;
  void propose_internal(Slot slot, EntryKind kind, ValueId vid, Bytes header,
                        SharedBytes payload, ProposeFn cb);
  void send_accept_to(NodeId member, const PendingProposal& p);
  void init_metrics();
  void on_accepted(NodeId from, AcceptedMsg msg);
  void handle_commit_of(Slot slot);
  void retransmit_pending();

  // --- acceptor path ---
  void on_prepare(NodeId from, PrepareMsg msg);
  void on_accept(NodeId from, AcceptMsg msg);

  // --- learner path ---
  void on_commit(NodeId from, CommitMsg msg);
  void on_heartbeat_ack(NodeId from, HeartbeatAckMsg msg);
  void mark_committed_up_to(Slot ci, const Ballot& leader_ballot);
  void advance_commit_index(Slot new_commit);
  void try_apply();
  void maybe_request_catchup();
  void on_catchup_req(NodeId from, CatchupReqMsg msg);
  void serve_catchup(NodeId to, Slot from_slot, Slot to_slot);
  void on_catchup_rep(NodeId from, CatchupRepMsg msg);
  void on_fetch_share_req(NodeId from, FetchShareReqMsg msg);
  void on_fetch_share_rep(NodeId from, FetchShareRepMsg msg);
  /// Begins a plan-driven single-share repair of `slot` for `requester`
  /// (member index `target`); serve_catchup uses it when the leader no
  /// longer caches the full payload. Falls back to recover_payload when no
  /// feasible plan exists.
  void start_share_repair(Slot slot, NodeId requester, int target);
  /// Consumes a fetch-share reply into an in-flight repair. Returns true if
  /// the reply belonged to (and was absorbed by) the repair for that slot.
  bool absorb_repair_rep(const FetchShareRepMsg& msg);
  void finish_share_repair(Slot slot);
  void abort_share_repair(Slot slot);
  /// Per-share relative fetch cost for repair planning: 0 for the local
  /// share, 1.0 for every peer's.
  std::vector<double> share_costs() const;
  void apply_config_entry(const LogEntry& e, Slot slot);

  // --- snapshots / log compaction ---
  /// Leader: cut a checkpoint when the applied index has moved far enough
  /// past the last barrier (called after every apply batch).
  void maybe_checkpoint();
  /// Replaces the durable WAL prefix <= snap_slot with [meta, config, snap
  /// marker, live slot records] and prunes the in-memory log below it.
  void compact_log_below(Slot snap_slot, uint64_t ckpt_id);
  /// Leader: (re-)announce the pending checkpoint to followers that have not
  /// finished fetching their fragment.
  void offer_snapshots();
  void on_snapshot_offer(NodeId from, SnapshotOfferMsg msg);
  void on_snapshot_fetch_req(NodeId from, SnapshotFetchReqMsg msg);
  void on_snapshot_fetch_rep(NodeId from, SnapshotFetchRepMsg msg);
  /// Begins gathering X distinct fragments of checkpoint `ckpt_hint` (0 =
  /// newest) to reconstruct the full state image.
  void start_install(uint64_t ckpt_hint);
  /// Begins pulling only this node's own fragment from `leader` (offer path;
  /// the local state is already current, no reconstruction needed).
  void start_frag_pull(NodeId leader, snapshot::SnapshotManifest man);
  /// Sends/retransmits the next chunk request for every unfinished peer.
  void install_tick();
  void finish_install();
  /// Durably saves this node's fragment for manifest `man`, adopts it as the
  /// current snapshot and compacts the log below its barrier once the save
  /// commits; `then` (optional) fires after, with the save status.
  void save_own_fragment(snapshot::SnapshotManifest man, Bytes frag,
                         std::function<void(Status)> then = nullptr);

  // --- persistence ---
  void persist_meta(std::function<void()> then);
  void persist_slot(Slot slot, std::function<void()> then);
  void restore_from_wal();

  // --- misc ---
  /// The group's erasure-code policy (immortal cache entry; rs by default).
  /// Every encode/decode/repair in the replica goes through this — never
  /// through a raw codec — so swapping GroupConfig::code swaps the whole
  /// share pipeline.
  const ec::EcPolicy& policy() const {
    return ec::PolicyCache::get(cfg_.code, cfg_.x, cfg_.n());
  }
  /// Drops cached payloads and evicts shares of applied entries behind the
  /// horizon, walking only slots above the floor the last pass reached.
  void maybe_drop_old_payloads();
  /// Evicts `e`'s share if a WAL record can give it back.
  void evict_share(LogEntry& e);
  /// This replica's share of log entry `slot`: the resident one, or the one
  /// read back from its WAL record once evicted. An error means the record
  /// could not be read back (disk damage).
  StatusOr<CodedShare> own_share(Slot slot, const LogEntry& e);
  /// Accepted entries from `from` on, shares included — what a promise
  /// reports. Fails rather than omit a share it cannot read back.
  StatusOr<std::vector<PromiseEntry>> promise_entries(Slot from);
  /// Replaces `e`'s share, keeping the resident-bytes gauge in step.
  void replace_share(LogEntry& e, CodedShare share);
  /// Erases every log entry at or below `slot` (compaction).
  void erase_log_through(Slot slot);
  void add_resident_bytes(int64_t delta);
  DurationMicros election_timeout();

  NodeContext* ctx_;
  storage::Wal* wal_;
  GroupConfig cfg_;
  ReplicaOptions opts_;
  ApplyFn apply_;
  ConfigChangeFn on_config_change_;
  RoleChangeFn on_role_change_;
  snapshot::SnapshotStore* snap_store_ = nullptr;
  BuildStateFn build_state_;
  InstallStateFn install_state_;
  StateCompleteFn state_complete_;

  Role role_ = Role::kFollower;
  Ballot ballot_;            // highest ballot seen/owned
  Ballot promised_;          // durable promise covering all slots
  NodeId leader_ = kNoNode;  // current leader hint
  uint64_t vid_seq_ = 1;

  std::map<Slot, LogEntry> log_;
  Slot next_slot_ = 1;       // leader: next slot to assign
  Slot commit_index_ = 0;    // all slots <= this are committed
  Slot applied_index_ = 0;
  // Monotone scan floor for maybe_drop_old_payloads: everything at or below
  // it has already been stripped, so per-apply cache GC walks only newly
  // aged-out slots instead of rescanning from log_.begin(). An entry whose
  // record lands after the floor passed it is evicted when it lands.
  Slot gc_floor_ = 0;
  // Bumped by every WAL truncation: a record appended before one reports a
  // position the truncation retires, so its landing must not record it.
  uint64_t wal_truncations_ = 0;
  uint64_t resident_share_bytes_ = 0;

  std::map<Slot, PendingProposal> pending_;
  // Chosen-but-not-yet-applied proposal callbacks: fired on apply so a
  // leader-local read after the ack always sees the write.
  std::map<Slot, ProposeFn> commit_waiters_;
  std::deque<std::pair<Slot, ValueId>> recent_commits_;  // for bundled commit

  // Campaign state.
  Slot campaign_start_ = 0;
  std::map<NodeId, PromiseMsg> campaign_promises_;

  // Lease bookkeeping (§4.3).
  std::map<NodeId, TimeMicros> last_ack_time_;  // leader: per-follower
  TimeMicros follower_lease_until_ = 0;         // follower: granted to leader
  TimeMicros last_leader_contact_ = 0;

  // Failure suspicion: when this node took office (last_ack_time_ holds
  // each follower's latest heartbeat ack since then).
  TimeMicros leader_since_ = 0;
  int64_t suspected_count_ = 0;  // last value added to m_.suspected_peers

  std::map<Slot, PendingRecovery> recoveries_;
  std::map<Slot, PendingRepair> repairs_;
  // Catch-up entries awaiting payload recovery, per requester.
  bool catchup_in_flight_ = false;

  // --- snapshot state ---
  Slot snap_applied_ = 0;      // slots <= this are covered by a durable snapshot
  uint64_t snap_ckpt_id_ = 0;  // id of that snapshot (0 = none)
  /// Checkpoint id from the WAL's snap marker. Can lag snap_ckpt_id_ when a
  /// crash hit between a newer save() and its WAL truncation; restart installs
  /// against *this* id, the one whose barrier the durable WAL actually starts
  /// at (peers are only guaranteed to still hold fragments the marker saw).
  uint64_t snap_marker_id_ = 0;
  std::optional<snapshot::SnapshotManifest> snap_man_;  // own durable manifest
  Bytes snap_frag_;            // own fragment, cached for serving fetches
  bool state_ready_ = true;    // false: base image not yet reconstructed
  bool checkpoint_in_flight_ = false;

  /// Leader-side cache of the checkpoint being distributed: every member's
  /// fragment + manifest, dropped when superseded by the next checkpoint.
  struct PendingCheckpoint {
    uint64_t id = 0;
    Slot applied = 0;
    std::vector<snapshot::SnapshotManifest> mans;  // per member index
    std::vector<Bytes> frags;                      // per member index
    std::set<NodeId> acked;                        // followers done fetching
    TimeMicros offered_at = 0;
  };
  std::optional<PendingCheckpoint> ckpt_;

  /// Fetcher-side install / fragment-pull progress (stop-and-wait per peer;
  /// resumable: every request restates checkpoint, fragment and offset).
  struct PendingInstall {
    uint64_t ckpt_id = 0;   // 0 = newest the group knows
    bool pull_only = false; // just this node's fragment (offer path)
    NodeId pull_from = kNoNode;
    snapshot::SnapshotManifest man;  // geometry source once known
    bool man_known = false;
    struct PeerFetch {
      uint32_t share_idx = kAnyShare;
      uint64_t frag_len = 0;
      Bytes data;
      snapshot::SnapshotManifest man;
      bool done = false;
    };
    std::map<NodeId, PeerFetch> peers;
    /// First pass fetches only the policy's cheapest decodable fragment set
    /// (each member's own fragment, targeted by index); a tick that makes no
    /// progress widens back to the historical any-fragment broadcast.
    bool widened = false;
    size_t done_last_tick = 0;
    NodeContext::TimerId timer = 0;
  };
  std::optional<PendingInstall> install_;

  NodeContext::TimerId election_timer_ = 0;
  NodeContext::TimerId heartbeat_timer_ = 0;
  NodeContext::TimerId retransmit_timer_ = 0;

  /// Cached registry handles (delta views so stats() stays per-instance even
  /// when several clusters in one process reuse node ids).
  struct Metrics {
    obs::CounterView proposals, commits, accepts_sent;
    obs::CounterView elections_started, times_elected;
    obs::CounterView catchup_entries_served, recoveries, catchup_bytes;
    obs::CounterView repair_bytes;  // share bytes fetched for repair/recovery
    obs::CounterView checkpoints, snapshot_installs, snapshot_bytes;
    obs::CounterView shares_evicted, share_readbacks;
    obs::CounterView accepts_skipped;
    obs::Gauge* resident_share_bytes = nullptr;
    obs::Gauge* suspected_peers = nullptr;
    obs::HistogramMetric* quorum_wait_us = nullptr;
    obs::HistogramMetric* commit_apply_us = nullptr;
    obs::HistogramMetric* commit_total_us = nullptr;
    obs::HistogramMetric* snapshot_duration_us = nullptr;
  } m_;
  std::map<Slot, Inflight> inflight_;
  bool started_ = false;
};

}  // namespace rspaxos::consensus
