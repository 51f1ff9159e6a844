#include "consensus/replica.h"

#include <algorithm>
#include <cassert>

#include "net/frame.h"
#include "util/crc32.h"
#include "util/logging.h"

#include "consensus/replica_internal.h"

namespace rspaxos::consensus {

Replica::Replica(NodeContext* ctx, storage::Wal* wal, GroupConfig cfg, ReplicaOptions opts)
    : ctx_(ctx), wal_(wal), cfg_(std::move(cfg)), opts_(opts) {
  assert(cfg_.validate().is_ok());
  assert(cfg_.contains(ctx_->id()));
  init_metrics();
}

Replica::~Replica() {
  add_resident_bytes(-static_cast<int64_t>(resident_share_bytes_));
  m_.suspected_peers->add(-suspected_count_);
}

void Replica::init_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  std::string node = std::to_string(ctx_->id());
  std::string group = std::to_string(opts_.group_id);
  auto counter = [&](const char* name, const char* help) {
    return obs::CounterView(
        &reg.counter_family(name, help, {"node", "group"}).with({node, group}));
  };
  m_.proposals = counter("rsp_consensus_proposals_total", "Values proposed by this node");
  m_.commits = counter("rsp_consensus_commits_total", "Slots this node decided as leader");
  m_.accepts_sent = counter("rsp_consensus_accepts_sent_total", "Phase-2a messages sent");
  m_.accepts_skipped = counter("rsp_consensus_accepts_skipped_total",
                               "Phase-2a messages not sent to suspected followers");
  m_.elections_started =
      counter("rsp_consensus_elections_started_total", "Campaigns begun by this node");
  m_.times_elected = counter("rsp_consensus_times_elected_total", "Campaigns won");
  m_.catchup_entries_served =
      counter("rsp_consensus_catchup_entries_served_total", "Catch-up entries re-coded and sent");
  m_.recoveries =
      counter("rsp_consensus_recoveries_total", "Recovery reads started (share gathering)");
  m_.catchup_bytes =
      counter("rsp_catchup_bytes_sent", "Share+header bytes served in catch-up replies");
  m_.repair_bytes =
      counter("rsp_repair_bytes_total",
              "Share bytes fetched from peers for repairs and recovery reads");
  auto histogram = [&](const char* name, const char* help) {
    return &reg.histogram_family(name, help, {"node", "group"}).with({node, group});
  };
  m_.quorum_wait_us = histogram("rsp_commit_quorum_wait_us", "Propose to write-quorum latency");
  m_.commit_apply_us =
      histogram("rsp_commit_apply_us", "Write-quorum to local apply latency");
  m_.commit_total_us = histogram("rsp_commit_total_us", "Propose to local apply latency");
  m_.checkpoints =
      counter("rsp_snapshot_checkpoints_total", "Erasure-coded checkpoints cut as leader");
  m_.snapshot_installs =
      counter("rsp_snapshot_installs", "Full-state reconstructions from >= X fragments");
  m_.snapshot_bytes =
      counter("rsp_snapshot_bytes", "Checkpoint fragment bytes durably saved");
  m_.shares_evicted = counter("rsp_log_shares_evicted_total",
                              "Log-entry shares evicted from memory behind the horizon");
  m_.share_readbacks = counter("rsp_log_share_readbacks_total",
                               "Evicted log-entry shares read back from the WAL");
  m_.resident_share_bytes =
      &reg.gauge_family("rsp_log_resident_share_bytes",
                        "Share bytes the log holds in memory", {"node", "group"})
           .with({node, group});
  m_.suspected_peers =
      &reg.gauge_family("rsp_consensus_suspected_peers",
                        "Followers the leader suspects (no heartbeat ack for election_timeout_max)",
                        {"node", "group"})
           .with({node, group});
  m_.snapshot_duration_us =
      histogram("rsp_snapshot_duration_us", "Checkpoint build+encode+save latency");
}

ReplicaStats Replica::stats() const {
  ReplicaStats s;
  s.proposals = m_.proposals.value();
  s.commits = m_.commits.value();
  s.accepts_sent = m_.accepts_sent.value();
  s.elections_started = m_.elections_started.value();
  s.times_elected = m_.times_elected.value();
  s.catchup_entries_served = m_.catchup_entries_served.value();
  s.recoveries = m_.recoveries.value();
  s.checkpoints = m_.checkpoints.value();
  s.snapshot_installs = m_.snapshot_installs.value();
  s.snapshot_bytes = m_.snapshot_bytes.value();
  s.shares_evicted = m_.shares_evicted.value();
  s.share_readbacks = m_.share_readbacks.value();
  s.repair_bytes = m_.repair_bytes.value();
  s.accepts_skipped = m_.accepts_skipped.value();
  return s;
}

void Replica::start() {
  assert(!started_);
  started_ = true;
  if (snap_store_ != nullptr) {
    auto man = snap_store_->load_manifest();
    if (man.is_ok()) {
      auto frag = snap_store_->load_fragment();
      if (frag.is_ok()) {
        snap_man_ = std::move(man).value();
        snap_frag_ = std::move(frag).value();
        snap_ckpt_id_ = std::max(snap_ckpt_id_, snap_man_->checkpoint_id);
        Reader r(snap_man_->config_blob);
        GroupConfig c;
        if (decode_config(r, c).is_ok() && c.epoch > cfg_.epoch) cfg_ = c;
      } else {
        RSP_ERROR << "node " << ctx_->id()
                  << " snapshot fragment unreadable: " << frag.status().to_string();
      }
    }
  }
  restore_from_wal();
  if (snap_applied_ > 0) {
    // The durable WAL starts above a snapshot barrier: the base image must be
    // reconstructed from X fragments before the suffix can execute. Target
    // the marker's checkpoint, the one the truncated WAL was cut against.
    state_ready_ = false;
    RSP_INFO << "node " << ctx_->id() << " restarting above snapshot barrier "
             << snap_applied_ << " (ckpt " << snap_marker_id_ << ")";
    start_install(snap_marker_id_);
  }
  if (opts_.bootstrap_leader) {
    start_campaign();
  } else {
    arm_election_timer();
  }
}

DurationMicros Replica::election_timeout() {
  DurationMicros span = opts_.election_timeout_max - opts_.election_timeout_min;
  // Deterministic per-node stagger (keeps simulation reproducible and
  // avoids synchronized campaigns, like randomized timeouts would).
  DurationMicros offset = span > 0
      ? static_cast<DurationMicros>(
            (ctx_->id() * 2654435761u + m_.elections_started.value() * 40503u) %
            static_cast<uint64_t>(span))
      : 0;
  return opts_.election_timeout_min + offset;
}

void Replica::arm_election_timer() {
  if (election_timer_ != 0) ctx_->cancel_timer(election_timer_);
  election_timer_ = ctx_->set_timer(election_timeout(), [this] {
    election_timer_ = 0;
    if (role_ == Role::kLeader) return;
    // Respect the previous leader's lease (§4.3): a follower "can only drop
    // such lease in Δ + δ of time".
    if (ctx_->now() < follower_lease_until_) {
      arm_election_timer();
      return;
    }
    start_campaign();
  });
}

void Replica::arm_heartbeat_timer() {
  if (heartbeat_timer_ != 0) ctx_->cancel_timer(heartbeat_timer_);
  heartbeat_timer_ = ctx_->set_timer(opts_.heartbeat_interval, [this] {
    heartbeat_timer_ = 0;
    if (role_ != Role::kLeader) return;
    send_heartbeat();
    update_suspected_gauge();
    retransmit_pending();
    offer_snapshots();  // paced internally; no-op without a pending checkpoint
    arm_heartbeat_timer();
  });
}

NodeId Replica::leader_hint() const {
  if (role_ == Role::kLeader) return ctx_->id();
  return leader_;
}

bool Replica::suspected(NodeId m) const {
  if (role_ != Role::kLeader || m == ctx_->id()) return false;
  // A member the transport still holds a connection to is alive, only slow
  // (a stalled loop or a stolen vCPU): routing around it would leave it
  // holes that catch-up must fill.
  if (ctx_->connected_to(m)) return false;
  TimeMicros heard = leader_since_;
  auto it = last_ack_time_.find(m);
  if (it != last_ack_time_.end()) heard = std::max(heard, it->second);
  return ctx_->now() - heard >= opts_.election_timeout_max;
}

std::vector<bool> Replica::skippable() const {
  std::vector<bool> skip(cfg_.members.size(), false);
  int live = 0;
  for (size_t i = 0; i < skip.size(); ++i) {
    skip[i] = suspected(cfg_.members[i]);
    live += skip[i] ? 0 : 1;
  }
  // Below QW the group cannot commit without a suspect: ask everyone.
  if (live < cfg_.qw) skip.assign(skip.size(), false);
  return skip;
}

std::vector<NodeId> Replica::suspected_peers() const {
  std::vector<NodeId> out;
  for (NodeId m : cfg_.members) {
    if (suspected(m)) out.push_back(m);
  }
  return out;
}

void Replica::update_suspected_gauge() {
  int64_t count = static_cast<int64_t>(suspected_peers().size());
  m_.suspected_peers->add(count - suspected_count_);
  suspected_count_ = count;
}

bool Replica::lease_valid() const {
  if (role_ != Role::kLeader || applied_index_ < lease_floor_) return false;
  // Lease: the (QW-1)-th freshest follower ack plus lease window, minus the
  // assumed drift bound δ. Counting this replica itself as "fresh now", QW
  // members vouch for the leadership within the window.
  std::vector<TimeMicros> acks;
  acks.push_back(ctx_->now());
  for (const auto& [node, t] : last_ack_time_) acks.push_back(t);
  if (static_cast<int>(acks.size()) < cfg_.qw) return false;
  std::sort(acks.rbegin(), acks.rend());
  TimeMicros quorum_time = acks[static_cast<size_t>(cfg_.qw - 1)];
  return ctx_->now() < quorum_time + opts_.lease_duration - opts_.max_clock_drift;
}

// ---------------------------------------------------------------------------
// Election (§4.5): phase 1 over the whole open log.
// ---------------------------------------------------------------------------

void Replica::start_campaign() {
  role_ = Role::kCandidate;
  m_.elections_started.inc();
  ballot_ = Ballot{std::max(ballot_.round, promised_.round) + 1, ctx_->id()};
  promised_ = ballot_;
  campaign_start_ = applied_index_ + 1;
  campaign_promises_.clear();
  RSP_INFO << "campaigning" << RSP_KV("node", ctx_->id())
           << RSP_KV("ballot", ballot_.to_string()) << RSP_KV("from_slot", campaign_start_);

  persist_meta([this, ballot = ballot_] {
    if (ballot != ballot_ || role_ != Role::kCandidate) return;  // superseded
    // Self-promise with own accepted entries.
    PromiseMsg self;
    self.epoch = cfg_.epoch;
    self.ballot = ballot_;
    self.ok = true;
    self.promised = promised_;
    self.start_slot = campaign_start_;
    self.last_committed = commit_index_;
    auto entries = promise_entries(campaign_start_);
    if (entries.is_ok()) {
      self.entries = std::move(entries).value();
      on_promise(ctx_->id(), std::move(self));
    } else {
      RSP_ERROR << "node " << ctx_->id() << " cannot promise to itself: "
                << entries.status().to_string();
    }

    PrepareMsg msg;
    msg.epoch = cfg_.epoch;
    msg.ballot = ballot_;
    msg.start_slot = campaign_start_;
    SharedBytes enc = msg.encode();  // one buffer for every peer
    for (NodeId m : cfg_.members) {
      if (m != ctx_->id()) ctx_->send(m, MsgType::kPrepare, enc);
    }
  });
  arm_election_timer();  // campaign retry with a higher ballot on timeout
}

void Replica::on_promise(NodeId from, PromiseMsg msg) {
  if (role_ != Role::kCandidate || msg.ballot != ballot_) return;
  if (!msg.ok) {
    if (msg.promised > ballot_) become_follower(msg.promised, kNoNode);
    return;
  }
  campaign_promises_[from] = std::move(msg);
  if (static_cast<int>(campaign_promises_.size()) >= cfg_.qr) become_leader();
}

void Replica::become_leader() {
  role_ = Role::kLeader;
  leader_ = ctx_->id();
  m_.times_elected.inc();
  if (election_timer_ != 0) {
    ctx_->cancel_timer(election_timer_);
    election_timer_ = 0;
  }
  last_ack_time_.clear();
  leader_since_ = ctx_->now();

  // Merge per-slot accepted state from the read quorum, then re-propose:
  // bound values keep their identity; holes become NOOPs (§3.2 1c).
  std::map<Slot, std::vector<PromiseEntry>> by_slot;
  Slot max_slot = commit_index_;
  for (const auto& [node, p] : campaign_promises_) {
    for (const PromiseEntry& e : p.entries) {
      by_slot[e.slot].push_back(e);
      max_slot = std::max(max_slot, e.slot);
    }
  }
  next_slot_ = std::max(next_slot_, max_slot + 1);
  lease_floor_ = max_slot;
  RSP_INFO << "elected" << RSP_KV("node", ctx_->id()) << RSP_KV("ballot", ballot_.to_string())
           << RSP_KV("open_from", campaign_start_) << RSP_KV("open_to", max_slot);

  for (Slot s = campaign_start_; s <= max_slot; ++s) {
    auto lit = log_.find(s);
    if (lit != log_.end() && lit->second.committed) continue;  // already decided
    auto it = by_slot.find(s);
    Phase1Choice choice;
    if (it != by_slot.end()) {
      auto r = choose_phase1_value(it->second);
      if (r.is_ok()) {
        choice = std::move(r).value();
      } else {
        RSP_ERROR << "phase1 decode failure at slot " << s << ": "
                  << r.status().to_string();
      }
    }
    if (choice.bound.has_value()) {
      auto& b = *choice.bound;
      propose_internal(s, b.kind, b.vid, std::move(b.header), std::move(b.payload),
                       nullptr);
    } else {
      // Hole: fill with NOOP so later slots can execute.
      propose_internal(s, EntryKind::kNoop, ValueId{ctx_->id(), vid_seq_++}, Bytes{},
                       Bytes{}, nullptr);
    }
  }
  campaign_promises_.clear();
  send_heartbeat();
  arm_heartbeat_timer();
  // A fresh leader whose state machine still holds share-only rows below the
  // snapshot watermark cannot serve reads or recovery for them (those slots
  // were compacted out of every log): rebuild the full image from the
  // group's fragments and upgrade the incomplete rows.
  if (snap_ckpt_id_ != 0 && snap_store_ != nullptr && state_complete_ &&
      !state_complete_() && !install_.has_value()) {
    RSP_INFO << "leader " << ctx_->id() << " rebuilding state from snapshot "
             << snap_ckpt_id_;
    start_install(snap_ckpt_id_);
  }
  if (on_role_change_) on_role_change_(true);
}

void Replica::become_follower(Ballot seen, NodeId leader) {
  bool was_leader = (role_ == Role::kLeader);
  role_ = Role::kFollower;
  ballot_ = std::max(ballot_, seen);
  if (leader != kNoNode) {
    leader_ = leader;
  }
  if (heartbeat_timer_ != 0) {
    ctx_->cancel_timer(heartbeat_timer_);
    heartbeat_timer_ = 0;
  }
  if (was_leader || !pending_.empty()) {
    for (auto& [slot, p] : pending_) {
      if (p.cb) p.cb(Status::aborted("lost leadership"));
    }
    pending_.clear();
    inflight_.clear();  // abandoned traces age out of the tracer's active set
  }
  update_suspected_gauge();  // a follower suspects no one
  arm_election_timer();
  if (was_leader && on_role_change_) on_role_change_(false);
}

void Replica::transfer_leadership(NodeId target) {
  if (role_ != Role::kLeader || target == ctx_->id()) return;
  bool member = false;
  for (NodeId m : cfg_.members) member = member || (m == target);
  if (!member) return;
  RSP_INFO << "leader " << ctx_->id() << " nudging " << target << " to campaign";
  ctx_->send(target, MsgType::kLeaderTransfer, Bytes{});
}

void Replica::send_heartbeat() {
  CommitMsg msg;
  msg.epoch = cfg_.epoch;
  msg.ballot = ballot_;
  msg.commit_index = commit_index_;
  for (const auto& rc : recent_commits_) msg.recent.push_back(rc);
  recent_commits_.clear();
  SharedBytes enc = msg.encode();  // one buffer for every peer
  for (NodeId m : cfg_.members) {
    if (m != ctx_->id()) ctx_->send(m, MsgType::kCommit, enc);
  }
}

// ---------------------------------------------------------------------------
// Proposer path (§3.2 phase 2, leader-optimized).
// ---------------------------------------------------------------------------

void Replica::propose(Bytes header, Bytes payload, ProposeFn cb) {
  if (role_ != Role::kLeader) {
    if (cb) cb(Status::unavailable("not leader; hint=" + std::to_string(leader_hint())));
    return;
  }
  propose_internal(kNoSlot, EntryKind::kNormal, ValueId{ctx_->id(), vid_seq_++},
                   std::move(header), SharedBytes(std::move(payload)), std::move(cb));
}

void Replica::propose_config(GroupConfig new_cfg, ProposeFn cb) {
  if (role_ != Role::kLeader) {
    if (cb) cb(Status::unavailable("not leader"));
    return;
  }
  Status st = validate_view_change(cfg_, new_cfg);
  if (!st.is_ok()) {
    if (cb) cb(st);
    return;
  }
  Writer w(64);
  encode_config(w, new_cfg);
  propose_internal(kNoSlot, EntryKind::kConfig, ValueId{ctx_->id(), vid_seq_++}, w.take(),
                   Bytes{}, std::move(cb));
}

void Replica::propose_internal(Slot slot, EntryKind kind, ValueId vid, Bytes header,
                               SharedBytes payload, ProposeFn cb) {
  if (slot == kNoSlot) {
    slot = next_slot_++;
  } else {
    next_slot_ = std::max(next_slot_, slot + 1);
  }
  m_.proposals.inc();

  obs::Tracer& tracer = obs::Tracer::global();
  TimeMicros proposed_at = ctx_->now();
  // The commit span adopts the caller's ambient trace (a client RPC that
  // arrived with frame-header context) or roots a fresh one.
  obs::SpanContext parent = obs::current_span();
  obs::SpanContext commit_span =
      parent.valid() ? tracer.start_span(parent, "commit", ctx_->id(),
                                         static_cast<int64_t>(proposed_at))
                     : tracer.begin_trace("commit", ctx_->id(),
                                          static_cast<int64_t>(proposed_at));
  tracer.set_slot(commit_span.trace_id, slot);

  const ec::EcPolicy& code = policy();
  const int n = cfg_.n();
  const int my_idx = cfg_.index_of(ctx_->id());
  const size_t ss = code.share_size(payload.size());

  // Zero-copy encode: build every follower's accept frame up front with a
  // share-sized gap and point the codec's output buffers straight into those
  // gaps (the leader's own share lands in a standalone buffer that moves
  // into its log entry — or, in full-copy mode, is skipped: that share is
  // the payload itself). Share bytes are written exactly once — no
  // per-share staging copy; once encoded, the frames are shared buffers that
  // every send and retransmit references (their piggybacked commit_index
  // stays as of propose time, which is harmless: the watermark also rides
  // every heartbeat).
  AcceptMsg meta;
  meta.epoch = cfg_.epoch;
  meta.ballot = ballot_;
  meta.slot = slot;
  meta.share.vid = vid;
  meta.share.kind = kind;
  meta.share.code = cfg_.code;
  meta.share.x = static_cast<uint32_t>(cfg_.x);
  meta.share.n = static_cast<uint32_t>(n);
  meta.share.value_len = payload.size();
  meta.share.header = header;
  meta.commit_index = commit_index_;
  meta.trace_id = commit_span.trace_id;
  obs::SpanContext encode_span = tracer.start_span(
      commit_span, "ec_encode", ctx_->id(), static_cast<int64_t>(ctx_->now()));
  std::vector<Bytes> frames(static_cast<size_t>(n));
  Bytes my_share(meta.share.full_copy() ? 0 : ss);
  std::vector<uint8_t*> dsts(static_cast<size_t>(n), nullptr);
  for (int idx = 0; idx < n; ++idx) {
    if (idx == my_idx) {
      if (!meta.share.full_copy()) dsts[static_cast<size_t>(idx)] = my_share.data();
      continue;
    }
    meta.share.share_idx = static_cast<uint32_t>(idx);
    Writer w;
    size_t gap = encode_accept_frame(w, meta, ss);
    frames[static_cast<size_t>(idx)] = w.take();
    dsts[static_cast<size_t>(idx)] = frames[static_cast<size_t>(idx)].data() + gap;
  }

  code.encode_into(payload, dsts.data());
  tracer.end_span(encode_span, static_cast<int64_t>(ctx_->now()));

  PendingProposal p;
  p.vid = vid;
  p.kind = kind;
  p.header = std::move(header);
  p.value_len = payload.size();
  p.cb = std::move(cb);
  p.last_sent = proposed_at;
  p.commit_span = commit_span;
  // The encode is done: adopt each frame as the shared buffer every send of
  // it references.
  p.frames.reserve(frames.size());
  for (Bytes& f : frames) p.frames.emplace_back(std::move(f));

  // The leader is also an acceptor: record and persist its own share, cache
  // the full value for serving reads and catch-up (§1: "the leader caches
  // the original value itself"). In full-copy mode the share is the value:
  // one buffer serves as both.
  CodedShare share;
  share.vid = vid;
  share.kind = kind;
  share.code = cfg_.code;
  share.share_idx = static_cast<uint32_t>(my_idx);
  share.x = static_cast<uint32_t>(cfg_.x);
  share.n = static_cast<uint32_t>(n);
  share.value_len = p.value_len;
  share.header = p.header;
  LogEntry& e = log_[slot];
  e.accepted = ballot_;
  e.committed = false;
  e.durable = false;
  e.wal_pos = {};
  if (share.full_copy()) {
    share.data = std::move(payload);
    e.payload.clear();
  } else {
    share.data = std::move(my_share);
    e.payload = std::move(payload);
  }
  replace_share(e, std::move(share));

  auto [it, inserted] = pending_.emplace(slot, std::move(p));
  assert(inserted);
  PendingProposal& pp = it->second;
  pp.net_spans.assign(static_cast<size_t>(n), obs::SpanContext{});

  // Send coded accepts to followers immediately; count ourselves only after
  // our own share is durable (same rule as every acceptor). Each follower
  // gets its own "net_accept:<id>" span, opened here and closed by the
  // receiving acceptor (the tracer joins the two halves when it is read).
  // A suspected follower is not sent its accept while the other members
  // still make QW without it (DESIGN.md §17).
  const std::vector<bool> skip = skippable();
  for (size_t i = 0; i < cfg_.members.size(); ++i) {
    NodeId m = cfg_.members[i];
    if (m == ctx_->id()) continue;
    if (skip[i]) {
      m_.accepts_skipped.inc();
      continue;
    }
    if (i < pp.net_spans.size()) {
      pp.net_spans[i] = tracer.start_span(commit_span, {"net_accept", m}, ctx_->id(),
                                          static_cast<int64_t>(ctx_->now()));
    }
    send_accept_to(m, pp);
  }
  Inflight inf;
  inf.commit_span = commit_span;
  inf.proposed_at = proposed_at;
  inf.quorum_span = tracer.start_span(commit_span, "quorum_wait", ctx_->id(),
                                      static_cast<int64_t>(ctx_->now()));
  inflight_[slot] = inf;
  obs::SpanContext fsync_span = tracer.start_span(
      commit_span, "wal_fsync", ctx_->id(), static_cast<int64_t>(ctx_->now()));
  persist_slot(slot, [this, slot, ballot = ballot_, fsync_span] {
    obs::Tracer::global().end_span(fsync_span, static_cast<int64_t>(ctx_->now()));
    auto pit = pending_.find(slot);
    if (pit == pending_.end() || role_ != Role::kLeader || ballot != ballot_) return;
    pit->second.acks.insert(ctx_->id());
    if (static_cast<int>(pit->second.acks.size()) >= cfg_.qw) handle_commit_of(slot);
  });
}

void Replica::send_accept_to(NodeId member, const PendingProposal& p) {
  int idx = cfg_.index_of(member);
  // Members beyond the frame set (joined in a newer view than this proposal)
  // get nothing: the proposal's coding geometry predates them, and catch-up
  // re-codes committed entries for the new view.
  if (idx < 0 || static_cast<size_t>(idx) >= p.frames.size() ||
      p.frames[static_cast<size_t>(idx)].empty()) {
    return;
  }
  m_.accepts_sent.inc();
  // The accept travels inside its per-acceptor network span: the transport
  // stamps the ambient context into the frame and the acceptor ends the span
  // on receipt (retransmits re-carry it; re-ending is a no-op).
  obs::SpanScope scope(static_cast<size_t>(idx) < p.net_spans.size()
                           ? p.net_spans[static_cast<size_t>(idx)]
                           : obs::SpanContext{});
  ctx_->send(member, MsgType::kAccept, p.frames[static_cast<size_t>(idx)]);
}

void Replica::on_accepted(NodeId from, AcceptedMsg msg) {
  if (role_ != Role::kLeader || msg.ballot != ballot_) return;
  if (!msg.ok) {
    if (msg.promised > ballot_) {
      RSP_INFO << "leader " << ctx_->id() << " preempted by " << msg.promised.to_string();
      become_follower(msg.promised, kNoNode);
    }
    return;
  }
  auto it = pending_.find(msg.slot);
  if (it == pending_.end()) return;  // already committed
  it->second.acks.insert(from);
  if (static_cast<int>(it->second.acks.size()) >= cfg_.qw) handle_commit_of(msg.slot);
}

void Replica::handle_commit_of(Slot slot) {
  auto it = pending_.find(slot);
  if (it == pending_.end()) return;
  ProposeFn cb = std::move(it->second.cb);
  ValueId vid = it->second.vid;
  pending_.erase(it);

  auto iit = inflight_.find(slot);
  if (iit != inflight_.end()) {
    TimeMicros now = ctx_->now();
    iit->second.quorum_at = now;
    if (m_.quorum_wait_us != nullptr) {
      m_.quorum_wait_us->observe(static_cast<int64_t>(now - iit->second.proposed_at));
    }
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.end_span(iit->second.quorum_span, static_cast<int64_t>(now));
    iit->second.apply_span = tracer.start_span(iit->second.commit_span, "apply", ctx_->id(),
                                               static_cast<int64_t>(now));
  }

  LogEntry& e = log_[slot];
  e.committed = true;
  m_.commits.inc();
  recent_commits_.emplace_back(slot, vid);
  // Ack the proposer only once the entry has *executed* locally, so a
  // fast read right after the ack observes the write. advance_commit_index
  // applies contiguous committed entries and drains the waiter.
  if (cb) commit_waiters_.emplace(slot, std::move(cb));
  advance_commit_index(commit_index_);  // recompute contiguous watermark
}

void Replica::retransmit_pending() {
  TimeMicros now = ctx_->now();
  const std::vector<bool> skip = skippable();
  for (auto& [slot, p] : pending_) {
    if (now - p.last_sent < opts_.retransmit_interval) continue;
    p.last_sent = now;  // pace re-sends: one per interval, not per heartbeat
    // The first retransmit still routes around suspects; a proposal that
    // is still uncommitted an interval later asks every member.
    for (size_t i = 0; i < cfg_.members.size(); ++i) {
      NodeId m = cfg_.members[i];
      if (m == ctx_->id() || p.acks.count(m)) continue;
      if (!p.widened && skip[i]) {
        m_.accepts_skipped.inc();
        continue;
      }
      send_accept_to(m, p);
    }
    p.widened = true;
  }
}

// ---------------------------------------------------------------------------
// Acceptor path (§3.2 1b / 2b). Durable before reply (§4.5).
// ---------------------------------------------------------------------------

void Replica::on_prepare(NodeId from, PrepareMsg msg) {
  PromiseMsg out;
  out.epoch = cfg_.epoch;
  out.ballot = msg.ballot;
  out.start_slot = msg.start_slot;
  out.last_committed = commit_index_;
  if (msg.ballot <= promised_) {
    out.ok = false;
    out.promised = promised_;
    ctx_->send(from, MsgType::kPromise, out.encode());
    return;
  }
  promised_ = msg.ballot;
  if (role_ == Role::kLeader && msg.ballot > ballot_) become_follower(msg.ballot, kNoNode);
  arm_election_timer();  // someone is actively campaigning; stand back
  out.ok = true;
  out.promised = promised_;
  auto entries = promise_entries(msg.start_slot);
  if (!entries.is_ok()) {
    // Withholding the promise is safe; omitting an accepted share is not.
    RSP_ERROR << "node " << ctx_->id() << " withholds promise for "
              << msg.ballot.to_string() << ": " << entries.status().to_string();
    return;
  }
  out.entries = std::move(entries).value();
  persist_meta([this, from, out = std::move(out)]() mutable {
    ctx_->send(from, MsgType::kPromise, out.encode());
  });
}

void Replica::on_accept(NodeId from, AcceptMsg msg) {
  obs::Tracer& tracer = obs::Tracer::global();
  // The ambient span is the leader's "net_accept" span carried in the frame
  // header; ending it here closes the network+queue measurement. Falls back
  // to the message's trace id (root attach) if the frame context was lost.
  obs::SpanContext in_span = obs::current_span();
  if (!in_span.valid() && msg.trace_id != obs::kNoTrace) {
    in_span = obs::SpanContext{msg.trace_id, 0};
  }
  tracer.end_span(in_span, static_cast<int64_t>(ctx_->now()));
  AcceptedMsg out;
  out.epoch = cfg_.epoch;
  out.ballot = msg.ballot;
  out.slot = msg.slot;
  if (msg.ballot < promised_) {
    out.ok = false;
    out.promised = promised_;
    ctx_->send(from, MsgType::kAccepted, out.encode());
    return;
  }
  promised_ = std::max(promised_, msg.ballot);
  if (role_ != Role::kFollower && msg.ballot > ballot_) {
    become_follower(msg.ballot, msg.ballot.node);
  }
  ballot_ = std::max(ballot_, msg.ballot);
  leader_ = msg.ballot.node;
  last_leader_contact_ = ctx_->now();
  follower_lease_until_ = ctx_->now() + opts_.lease_duration + opts_.max_clock_drift;
  arm_election_timer();

  LogEntry& e = log_[msg.slot];
  if (e.committed) {
    // Already know the decided value; re-ack idempotently.
    out.ok = true;
    out.promised = promised_;
    ctx_->send(from, MsgType::kAccepted, out.encode());
    advance_commit_index(std::max(commit_index_, msg.commit_index));
    return;
  }
  if (!e.accepted.is_null() && e.accepted == msg.ballot && e.share.vid == msg.share.vid) {
    // Duplicate of an accept we already hold (retransmission): never
    // re-persist. Ack right away if durable; otherwise the in-flight persist
    // callback will ack when the original write completes.
    if (e.durable) {
      out.ok = true;
      out.promised = promised_;
      ctx_->send(from, MsgType::kAccepted, out.encode());
    }
    mark_committed_up_to(msg.commit_index, msg.ballot);
    advance_commit_index(std::max(commit_index_, msg.commit_index));
    return;
  }
  // A cached payload survives only a re-proposal of the same value.
  if (e.share.vid != msg.share.vid) e.payload.clear();
  e.accepted = msg.ballot;
  replace_share(e, std::move(msg.share));
  e.durable = false;
  e.wal_pos = {};
  next_slot_ = std::max(next_slot_, msg.slot + 1);
  out.ok = true;
  out.promised = promised_;
  obs::SpanContext fsync_span = tracer.start_span(in_span, "wal_fsync", ctx_->id(),
                                                  static_cast<int64_t>(ctx_->now()));
  persist_slot(msg.slot, [this, from, fsync_span, out = std::move(out)]() mutable {
    obs::Tracer::global().end_span(fsync_span, static_cast<int64_t>(ctx_->now()));
    ctx_->send(from, MsgType::kAccepted, out.encode());
  });
  mark_committed_up_to(msg.commit_index, msg.ballot);
  advance_commit_index(std::max(commit_index_, msg.commit_index));
}

// ---------------------------------------------------------------------------
// Learner path: commits, heartbeats, catch-up (§4.5).
// ---------------------------------------------------------------------------

void Replica::on_commit(NodeId from, CommitMsg msg) {
  if (msg.ballot < ballot_ && msg.ballot.node != leader_) return;  // stale leader
  if (msg.ballot > ballot_) {
    if (role_ != Role::kFollower) become_follower(msg.ballot, msg.ballot.node);
    ballot_ = msg.ballot;
  }
  leader_ = msg.ballot.node;
  last_leader_contact_ = ctx_->now();
  follower_lease_until_ = ctx_->now() + opts_.lease_duration + opts_.max_clock_drift;
  arm_election_timer();

  // Mark recently decided slots committed if our accepted vid matches; a
  // mismatch means our entry is from a dead round — catch-up will replace it.
  for (const auto& [slot, vid] : msg.recent) {
    auto it = log_.find(slot);
    if (it != log_.end() && !it->second.accepted.is_null() && it->second.share.vid == vid) {
      it->second.committed = true;
    }
  }
  mark_committed_up_to(msg.commit_index, msg.ballot);
  advance_commit_index(std::max(commit_index_, msg.commit_index));

  HeartbeatAckMsg ack;
  ack.epoch = cfg_.epoch;
  ack.ballot = msg.ballot;
  ack.last_logged = next_slot_ - 1;
  ack.last_committed = applied_index_;
  ctx_->send(from, MsgType::kHeartbeat, ack.encode());
  maybe_request_catchup();
}

void Replica::on_heartbeat_ack(NodeId from, HeartbeatAckMsg msg) {
  if (role_ != Role::kLeader || msg.ballot != ballot_) return;
  last_ack_time_[from] = ctx_->now();
}

void Replica::mark_committed_up_to(Slot ci, const Ballot& leader_ballot) {
  // Entries we accepted under the leader's *current* ballot are the values
  // that leader proposed for those slots; if the slot is covered by its
  // commit watermark, that value is the chosen one (a ballot belongs to one
  // proposer, which proposes one value per slot).
  for (auto it = log_.upper_bound(applied_index_); it != log_.end() && it->first <= ci;
       ++it) {
    if (!it->second.committed && it->second.accepted == leader_ballot) {
      it->second.committed = true;
    }
  }
}

void Replica::advance_commit_index(Slot new_commit) {
  commit_index_ = std::max(commit_index_, new_commit);
  // A leader's commit watermark also advances through locally decided slots.
  while (true) {
    auto it = log_.find(commit_index_ + 1);
    if (it == log_.end() || !it->second.committed) break;
    commit_index_++;
  }
  try_apply();
}

void Replica::try_apply() {
  // A restarting node whose WAL begins above a snapshot barrier must not
  // execute the suffix until the base image has been reconstructed.
  if (!state_ready_) return;
  while (applied_index_ < commit_index_) {
    auto it = log_.find(applied_index_ + 1);
    if (it == log_.end() || !it->second.committed) {
      maybe_request_catchup();
      return;
    }
    LogEntry& e = it->second;
    Slot slot = applied_index_ + 1;
    if (e.share.kind == EntryKind::kConfig) {
      apply_config_entry(e, slot);
    } else if (apply_ && e.share.kind == EntryKind::kNormal) {
      ApplyView view;
      view.slot = slot;
      view.kind = e.share.kind;
      view.vid = e.share.vid;
      view.header = &e.share.header;
      view.full_payload = e.full_payload();
      view.share = &e.share;
      apply_(view);
    }
    e.applied = true;
    applied_index_ = slot;
    auto iit = inflight_.find(slot);
    if (iit != inflight_.end()) {
      TimeMicros now = ctx_->now();
      if (m_.commit_apply_us != nullptr && iit->second.quorum_at != 0) {
        m_.commit_apply_us->observe(static_cast<int64_t>(now - iit->second.quorum_at));
      }
      if (m_.commit_total_us != nullptr) {
        m_.commit_total_us->observe(static_cast<int64_t>(now - iit->second.proposed_at));
      }
      obs::Tracer& tracer = obs::Tracer::global();
      tracer.end_span(iit->second.apply_span, static_cast<int64_t>(now));
      // Ending the commit span completes the trace when this replica minted
      // it; under a client-rooted trace the client's reply handler finishes.
      tracer.end_span(iit->second.commit_span, static_cast<int64_t>(now));
      inflight_.erase(iit);
    }
    auto wit = commit_waiters_.find(slot);
    if (wit != commit_waiters_.end()) {
      ProposeFn cb = std::move(wit->second);
      commit_waiters_.erase(wit);
      cb(slot);
    }
  }
  maybe_drop_old_payloads();
  // A fragment adopted while execution trailed its barrier compacts as soon
  // as the barrier is covered (fragment-first, truncate-second ordering).
  if (snap_ckpt_id_ != 0 && snap_man_.has_value() &&
      applied_index_ >= static_cast<Slot>(snap_man_->applied_index) &&
      snap_applied_ < static_cast<Slot>(snap_man_->applied_index)) {
    compact_log_below(static_cast<Slot>(snap_man_->applied_index), snap_ckpt_id_);
  }
  maybe_checkpoint();
}

void Replica::apply_config_entry(const LogEntry& e, Slot slot) {
  Reader r(e.share.header);
  GroupConfig new_cfg;
  Status st = decode_config(r, new_cfg);
  if (!st.is_ok()) {
    RSP_ERROR << "bad CONFIG entry at slot " << slot << ": " << st.to_string();
    return;
  }
  GroupConfig old_cfg = cfg_;
  ReencodeAction action = plan_reencode(old_cfg, new_cfg);
  RSP_INFO << "node " << ctx_->id() << " view change at slot " << slot << ": "
           << old_cfg.to_string() << " -> " << new_cfg.to_string()
           << " action=" << to_string(action);
  cfg_ = new_cfg;
  wal_->append(encode_config_record(cfg_), nullptr);
  // Drop lease bookkeeping for members that left the view, so their stale
  // acks can never count toward the new quorum.
  for (auto it = last_ack_time_.begin(); it != last_ack_time_.end();) {
    it = cfg_.contains(it->first) ? std::next(it) : last_ack_time_.erase(it);
  }
  if (!cfg_.contains(ctx_->id())) {
    // Removed from the group: stop participating (timers die naturally).
    role_ = Role::kFollower;
    if (heartbeat_timer_ != 0) ctx_->cancel_timer(heartbeat_timer_);
    if (election_timer_ != 0) ctx_->cancel_timer(election_timer_);
    update_suspected_gauge();
  }
  if (on_config_change_) on_config_change_(old_cfg, cfg_, action);
}
// ---------------------------------------------------------------------------
// Persistence (§4.5).
// ---------------------------------------------------------------------------

// Durable backends may complete appends on their own flush thread (FileWal's
// group-commit flusher does); protocol state is single-threaded per node, so
// the continuation is marshalled back onto the node's execution context
// (set_timer(0) is the cross-thread-safe "post" on every transport) before it
// touches anything.
void Replica::persist_meta(std::function<void()> then) {
  wal_->append(encode_meta_record(promised_),
               [ctx = ctx_, then = std::move(then)](Status st, storage::WalPos) {
                 if (st.is_ok() && then) ctx->set_timer(0, then);
               });
}

void Replica::persist_slot(Slot slot, std::function<void()> then) {
  const LogEntry& e = log_[slot];
  wal_->append(
      storage::WalRecord(encode_slot_record_head(slot, e.accepted, e.share), e.share.data),
      [this, ctx = ctx_, slot, ballot = e.accepted, vid = e.share.vid,
       truncations = wal_truncations_, then = std::move(then)](Status st,
                                                               storage::WalPos pos) mutable {
        if (!st.is_ok()) return;
        ctx->set_timer(0, [=, this, then = std::move(then)] {
          // The entry, if it still holds what was written, records where it
          // landed — unless a truncation issued since then retired that
          // position.
          auto it = log_.find(slot);
          if (it != log_.end() && it->second.accepted == ballot &&
              it->second.share.vid == vid) {
            LogEntry& le = it->second;
            le.durable = true;
            if (truncations == wal_truncations_) le.wal_pos = pos;
            if (le.applied && slot <= gc_floor_) evict_share(le);  // floor passed it in flight
          }
          if (then) then();
        });
      });
}

void Replica::restore_from_wal() {
  wal_->replay([this](BytesView rec, storage::WalPos pos) {
    Reader r(rec);
    uint8_t tag = 0;
    if (!r.u8(tag).is_ok()) return;
    switch (tag) {
      case kRecMeta: {
        Ballot b;
        if (decode_ballot(r, b).is_ok()) {
          promised_ = std::max(promised_, b);
          ballot_ = std::max(ballot_, b);
        }
        return;
      }
      case kRecSlot: {
        Slot slot;
        Ballot accepted;
        CodedShare share;
        if (r.varint(slot).is_ok() && decode_ballot(r, accepted).is_ok() &&
            decode_share(r, share).is_ok()) {
          LogEntry& e = log_[slot];
          e.accepted = accepted;
          replace_share(e, std::move(share));
          e.durable = true;
          e.wal_pos = pos;
          next_slot_ = std::max(next_slot_, slot + 1);
        }
        return;
      }
      case kRecConfig: {
        GroupConfig c;
        if (decode_config(r, c).is_ok() && c.epoch >= cfg_.epoch) cfg_ = c;
        return;
      }
      case kRecSnapMarker: {
        uint64_t id;
        Slot barrier;
        Slot next_hint;
        if (r.varint(id).is_ok() && r.varint(barrier).is_ok() &&
            r.varint(next_hint).is_ok()) {
          snap_marker_id_ = std::max(snap_marker_id_, id);
          snap_ckpt_id_ = std::max(snap_ckpt_id_, id);
          snap_applied_ = std::max(snap_applied_, barrier);
          applied_index_ = std::max(applied_index_, barrier);
          commit_index_ = std::max(commit_index_, barrier);
          next_slot_ = std::max(next_slot_, next_hint);
          erase_log_through(barrier);
        }
        return;
      }
      default:
        return;
    }
  });
  if (!log_.empty()) {
    RSP_INFO << "node " << ctx_->id() << " restored " << log_.size()
             << " slots from WAL, promised=" << promised_.to_string();
  }
}

Replica::EntryBuffers Replica::entry_buffers_for_test(Slot slot) const {
  auto it = log_.find(slot);
  if (it == log_.end()) return {};
  return EntryBuffers{it->second.share.data.id(), it->second.payload.id(),
                      it->second.wal_pos};
}

const void* Replica::accept_frame_for_test(Slot slot, NodeId member) const {
  auto it = pending_.find(slot);
  int idx = cfg_.index_of(member);
  if (it == pending_.end() || idx < 0 || static_cast<size_t>(idx) >= it->second.frames.size()) {
    return nullptr;
  }
  return it->second.frames[static_cast<size_t>(idx)].id();
}

void Replica::maybe_drop_old_payloads() {
  if (opts_.payload_cache_slots == 0 || applied_index_ <= opts_.payload_cache_slots) return;
  Slot cutoff = applied_index_ - opts_.payload_cache_slots;
  // Incremental: slots <= the floor were stripped by an earlier pass, so
  // each call walks only newly aged-out entries. Without the floor this
  // rescan is O(applied_index) per apply batch — quadratic over a long
  // run, and open-loop saturation runs push hundreds of thousands of
  // slots. This relies on nothing caching a payload at or below the floor
  // later (accepts never set one, and recovery reads cache only above it),
  // and on a record that lands below the floor evicting its own share.
  for (auto it = log_.upper_bound(gc_floor_); it != log_.end() && it->first <= cutoff; ++it) {
    if (!it->second.applied) continue;
    it->second.payload.clear();
    evict_share(it->second);
  }
  gc_floor_ = std::max(gc_floor_, cutoff);
}

void Replica::evict_share(LogEntry& e) {
  // Without a position (not yet durable, retired by a truncation, or a WAL
  // that retains nothing) the share stays: nothing could give it back.
  if (!e.durable || !e.wal_pos.valid() || e.share.data.empty()) return;
  add_resident_bytes(-static_cast<int64_t>(e.share.data.size()));
  e.share.data.clear();
  m_.shares_evicted.inc();
}

StatusOr<CodedShare> Replica::own_share(Slot slot, const LogEntry& e) {
  if (!e.share_evicted()) return e.share;
  m_.share_readbacks.inc();
  auto rec = wal_->read(e.wal_pos);
  if (!rec.is_ok()) return rec.status();
  Reader r(rec.value());
  uint8_t tag = 0;
  Slot rec_slot = 0;
  Ballot accepted;
  CodedShare share;
  if (!r.u8(tag).is_ok() || tag != kRecSlot || !r.varint(rec_slot).is_ok() ||
      rec_slot != slot || !decode_ballot(r, accepted).is_ok() ||
      !decode_share(r, share).is_ok() || share.vid != e.share.vid) {
    return Status::corruption("wal record does not hold slot " + std::to_string(slot));
  }
  return share;
}

StatusOr<std::vector<PromiseEntry>> Replica::promise_entries(Slot from) {
  std::vector<PromiseEntry> out;
  for (auto it = log_.lower_bound(from); it != log_.end(); ++it) {
    if (it->second.accepted.is_null()) continue;
    auto share = own_share(it->first, it->second);
    if (!share.is_ok()) return share.status();
    out.push_back(PromiseEntry{it->first, it->second.accepted, std::move(share).value()});
  }
  return out;
}

void Replica::replace_share(LogEntry& e, CodedShare share) {
  add_resident_bytes(static_cast<int64_t>(share.data.size()) -
                     static_cast<int64_t>(e.share.data.size()));
  e.share = std::move(share);
}

void Replica::erase_log_through(Slot slot) {
  auto end = log_.upper_bound(slot);
  for (auto it = log_.begin(); it != end; ++it) {
    add_resident_bytes(-static_cast<int64_t>(it->second.share.data.size()));
  }
  log_.erase(log_.begin(), end);
}

void Replica::add_resident_bytes(int64_t delta) {
  resident_share_bytes_ += static_cast<uint64_t>(delta);  // modular: negative deltas subtract
  m_.resident_share_bytes->add(delta);
}
// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void Replica::on_message(NodeId from, MsgType type, BytesView payload) {
  switch (type) {
    case MsgType::kPrepare: {
      auto m = PrepareMsg::decode(payload);
      if (m.is_ok()) on_prepare(from, std::move(m).value());
      return;
    }
    case MsgType::kPromise: {
      auto m = PromiseMsg::decode(payload);
      if (m.is_ok()) on_promise(from, std::move(m).value());
      return;
    }
    case MsgType::kAccept: {
      auto m = AcceptMsg::decode(payload);
      if (m.is_ok()) on_accept(from, std::move(m).value());
      return;
    }
    case MsgType::kAccepted: {
      auto m = AcceptedMsg::decode(payload);
      if (m.is_ok()) on_accepted(from, std::move(m).value());
      return;
    }
    case MsgType::kCommit: {
      auto m = CommitMsg::decode(payload);
      if (m.is_ok()) on_commit(from, std::move(m).value());
      return;
    }
    case MsgType::kHeartbeat: {
      auto m = HeartbeatAckMsg::decode(payload);
      if (m.is_ok()) on_heartbeat_ack(from, std::move(m).value());
      return;
    }
    case MsgType::kCatchupReq: {
      auto m = CatchupReqMsg::decode(payload);
      if (m.is_ok()) on_catchup_req(from, std::move(m).value());
      return;
    }
    case MsgType::kCatchupRep: {
      auto m = CatchupRepMsg::decode(payload);
      if (m.is_ok()) on_catchup_rep(from, std::move(m).value());
      return;
    }
    case MsgType::kFetchShareReq: {
      auto m = FetchShareReqMsg::decode(payload);
      if (m.is_ok()) on_fetch_share_req(from, std::move(m).value());
      return;
    }
    case MsgType::kFetchShareRep: {
      auto m = FetchShareRepMsg::decode(payload);
      if (m.is_ok()) on_fetch_share_rep(from, std::move(m).value());
      return;
    }
    case MsgType::kSnapshotOffer: {
      auto m = SnapshotOfferMsg::decode(payload);
      if (m.is_ok()) on_snapshot_offer(from, std::move(m).value());
      return;
    }
    case MsgType::kSnapshotFetchReq: {
      auto m = SnapshotFetchReqMsg::decode(payload);
      if (m.is_ok()) on_snapshot_fetch_req(from, std::move(m).value());
      return;
    }
    case MsgType::kSnapshotFetchRep: {
      auto m = SnapshotFetchRepMsg::decode(payload);
      if (m.is_ok()) on_snapshot_fetch_rep(from, std::move(m).value());
      return;
    }
    case MsgType::kLeaderTransfer: {
      // Balancer-initiated leader move: campaign now, outside the normal
      // election timer (start_campaign does not consult follower_lease_until_,
      // so the incumbent's still-valid lease cannot veto its own transfer).
      if (role_ != Role::kLeader && started_) start_campaign();
      return;
    }
    default:
      return;
  }
}

}  // namespace rspaxos::consensus
