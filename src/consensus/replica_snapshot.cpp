// Replica snapshot coordinator: erasure-coded checkpoints, fragment
// distribution, InstallSnapshot reconstruction and WAL compaction below the
// snapshot barrier. Split out of replica.cpp; see replica_internal.h.
#include <algorithm>
#include <cassert>

#include "consensus/replica.h"
#include "consensus/replica_internal.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace rspaxos::consensus {
// ---------------------------------------------------------------------------
// Snapshots & log compaction: each node durably keeps only its θ(X, N)
// fragment of the state image (~|state|/X bytes) — the paper's storage
// argument applied to checkpoints — and the WAL prefix below the barrier is
// replaced by a marker record. A lagging replica whose gap predates every
// log reconstructs the image from any X distinct fragments (InstallSnapshot).
// ---------------------------------------------------------------------------

void Replica::maybe_checkpoint() {
  if (role_ != Role::kLeader || snap_store_ == nullptr || !build_state_) return;
  if (opts_.checkpoint_interval_slots == 0) return;
  if (checkpoint_in_flight_ || install_.has_value() || !state_ready_) return;
  if (applied_index_ < snap_applied_ + opts_.checkpoint_interval_slots) return;
  // Cut at a quiet barrier: everything committed is executed, so the image
  // is exactly the prefix <= applied_index_.
  if (applied_index_ != commit_index_) return;
  if (state_complete_ && !state_complete_()) return;
  const Slot barrier = applied_index_;
  const uint64_t id = barrier;  // deterministic identity across the group
  if (id <= snap_ckpt_id_) return;
  const int my_idx = cfg_.index_of(ctx_->id());
  if (my_idx < 0) return;

  auto img = build_state_();
  if (!img.is_ok()) return;  // e.g. share-only rows appeared; retry later
  const TimeMicros t0 = ctx_->now();
  Bytes image = std::move(img).value();
  const uint32_t state_crc = crc32c(image);
  Writer cw(64);
  encode_config(cw, cfg_);
  Bytes cfg_blob = cw.take();

  const ec::EcPolicy& code = policy();
  const int n = cfg_.n();
  PendingCheckpoint ck;
  ck.id = id;
  ck.applied = barrier;
  ck.mans.resize(static_cast<size_t>(n));
  ck.frags.resize(static_cast<size_t>(n));
  for (int idx = 0; idx < n; ++idx) {
    Bytes frag = code.encode_share(image, idx);
    snapshot::SnapshotManifest man;
    man.checkpoint_id = id;
    man.applied_index = barrier;
    man.next_slot = next_slot_;
    man.epoch = cfg_.epoch;
    man.share_idx = static_cast<uint32_t>(idx);
    man.x = static_cast<uint32_t>(cfg_.x);
    man.n = static_cast<uint32_t>(n);
    man.code = cfg_.code;
    man.state_len = image.size();
    man.state_crc = state_crc;
    man.frag_len = frag.size();
    man.frag_crc = crc32c(frag);
    man.config_blob = cfg_blob;
    ck.mans[static_cast<size_t>(idx)] = std::move(man);
    ck.frags[static_cast<size_t>(idx)] = std::move(frag);
  }
  snapshot::SnapshotManifest my_man = ck.mans[static_cast<size_t>(my_idx)];
  Bytes my_frag = ck.frags[static_cast<size_t>(my_idx)];
  ckpt_ = std::move(ck);
  checkpoint_in_flight_ = true;
  RSP_INFO << "leader " << ctx_->id() << " checkpoint " << id << " at slot " << barrier
           << " state=" << image.size() << "B frag=" << my_frag.size() << "B";
  save_own_fragment(std::move(my_man), std::move(my_frag), [this, id, t0](Status st) {
    checkpoint_in_flight_ = false;
    if (!st.is_ok()) {
      RSP_ERROR << "checkpoint " << id << " save failed: " << st.to_string();
      if (ckpt_.has_value() && ckpt_->id == id) ckpt_.reset();
      return;
    }
    m_.checkpoints.inc();
    if (m_.snapshot_duration_us != nullptr) {
      m_.snapshot_duration_us->observe(static_cast<int64_t>(ctx_->now() - t0));
    }
    offer_snapshots();
  });
}

void Replica::save_own_fragment(snapshot::SnapshotManifest man, Bytes frag,
                                std::function<void(Status)> then) {
  if (snap_store_ == nullptr) {
    if (then) then(Status::unavailable("no snapshot store"));
    return;
  }
  snapshot::SnapshotManifest man_arg = man;
  Bytes frag_arg = frag;
  snap_store_->save(
      man_arg, std::move(frag_arg),
      [this, man = std::move(man), frag = std::move(frag),
       then = std::move(then)](Status st) mutable {
        if (!st.is_ok()) {
          RSP_ERROR << "node " << ctx_->id()
                    << " snapshot save failed: " << st.to_string();
          if (then) then(st);
          return;
        }
        const uint64_t id = man.checkpoint_id;
        if (snap_ckpt_id_ != 0 && id < snap_ckpt_id_) {
          // Superseded while the save was in flight; keep the newer snapshot's
          // in-memory identity (the store itself only ever keeps the last
          // save, but a newer one's callback has already run).
          if (then) then(st);
          return;
        }
        m_.snapshot_bytes.inc(frag.size());
        const Slot barrier = static_cast<Slot>(man.applied_index);
        snap_man_ = std::move(man);
        snap_frag_ = std::move(frag);
        snap_ckpt_id_ = id;
        if (applied_index_ >= barrier && snap_applied_ < barrier) {
          compact_log_below(barrier, id);
        }
        if (then) then(st);
      });
}

void Replica::compact_log_below(Slot snap_slot, uint64_t ckpt_id) {
  // Rebuild the durable prefix: meta + config + snapshot marker + every live
  // accepted record above the barrier, then atomically swap it in for the old
  // log (segment rotation + manifest commit + unlink underneath).
  std::vector<Bytes> head;
  head.push_back(encode_meta_record(promised_));
  head.push_back(encode_config_record(cfg_));
  head.push_back(encode_snap_marker(ckpt_id, snap_slot, next_slot_));
  for (const auto& [slot, e] : log_) {
    if (slot > snap_slot && !e.accepted.is_null()) {
      head.push_back(encode_slot_record(slot, e.accepted, e.share));
    }
  }
  wal_->truncate_prefix(std::move(head), nullptr);
  log_.erase(log_.begin(), log_.upper_bound(snap_slot));
  // Retiring the prefix also retires its accept retransmissions: a straggler
  // that never acked these slots converges through InstallSnapshot now, not
  // through endless per-slot re-sends of superseded shares.
  pending_.erase(pending_.begin(), pending_.upper_bound(snap_slot));
  snap_applied_ = std::max(snap_applied_, snap_slot);
  snap_marker_id_ = std::max(snap_marker_id_, ckpt_id);
  // In-flight recovery reads below the barrier can never gather a share
  // quorum any more; fail their waiters instead of letting them retry.
  for (auto it = recoveries_.begin();
       it != recoveries_.end() && it->first <= snap_slot;) {
    if (it->second.retry_timer != 0) ctx_->cancel_timer(it->second.retry_timer);
    std::vector<RecoverFn> cbs = std::move(it->second.cbs);
    it = recoveries_.erase(it);
    for (auto& cb : cbs) {
      if (cb) cb(Status::not_found("slot compacted into snapshot"));
    }
  }
  RSP_INFO << "node " << ctx_->id() << " compacted log below slot " << snap_slot
           << " (ckpt " << ckpt_id << ")";
}

void Replica::offer_snapshots() {
  if (role_ != Role::kLeader || !ckpt_.has_value()) return;
  if (snap_ckpt_id_ != ckpt_->id) return;  // own fragment not durable yet
  TimeMicros now = ctx_->now();
  if (ckpt_->offered_at != 0 && now - ckpt_->offered_at < opts_.retransmit_interval) {
    return;
  }
  ckpt_->offered_at = now;
  bool all_acked = true;
  for (NodeId mem : cfg_.members) {
    if (mem == ctx_->id() || ckpt_->acked.count(mem)) continue;
    int idx = cfg_.index_of(mem);
    if (idx < 0 || static_cast<size_t>(idx) >= ckpt_->mans.size()) continue;
    all_acked = false;
    SnapshotOfferMsg msg;
    msg.epoch = cfg_.epoch;
    msg.ballot = ballot_;
    msg.manifest = ckpt_->mans[static_cast<size_t>(idx)].encode();
    ctx_->send(mem, MsgType::kSnapshotOffer, msg.encode());
  }
  if (all_acked) {
    // Every follower holds its fragment durably: the distribution cache has
    // served its purpose.
    ckpt_.reset();
  }
}

void Replica::on_snapshot_offer(NodeId from, SnapshotOfferMsg msg) {
  if (msg.ballot < ballot_) return;  // stale leader
  if (snap_store_ == nullptr) return;
  auto man_or = snapshot::SnapshotManifest::decode(msg.manifest);
  if (!man_or.is_ok()) return;
  snapshot::SnapshotManifest man = std::move(man_or).value();
  if (man.checkpoint_id <= snap_ckpt_id_) {
    // Already durable here. The completion probe (a fetch at offset ==
    // frag_len) doubles as the leader's ack.
    SnapshotFetchReqMsg ack;
    ack.epoch = cfg_.epoch;
    ack.checkpoint_id = man.checkpoint_id;
    ack.share_idx = man.share_idx;
    ack.offset = man.frag_len;
    ctx_->send(from, MsgType::kSnapshotFetchReq, ack.encode());
    return;
  }
  if (install_.has_value()) return;  // busy; the leader re-offers
  int my_idx = cfg_.index_of(ctx_->id());
  if (my_idx < 0 || man.share_idx != static_cast<uint32_t>(my_idx)) return;
  if (state_ready_) {
    // A live replica only needs its fragment: execution either already
    // covers the barrier or will reach it through the normal commit path
    // (compaction is deferred until it does). Reconstruction is reserved
    // for replicas whose log can no longer connect — catch-up detects that
    // case and starts a full install.
    start_frag_pull(from, std::move(man));
  } else {
    start_install(man.checkpoint_id);
  }
}

void Replica::on_snapshot_fetch_req(NodeId from, SnapshotFetchReqMsg msg) {
  SnapshotFetchRepMsg rep;
  rep.epoch = cfg_.epoch;
  const snapshot::SnapshotManifest* man = nullptr;
  const Bytes* frag = nullptr;
  // The leader's distribution cache can serve *any* member's fragment;
  // kAnyShare maps to our own index so concurrent fetchers always receive
  // distinct fragments from distinct senders.
  if (ckpt_.has_value() && (msg.checkpoint_id == 0 || msg.checkpoint_id == ckpt_->id)) {
    uint32_t want = msg.share_idx;
    if (want == kAnyShare) {
      int my_idx = cfg_.index_of(ctx_->id());
      want = my_idx >= 0 ? static_cast<uint32_t>(my_idx) : 0;
    }
    if (static_cast<size_t>(want) < ckpt_->frags.size()) {
      man = &ckpt_->mans[want];
      frag = &ckpt_->frags[want];
    }
  }
  if (man == nullptr && snap_man_.has_value() && !snap_frag_.empty() &&
      (msg.checkpoint_id == 0 || msg.checkpoint_id == snap_ckpt_id_) &&
      (msg.share_idx == kAnyShare || msg.share_idx == snap_man_->share_idx)) {
    man = &*snap_man_;
    frag = &snap_frag_;
  }
  if (man == nullptr) {
    rep.have = false;
    rep.checkpoint_id = std::max(snap_ckpt_id_, ckpt_.has_value() ? ckpt_->id : 0);
    ctx_->send(from, MsgType::kSnapshotFetchRep, rep.encode());
    return;
  }
  rep.have = true;
  rep.checkpoint_id = man->checkpoint_id;
  rep.share_idx = man->share_idx;
  rep.offset = msg.offset;
  rep.manifest = man->encode();
  if (msg.offset < frag->size()) {
    size_t chunk = std::min(kSnapshotChunkBytes, frag->size() - msg.offset);
    rep.data.assign(frag->begin() + static_cast<ptrdiff_t>(msg.offset),
                    frag->begin() + static_cast<ptrdiff_t>(msg.offset + chunk));
  } else if (ckpt_.has_value() && man->checkpoint_id == ckpt_->id) {
    // Completion probe: the requester holds the whole fragment durably.
    ckpt_->acked.insert(from);
  }
  ctx_->send(from, MsgType::kSnapshotFetchRep, rep.encode());
}

void Replica::start_frag_pull(NodeId leader, snapshot::SnapshotManifest man) {
  PendingInstall ins;
  ins.ckpt_id = man.checkpoint_id;
  ins.pull_only = true;
  ins.pull_from = leader;
  ins.man = std::move(man);
  ins.man_known = true;
  PendingInstall::PeerFetch& pf = ins.peers[leader];
  pf.share_idx = ins.man.share_idx;
  pf.frag_len = ins.man.frag_len;
  pf.man = ins.man;
  install_ = std::move(ins);
  install_tick();
}

void Replica::start_install(uint64_t ckpt_hint) {
  if (install_.has_value()) {
    if (install_->timer != 0) ctx_->cancel_timer(install_->timer);
    install_.reset();
  }
  PendingInstall ins;
  ins.ckpt_id = ckpt_hint;
  // Seed our own durable fragment when its checkpoint matches the target.
  if (snap_man_.has_value() && snap_ckpt_id_ != 0 &&
      (ckpt_hint == 0 || snap_ckpt_id_ == ckpt_hint)) {
    if (ckpt_hint == 0) ins.ckpt_id = snap_ckpt_id_;  // starting guess
    ins.man = *snap_man_;
    ins.man_known = true;
    PendingInstall::PeerFetch& self = ins.peers[ctx_->id()];
    self.share_idx = snap_man_->share_idx;
    self.frag_len = snap_man_->frag_len;
    self.man = *snap_man_;
    self.data = snap_frag_;
    self.done = true;
  }
  install_ = std::move(ins);
  RSP_INFO << "node " << ctx_->id() << " installing snapshot (ckpt "
           << install_->ckpt_id << ", 0=newest)";
  install_tick();
}

void Replica::install_tick() {
  if (!install_.has_value()) return;
  PendingInstall& ins = *install_;
  const ec::EcPolicy* pol = nullptr;
  if (ins.man_known) {
    auto pol_or = ec::PolicyCache::get_checked(
        static_cast<uint8_t>(ins.man.code), ins.man.x, ins.man.n);
    if (!pol_or.is_ok()) {
      // Validated-at-decode manifest with policy-infeasible geometry: a
      // forged or corrupt manifest. Abandon rather than assert.
      RSP_ERROR << "node " << ctx_->id() << " snapshot " << ins.man.checkpoint_id
                << ": bad manifest coding params: " << pol_or.status().to_string();
      if (ins.timer != 0) ctx_->cancel_timer(ins.timer);
      install_.reset();
      return;
    }
    pol = pol_or.value();
  }
  if (ins.man_known && !ins.pull_only) {
    std::set<uint32_t> have;
    for (const auto& [node, pf] : ins.peers) {
      if (pf.done) have.insert(pf.share_idx);
    }
    // Not every x-subset of a non-MDS code's fragments decodes; ask the
    // policy, not a counter.
    std::vector<int> idxs(have.begin(), have.end());
    if (pol->decodable(idxs)) {
      finish_install();
      return;
    }
  }
  // Cheapest-set targeting: once the geometry is known, fetch only the
  // fragments the policy's whole-value plan names (each member serves its
  // own index), honoring peer costs. A tick with no completed fragment
  // widens back to the any-fragment broadcast so dead peers can't stall.
  std::set<int> want;
  bool targeted = false;
  if (ins.man_known && !ins.pull_only && !ins.widened &&
      static_cast<int>(ins.man.n) == cfg_.n()) {
    std::vector<int> live;
    for (int i = 0; i < pol->n(); ++i) live.push_back(i);
    ec::RepairPlan plan =
        pol->plan_repair(ec::RepairPlan::kWholeValue, live, share_costs());
    if (plan.feasible()) {
      targeted = true;
      for (const ec::ShareFetch& f : plan.fetches) want.insert(f.share_idx);
    }
  }
  for (NodeId mem : cfg_.members) {
    if (mem == ctx_->id()) continue;
    if (ins.pull_only && mem != ins.pull_from) continue;
    int midx = cfg_.index_of(mem);
    if (targeted && (midx < 0 || want.count(midx) == 0)) continue;
    PendingInstall::PeerFetch& pf = ins.peers[mem];
    if (pf.done) continue;
    SnapshotFetchReqMsg req;
    req.epoch = cfg_.epoch;
    req.checkpoint_id = ins.ckpt_id;
    req.share_idx = ins.pull_only
                        ? pf.share_idx
                        : (targeted ? static_cast<uint32_t>(midx) : kAnyShare);
    req.offset = pf.data.size();
    ctx_->send(mem, MsgType::kSnapshotFetchReq, req.encode());
  }
  if (ins.timer != 0) ctx_->cancel_timer(ins.timer);
  ins.timer = ctx_->set_timer(opts_.retransmit_interval * 2, [this] {
    if (!install_.has_value()) return;
    install_->timer = 0;
    size_t done = 0;
    for (const auto& [node, pf] : install_->peers) {
      if (pf.done) ++done;
    }
    if (done <= install_->done_last_tick) install_->widened = true;
    install_->done_last_tick = done;
    install_tick();
  });
}

void Replica::on_snapshot_fetch_rep(NodeId from, SnapshotFetchRepMsg msg) {
  if (!install_.has_value()) return;
  PendingInstall& ins = *install_;
  if (!msg.have) {
    if (msg.checkpoint_id > ins.ckpt_id && !ins.pull_only) {
      // The group moved on to a newer checkpoint; restart targeting it.
      start_install(msg.checkpoint_id);
    }
    return;
  }
  auto man_or = snapshot::SnapshotManifest::decode(msg.manifest);
  if (!man_or.is_ok()) return;
  snapshot::SnapshotManifest man = std::move(man_or).value();
  if (ins.ckpt_id == 0) ins.ckpt_id = man.checkpoint_id;
  if (man.checkpoint_id != ins.ckpt_id) {
    if (man.checkpoint_id > ins.ckpt_id && !ins.pull_only) {
      start_install(man.checkpoint_id);
    }
    return;
  }
  if (!ins.man_known) {
    ins.man = man;
    ins.man_known = true;
  }
  PendingInstall::PeerFetch& pf = ins.peers[from];
  if (pf.done) return;
  if (pf.share_idx == kAnyShare) {
    pf.share_idx = man.share_idx;
    pf.frag_len = man.frag_len;
    pf.man = man;
    pf.data.reserve(man.frag_len);
  } else if (pf.share_idx != man.share_idx) {
    return;  // peer switched fragments mid-stream; retry timer resyncs
  }
  if (msg.offset != pf.data.size()) return;  // stale or duplicate chunk
  pf.data.insert(pf.data.end(), msg.data.begin(), msg.data.end());
  if (pf.data.size() >= pf.frag_len) {
    if (crc32c(pf.data) != pf.man.frag_crc) {
      pf.data.clear();  // corrupt transfer; refetch from scratch
      return;
    }
    pf.done = true;
    if (ins.pull_only) {
      // Own fragment complete: ack the leader (completion probe), make it
      // durable, compact once the save commits.
      snapshot::SnapshotManifest mine = std::move(pf.man);
      Bytes frag = std::move(pf.data);
      NodeId leader = ins.pull_from;
      if (ins.timer != 0) ctx_->cancel_timer(ins.timer);
      install_.reset();
      SnapshotFetchReqMsg ack;
      ack.epoch = cfg_.epoch;
      ack.checkpoint_id = mine.checkpoint_id;
      ack.share_idx = mine.share_idx;
      ack.offset = mine.frag_len;
      ctx_->send(leader, MsgType::kSnapshotFetchReq, ack.encode());
      save_own_fragment(std::move(mine), std::move(frag), nullptr);
      return;
    }
    install_tick();  // may complete the fragment set
    return;
  }
  // Stop-and-wait: immediately pull this peer's next chunk.
  SnapshotFetchReqMsg req;
  req.epoch = cfg_.epoch;
  req.checkpoint_id = ins.ckpt_id;
  req.share_idx = ins.pull_only ? pf.share_idx : kAnyShare;
  req.offset = pf.data.size();
  ctx_->send(from, MsgType::kSnapshotFetchReq, req.encode());
}

void Replica::finish_install() {
  PendingInstall ins = std::move(*install_);
  if (ins.timer != 0) ctx_->cancel_timer(ins.timer);
  install_.reset();

  std::map<int, Bytes> input;
  for (auto& [node, pf] : ins.peers) {
    if (pf.done) input.emplace(static_cast<int>(pf.share_idx), std::move(pf.data));
  }
  // Wire-validated policy lookup (no int-narrowing of manifest params);
  // install_tick already vetted the geometry before declaring completion.
  auto code_or = ec::PolicyCache::get_checked(static_cast<uint8_t>(ins.man.code),
                                              ins.man.x, ins.man.n);
  if (!code_or.is_ok()) {
    RSP_ERROR << "node " << ctx_->id() << " snapshot " << ins.man.checkpoint_id
              << ": bad manifest coding params: " << code_or.status().to_string();
    return;
  }
  const ec::EcPolicy& code = *code_or.value();
  auto img = code.decode(input, ins.man.state_len);
  if (!img.is_ok() || crc32c(img.value()) != ins.man.state_crc) {
    RSP_ERROR << "node " << ctx_->id() << " snapshot " << ins.man.checkpoint_id
              << " reconstruction failed"
              << (img.is_ok() ? " (state CRC mismatch)" : ": " + img.status().to_string());
    ctx_->set_timer(opts_.retransmit_interval * 2, [this, id = ins.man.checkpoint_id] {
      if (!install_.has_value()) start_install(id);
    });
    return;
  }
  Bytes image = std::move(img).value();
  const Slot barrier = static_cast<Slot>(ins.man.applied_index);

  // Authoritative CONFIG entries below the barrier were compacted away;
  // the checkpoint carries the config that was current at the cut.
  {
    Reader r(ins.man.config_blob);
    GroupConfig c;
    if (decode_config(r, c).is_ok() && c.epoch > cfg_.epoch) cfg_ = c;
  }
  if (install_state_) install_state_(image, barrier);
  applied_index_ = std::max(applied_index_, barrier);
  commit_index_ = std::max(commit_index_, barrier);
  next_slot_ = std::max(next_slot_, static_cast<Slot>(ins.man.next_slot));
  state_ready_ = true;
  m_.snapshot_installs.inc();
  RSP_INFO << "node " << ctx_->id() << " installed snapshot " << ins.man.checkpoint_id
           << " at barrier " << barrier << " (" << image.size() << "B from "
           << input.size() << " fragments)";

  int my_idx = cfg_.index_of(ctx_->id());
  if (snap_store_ != nullptr && my_idx >= 0 && ins.man.checkpoint_id > snap_ckpt_id_) {
    // Re-encode our own fragment from the reconstructed image and persist it,
    // then compact the WAL below the barrier (save_own_fragment does both).
    snapshot::SnapshotManifest mine = ins.man;
    mine.share_idx = static_cast<uint32_t>(my_idx);
    Bytes frag = code.encode_share(image, my_idx);
    mine.frag_len = frag.size();
    mine.frag_crc = crc32c(frag);
    save_own_fragment(std::move(mine), std::move(frag), nullptr);
  } else if (snap_applied_ < barrier) {
    compact_log_below(barrier, ins.man.checkpoint_id);
  }
  try_apply();
  maybe_request_catchup();
}

}  // namespace rspaxos::consensus
