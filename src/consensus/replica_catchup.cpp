// Replica catch-up and recovery-read paths (§2.1 learning, §4.4 recovery).
//
// A lagging learner pulls missing committed entries from the leader; entries
// whose payload the leader no longer caches are re-gathered from the group's
// coded shares. Two share-gathering machines live here:
//
//  - PendingRecovery (recover_payload): reconstructs the WHOLE value — the
//    paper's recovery read. With the policy layer it first fetches only the
//    cheapest decodable share set (EcPolicy::plan_repair with kWholeValue)
//    among the members a leader does not suspect (DESIGN.md §17), widening
//    to the historical full broadcast on retry.
//  - PendingRepair (start_share_repair): rebuilds ONE share — the catch-up
//    requester's — via the policy's repair plan. Under lrc that reads only
//    the local group; under hh it fetches sub-masked half-shares, so the
//    repair moves strictly fewer bytes than any X-of-N whole-value decode.
//
// Split out of replica.cpp; see replica_internal.h.
#include <algorithm>
#include <bit>
#include <cassert>

#include "consensus/replica.h"
#include "consensus/replica_internal.h"
#include "net/frame.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace rspaxos::consensus {
namespace {

/// Extracts the sub-stripes named by `mask` (ascending bit order — the
/// concatenation EcPolicy::run_repair expects) from a full share image.
Bytes slice_sub_shares(BytesView data, int s, size_t sub, uint32_t mask) {
  Bytes out;
  out.reserve(static_cast<size_t>(std::popcount(mask)) * sub);
  for (int j = 0; j < s; ++j) {
    if (!((mask >> j) & 1u)) continue;
    size_t off = std::min(data.size(), static_cast<size_t>(j) * sub);
    size_t end = std::min(data.size(), off + sub);
    out.insert(out.end(), data.begin() + static_cast<ptrdiff_t>(off),
               data.begin() + static_cast<ptrdiff_t>(end));
  }
  return out;
}

}  // namespace

void Replica::maybe_request_catchup() {
  if (catchup_in_flight_ || applied_index_ >= commit_index_) return;
  NodeId target = leader_hint();
  if (target == kNoNode || target == ctx_->id()) return;
  // First missing-or-uncommitted slot range.
  Slot lo = applied_index_ + 1;
  Slot hi = std::min(commit_index_, lo + 63);  // bounded batches
  CatchupReqMsg req;
  req.epoch = cfg_.epoch;
  req.from_slot = lo;
  req.to_slot = hi;
  catchup_in_flight_ = true;
  ctx_->send(target, MsgType::kCatchupReq, req.encode());
  ctx_->set_timer(opts_.retransmit_interval * 2, [this] { catchup_in_flight_ = false; });
}

void Replica::on_catchup_req(NodeId from, CatchupReqMsg msg) {
  serve_catchup(from, msg.from_slot, msg.to_slot);
}

std::vector<double> Replica::share_costs() const {
  std::vector<double> cost(static_cast<size_t>(cfg_.n()), 1.0);
  int self = cfg_.index_of(ctx_->id());
  if (self >= 0) cost[static_cast<size_t>(self)] = 0.0;  // local share is free
  return cost;
}

void Replica::serve_catchup(NodeId to, Slot from_slot, Slot to_slot) {
  CatchupRepMsg rep;
  rep.epoch = cfg_.epoch;
  rep.commit_index = commit_index_;
  rep.log_start = snap_applied_ + 1;
  int to_idx = cfg_.index_of(to);
  if (to_idx < 0) {
    ctx_->send(to, MsgType::kCatchupRep, rep.encode());
    return;
  }
  to_slot = std::min(to_slot, commit_index_);
  from_slot = std::max(from_slot, rep.log_start);  // compacted slots can't be served
  std::vector<Slot> need_repair;
  for (Slot s = from_slot; s <= to_slot; ++s) {
    auto it = log_.find(s);
    if (it == log_.end() || !it->second.committed) continue;
    LogEntry& e = it->second;
    CatchupEntry ce;
    ce.slot = s;
    ce.ballot = e.accepted;
    ce.share = e.share;  // copies metadata + header; shares the data buffer
    ce.share.share_idx = static_cast<uint32_t>(to_idx);
    const SharedBytes* value = e.full_payload();
    if (value == nullptr) {
      need_repair.push_back(s);
      continue;
    }
    if (!e.share.full_copy()) {
      // "The leader needs to re-code the data and send the corresponding
      // fragment to the recovering server" (§4.5). Validate the persisted
      // coding params before touching the (asserting) cache: a corrupt WAL
      // record yields a skipped entry, not a crash. (In full-copy mode the
      // share already is the value, for every index.)
      auto pol = ec::PolicyCache::get_checked(static_cast<uint8_t>(e.share.code),
                                              e.share.x, e.share.n);
      if (!pol.is_ok()) {
        RSP_ERROR << "catch-up slot " << s
                  << ": bad share coding params: " << pol.status().to_string();
        continue;
      }
      ce.share.data = pol.value()->encode_share(*value, to_idx);
    }
    m_.catchup_entries_served.inc();
    m_.catchup_bytes.inc(ce.share.header.size() + ce.share.data.size());
    rep.entries.push_back(std::move(ce));
  }
  ctx_->send(to, MsgType::kCatchupRep, rep.encode());
  // Rebuild just the requester's share for what we could not serve: the
  // policy's repair plan fetches the cheapest sub-share set (local group /
  // piggyback halves) and the repaired entry is pushed as its own catch-up
  // reply. Falls back to whole-value recovery when no plan is feasible.
  for (Slot s : need_repair) start_share_repair(s, to, to_idx);
}

void Replica::on_catchup_rep(NodeId from, CatchupRepMsg msg) {
  (void)from;
  catchup_in_flight_ = false;
  if (msg.log_start > applied_index_ + 1 && snap_store_ != nullptr &&
      !install_.has_value()) {
    // Our gap predates the responder's log: slot-by-slot catch-up can never
    // close it (the prefix was compacted into a snapshot). Reconstruct the
    // state image instead; the entries below still persist normally.
    RSP_INFO << "node " << ctx_->id() << " gap below responder log_start "
             << msg.log_start << " (applied " << applied_index_
             << "): installing snapshot";
    start_install(0);
  }
  if (msg.config.has_value() && msg.config->epoch > cfg_.epoch) {
    // Advisory only (the authoritative switch is the CONFIG log entry):
    // use it to find the current membership for routing.
    leader_ = kNoNode;
  }
  for (CatchupEntry& ce : msg.entries) {
    LogEntry& e = log_[ce.slot];
    if (e.applied) continue;
    if (e.share.vid != ce.share.vid) e.payload.clear();
    e.accepted = ce.ballot;
    replace_share(e, std::move(ce.share));
    e.durable = false;
    e.wal_pos = {};
    e.committed = true;
    persist_slot(ce.slot, nullptr);
  }
  advance_commit_index(std::max(commit_index_, msg.commit_index));
  if (applied_index_ < commit_index_) maybe_request_catchup();
}

// ---------------------------------------------------------------------------
// Recovery read support (§4.4): gather a decodable share set, decode.
// ---------------------------------------------------------------------------

void Replica::recover_payload(Slot slot, RecoverFn cb) {
  auto lit = log_.find(slot);
  if (lit != log_.end() && lit->second.full_payload() != nullptr) {
    if (cb) cb(*lit->second.full_payload());
    return;
  }
  if (slot <= snap_applied_ && lit == log_.end()) {
    // Compacted: the slot's effect lives only in the snapshot image now; no
    // quorum of shares exists to decode. Fail fast instead of retrying.
    if (cb) cb(Status::not_found("slot compacted into snapshot"));
    return;
  }
  PendingRecovery& rec = recoveries_[slot];
  if (cb) rec.cbs.push_back(std::move(cb));
  if (rec.retry_timer != 0) return;  // fetch already in flight

  m_.recoveries.inc();
  if (lit != log_.end() && lit->second.committed) {
    const CodedShare& own = lit->second.share;  // metadata outlives eviction
    rec.vid = own.vid;
    rec.vid_known = true;
    rec.x = own.x;
    rec.n = own.n;
    rec.code = own.code;
    rec.value_len = own.value_len;
    auto data = own_share(slot, lit->second);
    if (data.is_ok()) {
      rec.shares[static_cast<int>(own.share_idx)] =
          Bytes(data.value().data.begin(), data.value().data.end());
    } else {
      RSP_ERROR << "node " << ctx_->id() << " recovery of slot " << slot
                << " without its own share: " << data.status().to_string();
    }
  }
  FetchShareReqMsg req;
  req.epoch = cfg_.epoch;
  req.slot = slot;
  SharedBytes enc = req.encode();  // one buffer for every peer
  // First pass: fetch only the cheapest decodable set the policy plans from
  // the members a leader does not suspect (the local share is free, every
  // peer's costs the same). Widen to the historical full-membership
  // broadcast once a retry fires, or whenever the plan cannot be mapped onto
  // the current membership.
  bool targeted = false;
  if (!rec.widened && rec.vid_known && static_cast<int>(rec.n) == cfg_.n()) {
    auto pol = ec::PolicyCache::get_checked(static_cast<uint8_t>(rec.code),
                                            rec.x, rec.n);
    if (pol.is_ok()) {
      std::vector<int> live;
      for (int i = 0; i < cfg_.n(); ++i) {
        if (!suspected(cfg_.members[static_cast<size_t>(i)])) live.push_back(i);
      }
      ec::RepairPlan plan = pol.value()->plan_repair(ec::RepairPlan::kWholeValue,
                                                     live, share_costs());
      if (plan.feasible()) {
        targeted = true;
        for (const ec::ShareFetch& f : plan.fetches) {
          if (f.share_idx < 0 || f.share_idx >= cfg_.n()) continue;
          NodeId m = cfg_.members[static_cast<size_t>(f.share_idx)];
          if (m == ctx_->id() || rec.shares.count(f.share_idx)) continue;
          ctx_->send(m, MsgType::kFetchShareReq, enc);
        }
      }
    }
  }
  if (!targeted) {
    for (NodeId m : cfg_.members) {
      if (m != ctx_->id()) ctx_->send(m, MsgType::kFetchShareReq, enc);
    }
  }
  rec.retry_timer = ctx_->set_timer(opts_.retransmit_interval, [this, slot] {
    auto it = recoveries_.find(slot);
    if (it == recoveries_.end()) return;
    it->second.retry_timer = 0;
    it->second.widened = true;  // planned peers didn't all answer; ask everyone
    recover_payload(slot, nullptr);  // re-broadcast fetches
  });
}

void Replica::on_fetch_share_req(NodeId from, FetchShareReqMsg msg) {
  FetchShareRepMsg rep;
  rep.epoch = cfg_.epoch;
  rep.slot = msg.slot;
  auto it = log_.find(msg.slot);
  StatusOr<CodedShare> own = Status::not_found("slot not accepted here");
  if (it != log_.end() && !it->second.accepted.is_null()) {
    own = own_share(msg.slot, it->second);
    if (!own.is_ok()) {
      RSP_ERROR << "node " << ctx_->id() << " cannot serve share of slot " << msg.slot
                << ": " << own.status().to_string();
    }
  }
  if (own.is_ok()) {
    rep.have = true;
    rep.committed = it->second.committed;
    rep.accepted_ballot = it->second.accepted;
    rep.share = std::move(own).value();
    rep.share.header.clear();  // header not needed for payload recovery
    if (msg.sub_mask != 0) {
      // Sub-share request (hh repair plans): serve only the masked
      // sub-stripes. Any mismatch — unknown code, truncated share, mask out
      // of range — degrades to the full share (sub_mask 0), which is always
      // a superset of what was asked.
      auto pol = ec::PolicyCache::get_checked(static_cast<uint8_t>(rep.share.code),
                                              rep.share.x, rep.share.n);
      if (pol.is_ok()) {
        const ec::EcPolicy& p = *pol.value();
        const uint32_t full = (1u << p.sub_shares()) - 1;
        const uint32_t mask = msg.sub_mask & full;
        if (mask != 0 && mask != full &&
            rep.share.data.size() == p.share_size(rep.share.value_len)) {
          rep.share.data = slice_sub_shares(rep.share.data, p.sub_shares(),
                                            p.sub_size(rep.share.value_len), mask);
          rep.sub_mask = mask;
        }
      }
    }
  }
  ctx_->send(from, MsgType::kFetchShareRep, rep.encode());
}

void Replica::on_fetch_share_rep(NodeId from, FetchShareRepMsg msg) {
  (void)from;
  if (msg.have) m_.repair_bytes.inc(msg.share.data.size());
  if (absorb_repair_rep(msg)) return;
  if (msg.sub_mask != 0) return;  // partial share: only repairs consume these
  auto rit = recoveries_.find(msg.slot);
  if (rit == recoveries_.end()) return;
  PendingRecovery& rec = rit->second;
  if (!msg.have) return;
  // Pin the value id: a committed report is authoritative (Proposition 1 —
  // later rounds can only carry the chosen value, so all committed shares of
  // a slot agree on vid). Without one, tentatively chase the first vid seen;
  // a later committed report overrides it.
  if (msg.committed && !rec.vid_known) {
    if (rec.vid != msg.share.vid) rec.shares.clear();
    rec.vid = msg.share.vid;
    rec.vid_known = true;
  } else if (!rec.vid_known && rec.shares.empty()) {
    rec.vid = msg.share.vid;
  }
  if (msg.share.vid != rec.vid) return;
  if (msg.share.share_idx >= msg.share.n) return;  // corrupt share record
  rec.x = msg.share.x;
  rec.n = msg.share.n;
  rec.code = msg.share.code;
  rec.value_len = msg.share.value_len;
  rec.shares[static_cast<int>(msg.share.share_idx)] =
      Bytes(msg.share.data.begin(), msg.share.data.end());

  // Validate the wire coding params once, before any decode: corrupt values
  // fail the waiters with a Status instead of asserting in a codec cache.
  auto pol_or =
      ec::PolicyCache::get_checked(static_cast<uint8_t>(rec.code), rec.x, rec.n);
  Slot slot = msg.slot;
  if (pol_or.is_ok()) {
    const ec::EcPolicy& pol = *pol_or.value();
    std::vector<int> have;
    have.reserve(rec.shares.size());
    for (const auto& [idx, data] : rec.shares) have.push_back(idx);
    // Count-based gating is wrong for non-MDS codes (lrc): ask the policy.
    if (!pol.decodable(have)) return;
  }
  StatusOr<Bytes> payload = pol_or.is_ok()
                                ? pol_or.value()->decode(rec.shares, rec.value_len)
                                : StatusOr<Bytes>(pol_or.status());
  std::vector<RecoverFn> cbs = std::move(rec.cbs);
  const ValueId vid = rec.vid;
  if (rec.retry_timer != 0) ctx_->cancel_timer(rec.retry_timer);
  recoveries_.erase(rit);
  if (!payload.is_ok()) {
    for (auto& cb : cbs) {
      if (cb) cb(payload.status());
    }
    return;
  }
  SharedBytes value(std::move(payload).value());
  // Cache for catch-up — but only above the GC floor: at or below it
  // maybe_drop_old_payloads never looks again, so a cached value there
  // would stay pinned until restart. Full-copy entries never cache (the
  // share is the value; if it is gone, it was evicted on purpose).
  auto lit = log_.find(slot);
  if (lit != log_.end() && slot > gc_floor_ && !lit->second.share.full_copy() &&
      lit->second.share.vid == vid) {
    lit->second.payload = value;
  }
  for (auto& cb : cbs) {
    if (cb) cb(value);
  }
}

// ---------------------------------------------------------------------------
// Single-share repair (DESIGN.md §13): rebuild exactly the catch-up
// requester's share from the policy's cheapest plan.
// ---------------------------------------------------------------------------

void Replica::start_share_repair(Slot slot, NodeId requester, int target) {
  auto lit = log_.find(slot);
  if (lit == log_.end() || !lit->second.committed) return;
  LogEntry& e = lit->second;
  auto rit = repairs_.find(slot);
  if (rit != repairs_.end()) {
    // One repair per slot. A second requester (or target) falls back to
    // whole-value recovery, which caches the payload for their retry.
    if (rit->second.requester != requester || rit->second.target != target) {
      recover_payload(slot, nullptr);
    }
    return;
  }
  if (static_cast<int>(e.share.n) != cfg_.n()) {
    // Entry coded under an older membership: the share->member mapping no
    // longer lines up. Whole-value recovery handles it.
    recover_payload(slot, nullptr);
    return;
  }
  auto pol_or = ec::PolicyCache::get_checked(static_cast<uint8_t>(e.share.code),
                                             e.share.x, e.share.n);
  if (!pol_or.is_ok()) {
    RSP_ERROR << "share repair slot " << slot
              << ": bad coding params: " << pol_or.status().to_string();
    return;
  }
  const ec::EcPolicy& pol = *pol_or.value();
  if (target < 0 || target >= pol.n()) return;

  const int my_idx = cfg_.index_of(ctx_->id());
  StatusOr<CodedShare> own = Status::not_found("not a member");
  if (my_idx >= 0 && static_cast<uint32_t>(my_idx) == e.share.share_idx) {
    own = own_share(slot, e);
  }
  const bool own_usable =
      own.is_ok() && own.value().data.size() == pol.share_size(e.share.value_len);
  std::vector<int> live;
  for (int i = 0; i < pol.n(); ++i) {
    if (i == my_idx && !own_usable) continue;  // our copy is unreadable
    if (suspected(cfg_.members[static_cast<size_t>(i)])) continue;  // would not answer
    live.push_back(i);
  }
  ec::RepairPlan plan = pol.plan_repair(target, live, share_costs());
  if (!plan.feasible()) {
    recover_payload(slot, nullptr);
    return;
  }

  PendingRepair pr;
  pr.vid = e.share.vid;
  pr.ballot = e.accepted;
  pr.x = e.share.x;
  pr.n = e.share.n;
  pr.code = e.share.code;
  pr.value_len = e.share.value_len;
  pr.kind = e.share.kind;
  pr.header = e.share.header;
  pr.requester = requester;
  pr.target = target;
  pr.plan = plan;
  const uint32_t full = (1u << pol.sub_shares()) - 1;
  const size_t sub = pol.sub_size(e.share.value_len);
  for (const ec::ShareFetch& f : plan.fetches) {
    if (f.share_idx == my_idx && own_usable) {
      pr.fetched[f.share_idx] =
          slice_sub_shares(own.value().data, pol.sub_shares(), sub, f.sub_mask);
    }
  }
  PendingRepair& rep = repairs_[slot] = std::move(pr);
  if (rep.fetched.size() == rep.plan.fetches.size()) {
    finish_share_repair(slot);
    return;
  }
  for (const ec::ShareFetch& f : rep.plan.fetches) {
    if (rep.fetched.count(f.share_idx)) continue;
    FetchShareReqMsg req;
    req.epoch = cfg_.epoch;
    req.slot = slot;
    // Full-share fetches stay byte-identical to pre-policy requests.
    req.sub_mask = (f.sub_mask == full) ? 0u : f.sub_mask;
    ctx_->send(cfg_.members[static_cast<size_t>(f.share_idx)],
               MsgType::kFetchShareReq, req.encode());
  }
  rep.retry_timer = ctx_->set_timer(opts_.retransmit_interval * 2, [this, slot] {
    // A planned peer never answered: abandon the targeted repair and let
    // whole-value recovery (which retries by broadcast) close the gap.
    auto rit2 = repairs_.find(slot);
    if (rit2 != repairs_.end()) rit2->second.retry_timer = 0;
    abort_share_repair(slot);
  });
}

bool Replica::absorb_repair_rep(const FetchShareRepMsg& msg) {
  auto it = repairs_.find(msg.slot);
  if (it == repairs_.end()) return false;
  PendingRepair& pr = it->second;
  if (!msg.have || msg.share.vid != pr.vid) return false;
  const int idx = static_cast<int>(msg.share.share_idx);
  const ec::ShareFetch* want = nullptr;
  for (const ec::ShareFetch& f : pr.plan.fetches) {
    if (f.share_idx == idx) {
      want = &f;
      break;
    }
  }
  if (want == nullptr || pr.fetched.count(idx) != 0) return false;
  auto pol_or = ec::PolicyCache::get_checked(static_cast<uint8_t>(pr.code),
                                             pr.x, pr.n);
  if (!pol_or.is_ok()) return false;
  const ec::EcPolicy& pol = *pol_or.value();
  const uint32_t full = (1u << pol.sub_shares()) - 1;
  const size_t sub = pol.sub_size(pr.value_len);
  const uint32_t wire_want = (want->sub_mask == full) ? 0u : want->sub_mask;
  Bytes data;
  if (msg.sub_mask == wire_want || msg.sub_mask == want->sub_mask) {
    data.assign(msg.share.data.begin(), msg.share.data.end());  // exactly the plan's sub-shares
  } else if (msg.sub_mask == 0 &&
             msg.share.data.size() == pol.share_size(pr.value_len)) {
    // Responder sent the whole share (e.g. it predates sub-masking); cut out
    // what the plan needs.
    data = slice_sub_shares(msg.share.data, pol.sub_shares(), sub, want->sub_mask);
  } else {
    return false;
  }
  pr.fetched[idx] = std::move(data);
  if (pr.fetched.size() == pr.plan.fetches.size()) finish_share_repair(msg.slot);
  return true;
}

void Replica::finish_share_repair(Slot slot) {
  auto it = repairs_.find(slot);
  if (it == repairs_.end()) return;
  PendingRepair pr = std::move(it->second);
  if (pr.retry_timer != 0) ctx_->cancel_timer(pr.retry_timer);
  repairs_.erase(it);
  auto pol_or = ec::PolicyCache::get_checked(static_cast<uint8_t>(pr.code),
                                             pr.x, pr.n);
  if (!pol_or.is_ok()) return;
  auto rebuilt = pol_or.value()->run_repair(pr.plan, pr.fetched, pr.value_len);
  if (!rebuilt.is_ok()) {
    RSP_ERROR << "share repair slot " << slot
              << " failed: " << rebuilt.status().to_string();
    recover_payload(slot, nullptr);
    return;
  }
  CatchupRepMsg rep;
  rep.epoch = cfg_.epoch;
  rep.commit_index = commit_index_;
  rep.log_start = snap_applied_ + 1;
  CatchupEntry ce;
  ce.slot = slot;
  ce.ballot = pr.ballot;
  ce.share.vid = pr.vid;
  ce.share.kind = pr.kind;
  ce.share.code = pr.code;
  ce.share.share_idx = static_cast<uint32_t>(pr.target);
  ce.share.x = pr.x;
  ce.share.n = pr.n;
  ce.share.value_len = pr.value_len;
  ce.share.header = std::move(pr.header);
  ce.share.data = std::move(rebuilt).value();
  m_.catchup_entries_served.inc();
  m_.catchup_bytes.inc(ce.share.header.size() + ce.share.data.size());
  rep.entries.push_back(std::move(ce));
  ctx_->send(pr.requester, MsgType::kCatchupRep, rep.encode());
}

void Replica::abort_share_repair(Slot slot) {
  auto it = repairs_.find(slot);
  if (it == repairs_.end()) return;
  if (it->second.retry_timer != 0) ctx_->cancel_timer(it->second.retry_timer);
  repairs_.erase(it);
  recover_payload(slot, nullptr);
}

}  // namespace rspaxos::consensus
