#include "consensus/single.h"

#include <algorithm>

#include "ec/policy.h"
#include "util/logging.h"

namespace rspaxos::consensus {

StatusOr<Phase1Choice> choose_phase1_value(const std::vector<PromiseEntry>& entries) {
  // Group by value id, remembering each vid's highest accepted ballot and the
  // distinct share indices seen.
  struct Candidate {
    Ballot best_ballot;
    std::map<int, const CodedShare*> shares;  // share_idx -> share
    const CodedShare* any = nullptr;
  };
  std::map<ValueId, Candidate> by_vid;
  for (const PromiseEntry& e : entries) {
    if (e.accepted_ballot.is_null()) continue;
    Candidate& c = by_vid[e.share.vid];
    c.best_ballot = std::max(c.best_ballot, e.accepted_ballot);
    c.shares.emplace(static_cast<int>(e.share.share_idx), &e.share);
    c.any = &e.share;
  }
  // Order candidates by highest ballot, descending.
  std::vector<std::pair<Ballot, ValueId>> order;
  order.reserve(by_vid.size());
  for (const auto& [vid, c] : by_vid) order.emplace_back(c.best_ballot, vid);
  std::sort(order.begin(), order.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  for (const auto& [ballot, vid] : order) {
    const Candidate& c = by_vid[vid];
    // Validate the wire coding params before any cache lookup: a corrupt
    // promise entry yields a Status, not an assert.
    auto pol = ec::PolicyCache::get_checked(static_cast<uint8_t>(c.any->code),
                                            c.any->x, c.any->n);
    if (!pol.is_ok()) return pol.status();
    const ec::EcPolicy& code = *pol.value();
    std::vector<int> have;
    have.reserve(c.shares.size());
    for (const auto& [idx, share] : c.shares) have.push_back(idx);
    if (!code.decodable(have)) continue;  // not recoverable
    // Decode the payload from the shares.
    std::map<int, Bytes> input;
    for (const auto& [idx, share] : c.shares) {
      input.emplace(idx, Bytes(share->data.begin(), share->data.end()));
    }
    auto payload = code.decode(input, c.any->value_len);
    if (!payload.is_ok()) return payload.status();
    Phase1Choice choice;
    choice.bound = Phase1Choice::Bound{vid, c.any->kind, c.any->header,
                                       std::move(payload).value()};
    return choice;
  }
  return Phase1Choice{};  // free choice
}

namespace {

// Acceptor WAL record: slot | promised | accepted | share-if-any.
Bytes encode_slot_record(Slot s, const SingleAcceptor::SlotState& st) {
  Writer w(64 + st.share.header.size() + st.share.data.size());
  w.varint(s);
  encode_ballot(w, st.promised);
  encode_ballot(w, st.accepted);
  if (!st.accepted.is_null()) encode_share(w, st.share);
  return w.take();
}

Status decode_slot_record(BytesView b, Slot& s, SingleAcceptor::SlotState& st) {
  Reader r(b);
  RSP_RETURN_IF_ERROR(r.varint(s));
  RSP_RETURN_IF_ERROR(decode_ballot(r, st.promised));
  RSP_RETURN_IF_ERROR(decode_ballot(r, st.accepted));
  if (!st.accepted.is_null()) RSP_RETURN_IF_ERROR(decode_share(r, st.share));
  return Status::ok();
}

}  // namespace

void SingleAcceptor::on_prepare(const PrepareMsg& msg, std::function<void(PromiseMsg)> reply) {
  SlotState& st = slots_[msg.start_slot];
  PromiseMsg out;
  out.epoch = msg.epoch;
  out.ballot = msg.ballot;
  out.start_slot = msg.start_slot;
  if (msg.ballot <= st.promised) {
    // Reject without persisting (no state change). A reject can be sent
    // immediately; it carries the blocking ballot for back-off.
    out.ok = false;
    out.promised = st.promised;
    reply(std::move(out));
    return;
  }
  st.promised = msg.ballot;
  out.ok = true;
  out.promised = st.promised;
  if (!st.accepted.is_null()) {
    out.entries.push_back(PromiseEntry{msg.start_slot, st.accepted, st.share});
  }
  persist(msg.start_slot, st, [reply = std::move(reply), out = std::move(out)]() mutable {
    reply(std::move(out));
  });
}

void SingleAcceptor::on_accept(const AcceptMsg& msg, std::function<void(AcceptedMsg)> reply) {
  SlotState& st = slots_[msg.slot];
  AcceptedMsg out;
  out.epoch = msg.epoch;
  out.ballot = msg.ballot;
  out.slot = msg.slot;
  // §3.2 2(b): accept unless already promised to a strictly greater ballot.
  if (msg.ballot < st.promised) {
    out.ok = false;
    out.promised = st.promised;
    reply(std::move(out));
    return;
  }
  st.promised = msg.ballot;
  st.accepted = msg.ballot;
  st.share = msg.share;
  out.ok = true;
  out.promised = st.promised;
  persist(msg.slot, st, [reply = std::move(reply), out = std::move(out)]() mutable {
    reply(std::move(out));
  });
}

const SingleAcceptor::SlotState* SingleAcceptor::slot_state(Slot s) const {
  auto it = slots_.find(s);
  return it == slots_.end() ? nullptr : &it->second;
}

void SingleAcceptor::restore_from_wal() {
  slots_.clear();
  wal_->replay([this](BytesView rec, storage::WalPos) {
    Slot s;
    SlotState st;
    if (decode_slot_record(rec, s, st).is_ok()) {
      slots_[s] = std::move(st);  // later records supersede earlier ones
    }
  });
}

void SingleAcceptor::persist(Slot s, const SlotState& st, std::function<void()> then) {
  wal_->append(encode_slot_record(s, st),
               [then = std::move(then)](Status status, storage::WalPos) {
                 if (status.is_ok()) then();
                 // On a storage failure the reply is simply never sent — the
                 // proposer retransmits, matching the lossy-message model.
               });
}

SingleProposer::SingleProposer(NodeContext* ctx, GroupConfig cfg, Options opts)
    : ctx_(ctx), cfg_(std::move(cfg)), opts_(opts) {}

SingleProposer::SingleProposer(NodeContext* ctx, GroupConfig cfg)
    : SingleProposer(ctx, std::move(cfg), Options{}) {}

void SingleProposer::propose(Bytes header, Bytes payload, DecideFn on_decide) {
  my_header_ = std::move(header);
  my_payload_ = std::move(payload);
  on_decide_ = std::move(on_decide);
  my_vid_ = ValueId{ctx_->id(), (static_cast<uint64_t>(ctx_->now()) << 8) ^ ctx_->id()};
  start_round();
}

void SingleProposer::start_round() {
  if (++rounds_used_ > opts_.max_rounds) {
    phase_ = Phase::kDone;
    if (on_decide_) on_decide_(Status::timeout("max rounds exhausted"));
    return;
  }
  round_++;
  ballot_ = Ballot{round_, ctx_->id()};
  promises_.clear();
  accept_acks_.clear();
  phase_ = Phase::kPrepare;
  send_prepares();
  arm_retransmit();
}

void SingleProposer::send_prepares() {
  PrepareMsg msg;
  msg.epoch = cfg_.epoch;
  msg.ballot = ballot_;
  msg.start_slot = opts_.slot;
  Bytes enc = msg.encode();
  for (NodeId a : cfg_.members) ctx_->send(a, MsgType::kPrepare, enc);
}

void SingleProposer::begin_phase2(Phase1Choice choice) {
  phase_ = Phase::kAccept;
  if (choice.bound.has_value()) {
    active_vid_ = choice.bound->vid;
    active_kind_ = choice.bound->kind;
    active_header_ = std::move(choice.bound->header);
    active_payload_ = std::move(choice.bound->payload);
  } else {
    active_vid_ = my_vid_;
    active_kind_ = EntryKind::kNormal;
    active_header_ = my_header_;
    active_payload_ = my_payload_;
  }
  const ec::EcPolicy& code = ec::PolicyCache::get(cfg_.code, cfg_.x, cfg_.n());
  active_shares_ = code.encode(active_payload_);
  send_accepts();
  arm_retransmit();
}

void SingleProposer::send_accepts() {
  for (int i = 0; i < cfg_.n(); ++i) {
    NodeId a = cfg_.members[static_cast<size_t>(i)];
    if (accept_acks_.count(a)) continue;  // already acknowledged
    AcceptMsg msg;
    msg.epoch = cfg_.epoch;
    msg.ballot = ballot_;
    msg.slot = opts_.slot;
    msg.share.vid = active_vid_;
    msg.share.kind = active_kind_;
    msg.share.code = cfg_.code;
    msg.share.share_idx = static_cast<uint32_t>(i);
    msg.share.x = static_cast<uint32_t>(cfg_.x);
    msg.share.n = static_cast<uint32_t>(cfg_.n());
    msg.share.value_len = active_payload_.size();
    msg.share.header = active_header_;
    msg.share.data = active_shares_[static_cast<size_t>(i)];
    ctx_->send(a, MsgType::kAccept, msg.encode());
  }
}

void SingleProposer::arm_retransmit() {
  if (retransmit_timer_ != 0) ctx_->cancel_timer(retransmit_timer_);
  retransmit_timer_ = ctx_->set_timer(opts_.retransmit_interval, [this] {
    retransmit_timer_ = 0;
    if (phase_ == Phase::kPrepare) {
      send_prepares();
      arm_retransmit();
    } else if (phase_ == Phase::kAccept) {
      send_accepts();
      arm_retransmit();
    }
  });
}

void SingleProposer::on_message(NodeId from, MsgType type, BytesView payload) {
  if (phase_ == Phase::kDone || phase_ == Phase::kIdle) return;
  switch (type) {
    case MsgType::kPromise: {
      auto m = PromiseMsg::decode(payload);
      if (!m.is_ok() || phase_ != Phase::kPrepare) return;
      PromiseMsg& msg = m.value();
      if (msg.ballot != ballot_) return;  // stale round
      if (!msg.ok) {
        // Preempted: adopt a higher round and retry (livelock is accepted;
        // Multi-Paxos avoids it with a distinguished proposer).
        round_ = std::max(round_, msg.promised.round);
        start_round();
        return;
      }
      promises_[from] = std::move(msg);
      if (static_cast<int>(promises_.size()) == cfg_.qr) {
        std::vector<PromiseEntry> entries;
        for (const auto& [node, p] : promises_) {
          for (const PromiseEntry& e : p.entries) entries.push_back(e);
        }
        auto choice = choose_phase1_value(entries);
        if (!choice.is_ok()) {
          RSP_ERROR << "phase1 decode failed: " << choice.status().to_string();
          start_round();
          return;
        }
        begin_phase2(std::move(choice).value());
      }
      return;
    }
    case MsgType::kAccepted: {
      auto m = AcceptedMsg::decode(payload);
      if (!m.is_ok() || phase_ != Phase::kAccept) return;
      AcceptedMsg& msg = m.value();
      if (msg.ballot != ballot_) return;
      if (!msg.ok) {
        round_ = std::max(round_, msg.promised.round);
        start_round();
        return;
      }
      accept_acks_[from] = true;
      if (static_cast<int>(accept_acks_.size()) == cfg_.qw) {
        phase_ = Phase::kDone;
        if (retransmit_timer_ != 0) ctx_->cancel_timer(retransmit_timer_);
        decided_ = active_vid_;
        if (on_decide_) on_decide_(active_vid_);
      }
      return;
    }
    default:
      return;
  }
}

}  // namespace rspaxos::consensus
