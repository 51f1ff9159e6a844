#include "consensus/msg.h"

namespace rspaxos::consensus {

void encode_ballot(Writer& w, const Ballot& b) {
  w.u32(b.round);
  w.u32(b.node);
}

Status decode_ballot(Reader& r, Ballot& b) {
  RSP_RETURN_IF_ERROR(r.u32(b.round));
  RSP_RETURN_IF_ERROR(r.u32(b.node));
  return Status::ok();
}

void encode_value_id(Writer& w, const ValueId& v) {
  w.u32(v.origin);
  w.u64(v.seq);
}

Status decode_value_id(Reader& r, ValueId& v) {
  RSP_RETURN_IF_ERROR(r.u32(v.origin));
  RSP_RETURN_IF_ERROR(r.u64(v.seq));
  return Status::ok();
}

namespace {

/// Everything of a share except the trailing data blob (shared between the
/// regular encoder and the zero-copy accept-frame builder).
void encode_share_meta(Writer& w, const CodedShare& s) {
  encode_value_id(w, s.vid);
  // Kind byte doubles as the code-id carrier (high nibble). rs == 0 keeps
  // the byte — and therefore the whole frame and WAL record — identical to
  // the pre-policy format; pre-policy decoders reject non-rs shares as a
  // bad entry kind instead of mis-decoding them.
  w.u8(static_cast<uint8_t>(s.kind) |
       static_cast<uint8_t>(static_cast<uint8_t>(s.code) << 4));
  w.varint(s.share_idx);
  w.varint(s.x);
  w.varint(s.n);
  w.varint(s.value_len);
  w.bytes(s.header);
}

}  // namespace

void encode_share_head(Writer& w, const CodedShare& s) {
  encode_share_meta(w, s);
  w.varint(s.data.size());
}

void encode_share(Writer& w, const CodedShare& s) {
  encode_share_head(w, s);
  w.raw(s.data);
}

size_t share_wire_size(const CodedShare& s) {
  // vid(12) + kind(1) + 4 varints(<=10 each) + 2 length prefixes(<=5 each).
  return 63 + s.header.size() + s.data.size();
}

size_t encode_accept_frame(Writer& w, const AcceptMsg& m, size_t share_size) {
  w.reserve(32 + share_wire_size(m.share) + share_size);
  w.u32(m.epoch);
  encode_ballot(w, m.ballot);
  w.varint(m.slot);
  encode_share_meta(w, m.share);
  w.varint(share_size);
  size_t gap = w.skip(share_size);
  w.varint(m.commit_index);
  w.varint(m.trace_id);
  return gap;
}

Status decode_share(Reader& r, CodedShare& s) {
  RSP_RETURN_IF_ERROR(decode_value_id(r, s.vid));
  uint8_t kind_byte;
  RSP_RETURN_IF_ERROR(r.u8(kind_byte));
  const uint8_t kind = kind_byte & 0x0f;
  const uint8_t code = kind_byte >> 4;
  if (kind > static_cast<uint8_t>(EntryKind::kConfig)) {
    return Status::corruption("bad entry kind");
  }
  if (!ec::code_id_valid(code)) {
    return Status::corruption("unknown erasure-code id in share");
  }
  s.kind = static_cast<EntryKind>(kind);
  s.code = static_cast<ec::CodeId>(code);
  uint64_t v;
  RSP_RETURN_IF_ERROR(r.varint(v));
  s.share_idx = static_cast<uint32_t>(v);
  RSP_RETURN_IF_ERROR(r.varint(v));
  s.x = static_cast<uint32_t>(v);
  RSP_RETURN_IF_ERROR(r.varint(v));
  s.n = static_cast<uint32_t>(v);
  RSP_RETURN_IF_ERROR(r.varint(s.value_len));
  RSP_RETURN_IF_ERROR(r.bytes(s.header));
  Bytes data;
  RSP_RETURN_IF_ERROR(r.bytes(data));
  s.data = std::move(data);
  if (s.x < 1 || s.n < s.x || s.share_idx >= s.n) {
    return Status::corruption("bad coding metadata");
  }
  return Status::ok();
}

void encode_config(Writer& w, const GroupConfig& c) {
  w.varint(c.members.size());
  for (NodeId m : c.members) w.u32(m);
  w.varint(static_cast<uint64_t>(c.qr));
  w.varint(static_cast<uint64_t>(c.qw));
  // Code id rides in bits 12+ of the x varint: x <= |members| <= 1024 never
  // reaches bit 12, rs (= 0) encodes byte-identically to the pre-policy
  // format, and a pre-policy decoder sees a non-rs config as a huge X and
  // rejects it in validate() rather than silently running the wrong code.
  w.varint(static_cast<uint64_t>(c.x) |
           (static_cast<uint64_t>(static_cast<uint8_t>(c.code)) << 12));
  w.u32(c.epoch);
}

Status decode_config(Reader& r, GroupConfig& c) {
  uint64_t n;
  RSP_RETURN_IF_ERROR(r.varint(n));
  if (n > 1024) return Status::corruption("membership too large");
  c.members.resize(n);
  for (uint64_t i = 0; i < n; ++i) RSP_RETURN_IF_ERROR(r.u32(c.members[i]));
  uint64_t v;
  RSP_RETURN_IF_ERROR(r.varint(v));
  c.qr = static_cast<int>(v);
  RSP_RETURN_IF_ERROR(r.varint(v));
  c.qw = static_cast<int>(v);
  RSP_RETURN_IF_ERROR(r.varint(v));
  const uint64_t code = v >> 12;
  if (!ec::code_id_valid(static_cast<uint8_t>(code)) || code > 0xff) {
    return Status::corruption("unknown erasure-code id in config");
  }
  c.x = static_cast<int>(v & 0xfff);
  c.code = static_cast<ec::CodeId>(code);
  RSP_RETURN_IF_ERROR(r.u32(c.epoch));
  return c.validate();
}

Bytes PrepareMsg::encode() const {
  Writer w(32);
  w.u32(epoch);
  encode_ballot(w, ballot);
  w.varint(start_slot);
  return w.take();
}

StatusOr<PrepareMsg> PrepareMsg::decode(BytesView b) {
  Reader r(b);
  PrepareMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.ballot));
  RSP_RETURN_IF_ERROR(r.varint(m.start_slot));
  return m;
}

Bytes PromiseMsg::encode() const {
  // Promises can carry the acceptor's whole open log; size the buffer once
  // instead of doubling through reallocation as entries append.
  size_t hint = 64;
  for (const PromiseEntry& e : entries) hint += 24 + share_wire_size(e.share);
  Writer w(hint);
  w.u32(epoch);
  encode_ballot(w, ballot);
  w.u8(ok ? 1 : 0);
  encode_ballot(w, promised);
  w.varint(start_slot);
  w.varint(last_committed);
  w.varint(entries.size());
  for (const PromiseEntry& e : entries) {
    w.varint(e.slot);
    encode_ballot(w, e.accepted_ballot);
    encode_share(w, e.share);
  }
  return w.take();
}

StatusOr<PromiseMsg> PromiseMsg::decode(BytesView b) {
  Reader r(b);
  PromiseMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.ballot));
  uint8_t ok;
  RSP_RETURN_IF_ERROR(r.u8(ok));
  m.ok = ok != 0;
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.promised));
  RSP_RETURN_IF_ERROR(r.varint(m.start_slot));
  RSP_RETURN_IF_ERROR(r.varint(m.last_committed));
  uint64_t n;
  RSP_RETURN_IF_ERROR(r.varint(n));
  if (n > (1u << 16)) return Status::corruption("promise entry count");
  m.entries.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    PromiseEntry& e = m.entries[i];
    RSP_RETURN_IF_ERROR(r.varint(e.slot));
    RSP_RETURN_IF_ERROR(decode_ballot(r, e.accepted_ballot));
    RSP_RETURN_IF_ERROR(decode_share(r, e.share));
  }
  return m;
}

Bytes AcceptMsg::encode() const {
  Writer w(64 + share.header.size() + share.data.size());
  w.u32(epoch);
  encode_ballot(w, ballot);
  w.varint(slot);
  encode_share(w, share);
  w.varint(commit_index);
  w.varint(trace_id);
  return w.take();
}

StatusOr<AcceptMsg> AcceptMsg::decode(BytesView b) {
  Reader r(b);
  AcceptMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.ballot));
  RSP_RETURN_IF_ERROR(r.varint(m.slot));
  RSP_RETURN_IF_ERROR(decode_share(r, m.share));
  RSP_RETURN_IF_ERROR(r.varint(m.commit_index));
  RSP_RETURN_IF_ERROR(r.varint(m.trace_id));
  return m;
}

Bytes AcceptedMsg::encode() const {
  Writer w(32);
  w.u32(epoch);
  encode_ballot(w, ballot);
  w.varint(slot);
  w.u8(ok ? 1 : 0);
  encode_ballot(w, promised);
  return w.take();
}

StatusOr<AcceptedMsg> AcceptedMsg::decode(BytesView b) {
  Reader r(b);
  AcceptedMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.ballot));
  RSP_RETURN_IF_ERROR(r.varint(m.slot));
  uint8_t ok;
  RSP_RETURN_IF_ERROR(r.u8(ok));
  m.ok = ok != 0;
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.promised));
  return m;
}

Bytes CommitMsg::encode() const {
  Writer w(32 + recent.size() * 20);
  w.u32(epoch);
  encode_ballot(w, ballot);
  w.varint(commit_index);
  w.varint(recent.size());
  for (const auto& [slot, vid] : recent) {
    w.varint(slot);
    encode_value_id(w, vid);
  }
  return w.take();
}

StatusOr<CommitMsg> CommitMsg::decode(BytesView b) {
  Reader r(b);
  CommitMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.ballot));
  RSP_RETURN_IF_ERROR(r.varint(m.commit_index));
  uint64_t n;
  RSP_RETURN_IF_ERROR(r.varint(n));
  if (n > (1u << 16)) return Status::corruption("commit entry count");
  m.recent.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    RSP_RETURN_IF_ERROR(r.varint(m.recent[i].first));
    RSP_RETURN_IF_ERROR(decode_value_id(r, m.recent[i].second));
  }
  return m;
}

Bytes HeartbeatAckMsg::encode() const {
  Writer w(32);
  w.u32(epoch);
  encode_ballot(w, ballot);
  w.varint(last_logged);
  w.varint(last_committed);
  return w.take();
}

StatusOr<HeartbeatAckMsg> HeartbeatAckMsg::decode(BytesView b) {
  Reader r(b);
  HeartbeatAckMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.ballot));
  RSP_RETURN_IF_ERROR(r.varint(m.last_logged));
  RSP_RETURN_IF_ERROR(r.varint(m.last_committed));
  return m;
}

Bytes CatchupReqMsg::encode() const {
  Writer w(24);
  w.u32(epoch);
  w.varint(from_slot);
  w.varint(to_slot);
  return w.take();
}

StatusOr<CatchupReqMsg> CatchupReqMsg::decode(BytesView b) {
  Reader r(b);
  CatchupReqMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(r.varint(m.from_slot));
  RSP_RETURN_IF_ERROR(r.varint(m.to_slot));
  return m;
}

Bytes CatchupRepMsg::encode() const {
  size_t hint = 80;
  for (const CatchupEntry& e : entries) hint += 24 + share_wire_size(e.share);
  Writer w(hint);
  w.u32(epoch);
  w.varint(commit_index);
  w.varint(log_start);
  w.varint(entries.size());
  for (const CatchupEntry& e : entries) {
    w.varint(e.slot);
    encode_ballot(w, e.ballot);
    encode_share(w, e.share);
  }
  w.u8(config.has_value() ? 1 : 0);
  if (config.has_value()) encode_config(w, *config);
  return w.take();
}

StatusOr<CatchupRepMsg> CatchupRepMsg::decode(BytesView b) {
  Reader r(b);
  CatchupRepMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(r.varint(m.commit_index));
  RSP_RETURN_IF_ERROR(r.varint(m.log_start));
  uint64_t n;
  RSP_RETURN_IF_ERROR(r.varint(n));
  if (n > (1u << 16)) return Status::corruption("catchup entry count");
  m.entries.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    CatchupEntry& e = m.entries[i];
    RSP_RETURN_IF_ERROR(r.varint(e.slot));
    RSP_RETURN_IF_ERROR(decode_ballot(r, e.ballot));
    RSP_RETURN_IF_ERROR(decode_share(r, e.share));
  }
  uint8_t has_cfg;
  RSP_RETURN_IF_ERROR(r.u8(has_cfg));
  if (has_cfg) {
    GroupConfig c;
    RSP_RETURN_IF_ERROR(decode_config(r, c));
    m.config = std::move(c);
  }
  return m;
}

Bytes FetchShareReqMsg::encode() const {
  Writer w(16);
  w.u32(epoch);
  w.varint(slot);
  // Trailing-optional: only emitted for sub-masked (hh repair) fetches, so
  // full-share requests stay byte-identical to the pre-policy wire format
  // and pre-policy decoders (which never read past the slot) interoperate.
  if (sub_mask != 0) w.varint(sub_mask);
  return w.take();
}

StatusOr<FetchShareReqMsg> FetchShareReqMsg::decode(BytesView b) {
  Reader r(b);
  FetchShareReqMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(r.varint(m.slot));
  if (!r.done()) {
    uint64_t v;
    RSP_RETURN_IF_ERROR(r.varint(v));
    if (v > 0xffffffffu) return Status::corruption("bad sub-share mask");
    m.sub_mask = static_cast<uint32_t>(v);
  }
  return m;
}

Bytes FetchShareRepMsg::encode() const {
  Writer w(have ? 32 + share_wire_size(share) : 32);
  w.u32(epoch);
  w.varint(slot);
  w.u8(have ? 1 : 0);
  w.u8(committed ? 1 : 0);
  encode_ballot(w, accepted_ballot);
  if (have) encode_share(w, share);
  if (have && sub_mask != 0) w.varint(sub_mask);  // trailing-optional, like the request
  return w.take();
}

StatusOr<FetchShareRepMsg> FetchShareRepMsg::decode(BytesView b) {
  Reader r(b);
  FetchShareRepMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(r.varint(m.slot));
  uint8_t have, committed;
  RSP_RETURN_IF_ERROR(r.u8(have));
  RSP_RETURN_IF_ERROR(r.u8(committed));
  m.have = have != 0;
  m.committed = committed != 0;
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.accepted_ballot));
  if (m.have) RSP_RETURN_IF_ERROR(decode_share(r, m.share));
  if (m.have && !r.done()) {
    uint64_t v;
    RSP_RETURN_IF_ERROR(r.varint(v));
    if (v > 0xffffffffu) return Status::corruption("bad sub-share mask");
    m.sub_mask = static_cast<uint32_t>(v);
  }
  return m;
}

Bytes SnapshotOfferMsg::encode() const {
  Writer w(32 + manifest.size());
  w.u32(epoch);
  encode_ballot(w, ballot);
  w.bytes(manifest);
  return w.take();
}

StatusOr<SnapshotOfferMsg> SnapshotOfferMsg::decode(BytesView b) {
  Reader r(b);
  SnapshotOfferMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(decode_ballot(r, m.ballot));
  RSP_RETURN_IF_ERROR(r.bytes(m.manifest));
  return m;
}

Bytes SnapshotFetchReqMsg::encode() const {
  Writer w(32);
  w.u32(epoch);
  w.varint(checkpoint_id);
  w.u32(share_idx);
  w.varint(offset);
  return w.take();
}

StatusOr<SnapshotFetchReqMsg> SnapshotFetchReqMsg::decode(BytesView b) {
  Reader r(b);
  SnapshotFetchReqMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  RSP_RETURN_IF_ERROR(r.varint(m.checkpoint_id));
  RSP_RETURN_IF_ERROR(r.u32(m.share_idx));
  RSP_RETURN_IF_ERROR(r.varint(m.offset));
  return m;
}

Bytes SnapshotFetchRepMsg::encode() const {
  Writer w(48 + manifest.size() + data.size());
  w.u32(epoch);
  w.u8(have ? 1 : 0);
  w.varint(checkpoint_id);
  w.u32(share_idx);
  w.varint(offset);
  w.bytes(manifest);
  w.bytes(data);
  return w.take();
}

StatusOr<SnapshotFetchRepMsg> SnapshotFetchRepMsg::decode(BytesView b) {
  Reader r(b);
  SnapshotFetchRepMsg m;
  RSP_RETURN_IF_ERROR(r.u32(m.epoch));
  uint8_t have;
  RSP_RETURN_IF_ERROR(r.u8(have));
  m.have = have != 0;
  RSP_RETURN_IF_ERROR(r.varint(m.checkpoint_id));
  RSP_RETURN_IF_ERROR(r.u32(m.share_idx));
  RSP_RETURN_IF_ERROR(r.varint(m.offset));
  RSP_RETURN_IF_ERROR(r.bytes(m.manifest));
  RSP_RETURN_IF_ERROR(r.bytes(m.data));
  return m;
}

}  // namespace rspaxos::consensus
