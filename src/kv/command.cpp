#include "kv/command.h"

namespace rspaxos::kv {

Bytes CommandHeader::encode() const {
  Writer w(8 + key.size());
  w.u8(static_cast<uint8_t>(op));
  w.str(key);
  return w.take();
}

StatusOr<CommandHeader> CommandHeader::decode(BytesView b) {
  Reader r(b);
  CommandHeader h;
  uint8_t op;
  RSP_RETURN_IF_ERROR(r.u8(op));
  if (op < 1 || op == 4 || op > 7) return Status::corruption("bad command op");
  h.op = static_cast<Op>(op);
  RSP_RETURN_IF_ERROR(r.str(h.key));
  return h;
}

Bytes BatchHeader::encode() const {
  size_t reserve = 8;
  for (const BatchItem& it : items) reserve += it.key.size() + 24;
  Writer w(reserve);
  w.u8(static_cast<uint8_t>(Op::kBatch));
  w.varint(items.size());
  for (const BatchItem& it : items) {
    w.u8(static_cast<uint8_t>(it.op));
    w.str(it.key);
    w.varint(it.offset);
    w.varint(it.len);
  }
  return w.take();
}

StatusOr<BatchHeader> BatchHeader::decode(BytesView b) {
  Reader r(b);
  uint8_t tag;
  RSP_RETURN_IF_ERROR(r.u8(tag));
  if (tag != static_cast<uint8_t>(Op::kBatch)) return Status::corruption("not a batch");
  uint64_t n;
  RSP_RETURN_IF_ERROR(r.varint(n));
  if (n > (1u << 16)) return Status::corruption("batch too large");
  BatchHeader h;
  h.items.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    BatchItem& it = h.items[i];
    uint8_t op;
    RSP_RETURN_IF_ERROR(r.u8(op));
    if (op != static_cast<uint8_t>(Op::kPut) && op != static_cast<uint8_t>(Op::kDelete)) {
      return Status::corruption("bad batch item op");
    }
    it.op = static_cast<Op>(op);
    RSP_RETURN_IF_ERROR(r.str(it.key));
    RSP_RETURN_IF_ERROR(r.varint(it.offset));
    RSP_RETURN_IF_ERROR(r.varint(it.len));
  }
  return h;
}

StatusOr<Op> peek_op(BytesView header) {
  Reader r(header);
  uint8_t op;
  RSP_RETURN_IF_ERROR(r.u8(op));
  if (op < 1 || op > 7) return Status::corruption("bad op discriminator");
  return static_cast<Op>(op);
}

Bytes ClientRequest::encode() const {
  Writer w(24 + key.size() + value.size());
  w.u64(req_id);
  w.u8(static_cast<uint8_t>(op));
  w.str(key);
  w.bytes(value);
  return w.take();
}

StatusOr<ClientRequest> ClientRequest::decode(BytesView b) {
  Reader r(b);
  ClientRequest m;
  RSP_RETURN_IF_ERROR(r.u64(m.req_id));
  uint8_t op;
  RSP_RETURN_IF_ERROR(r.u8(op));
  if (op < 1 || op > 4) return Status::corruption("bad client op");
  m.op = static_cast<ClientOp>(op);
  RSP_RETURN_IF_ERROR(r.str(m.key));
  RSP_RETURN_IF_ERROR(r.bytes(m.value));
  return m;
}

Bytes ClientReply::encode() const { return encode_with_value(value); }

Bytes ClientReply::encode_with_value(BytesView value_bytes) const {
  Writer w(40 + value_bytes.size());
  w.u64(req_id);
  w.u8(static_cast<uint8_t>(code));
  w.u32(leader_hint);
  w.bytes(value_bytes);
  w.varint(routing_epoch);
  w.u32(group_hint);
  return w.take();
}

StatusOr<ClientReply> ClientReply::decode(BytesView b) {
  Reader r(b);
  ClientReply m;
  RSP_RETURN_IF_ERROR(r.u64(m.req_id));
  uint8_t code;
  RSP_RETURN_IF_ERROR(r.u8(code));
  if (code > 5) return Status::corruption("bad reply code");
  m.code = static_cast<ReplyCode>(code);
  RSP_RETURN_IF_ERROR(r.u32(m.leader_hint));
  RSP_RETURN_IF_ERROR(r.bytes(m.value));
  if (!r.done()) {  // trailing-optional resharding piggyback (pre-PR10 peers omit it)
    RSP_RETURN_IF_ERROR(r.varint(m.routing_epoch));
    RSP_RETURN_IF_ERROR(r.u32(m.group_hint));
  }
  return m;
}

}  // namespace rspaxos::kv
