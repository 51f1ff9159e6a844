// Shared private pieces of the Replica implementation, split across
// replica.cpp (core: roles, proposer, acceptor, learner, persistence),
// replica_catchup.cpp (log catch-up + §4.4 recovery reads) and
// replica_snapshot.cpp (erasure-coded checkpoints / InstallSnapshot).
// Not part of the public API — include only from those TUs.
#pragma once

#include "consensus/msg.h"
#include "consensus/view.h"
#include "util/marshal.h"

namespace rspaxos::consensus {

// WAL record tags.
inline constexpr uint8_t kRecMeta = 1;        // promised ballot
inline constexpr uint8_t kRecSlot = 2;        // slot accept state
inline constexpr uint8_t kRecConfig = 3;      // applied group config
inline constexpr uint8_t kRecSnapMarker = 4;  // snapshot barrier: slots below live in the snapshot

inline Bytes encode_meta_record(const Ballot& promised) {
  Writer w(16);
  w.u8(kRecMeta);
  encode_ballot(w, promised);
  return w.take();
}

/// A slot record up to the share bytes: tag, slot, ballot, share metadata
/// and the data length. The share's buffer follows it in the WAL record
/// (persist_slot appends it as the record's body, so it is not copied).
inline Bytes encode_slot_record_head(Slot slot, const Ballot& accepted,
                                     const CodedShare& share) {
  Writer w(48 + share.header.size());
  w.u8(kRecSlot);
  w.varint(slot);
  encode_ballot(w, accepted);
  encode_share_head(w, share);
  return w.take();
}

/// The whole slot record in one buffer (truncation heads).
inline Bytes encode_slot_record(Slot slot, const Ballot& accepted, const CodedShare& share) {
  Bytes rec = encode_slot_record_head(slot, accepted, share);
  rec.insert(rec.end(), share.data.begin(), share.data.end());
  return rec;
}

inline Bytes encode_config_record(const GroupConfig& cfg) {
  Writer w(64);
  w.u8(kRecConfig);
  encode_config(w, cfg);
  return w.take();
}

inline Bytes encode_snap_marker(uint64_t ckpt_id, Slot applied, Slot next_hint) {
  Writer w(24);
  w.u8(kRecSnapMarker);
  w.varint(ckpt_id);
  w.varint(applied);
  w.varint(next_hint);
  return w.take();
}

}  // namespace rspaxos::consensus
