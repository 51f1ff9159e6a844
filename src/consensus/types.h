// Core identifiers of the (RS-)Paxos protocol (§3.2):
// ballots, value ids, and coded proposal shares.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "ec/code_id.h"
#include "net/transport.h"
#include "util/bytes.h"

namespace rspaxos::consensus {

/// Log position in the replicated state machine (one Paxos instance each).
using Slot = uint64_t;

/// Configuration epoch (§4.6): bumped by every view change.
using Epoch = uint32_t;

/// A globally unique, totally ordered ballot id: "formed with the proposer id
/// and a natural number" (§3.2). Round dominates; proposer id breaks ties.
struct Ballot {
  uint32_t round = 0;
  NodeId node = kNoNode;

  static Ballot null() { return Ballot{}; }
  bool is_null() const { return round == 0 && node == kNoNode; }

  auto operator<=>(const Ballot& o) const {
    if (auto c = round <=> o.round; c != 0) return c;
    return node <=> o.node;
  }
  bool operator==(const Ballot&) const = default;

  std::string to_string() const {
    return "b(" + std::to_string(round) + "," +
           (node == kNoNode ? std::string("-") : std::to_string(node)) + ")";
  }
};

/// Globally unique value identifier (§3.2: "a value id, to identify the
/// value"). Shares of the same value carry the same ValueId, which is how a
/// phase-1 proposer groups promises into decodable sets.
struct ValueId {
  NodeId origin = kNoNode;  // proposer that created the value
  uint64_t seq = 0;         // per-proposer counter

  static ValueId null() { return ValueId{}; }
  bool is_null() const { return origin == kNoNode && seq == 0; }

  auto operator<=>(const ValueId&) const = default;

  std::string to_string() const {
    return "v(" + std::to_string(origin) + "," + std::to_string(seq) + ")";
  }
};

/// What kind of command an entry carries. Consensus treats all kinds the
/// same for agreement; CONFIG entries additionally switch the group view
/// when applied (§4.6), NOOP fills holes during leader takeover.
enum class EntryKind : uint8_t {
  kNormal = 0,
  kNoop = 1,
  kConfig = 2,
};

/// One coded piece of a proposal, as carried in accept requests (§3.2:
/// "a coded data share, and the meta data of erasure code configuration").
///
/// `header` is replicated in full on every acceptor — the KV store keeps the
/// operation type and key uncoded "for followers to conveniently track which
/// keys are modified" (§4.4). Only `data` (the value payload share) is coded
/// with θ(x, n).
struct CodedShare {
  ValueId vid;
  EntryKind kind = EntryKind::kNormal;
  /// Which erasure code produced `data`. Packed into the high nibble of the
  /// kind byte on the wire/WAL, so rs (= 0) frames stay byte-identical to
  /// the pre-policy format and old decoders reject non-rs frames instead of
  /// mis-decoding them.
  ec::CodeId code = ec::CodeId::kRs;
  uint32_t share_idx = 0;   // which of the n shares this is
  uint32_t x = 1;           // original-share count of the coding config
  uint32_t n = 1;           // total share count of the coding config
  uint64_t value_len = 0;   // length of the uncoded payload
  Bytes header;             // uncoded metadata, full copy
  SharedBytes data;         // the coded share (== full payload in full-copy mode)

  /// Full-copy mode (classic Paxos): x == 1 under rs, where every share *is*
  /// the value. Non-rs codes never qualify — even at x == 1 their shares
  /// carry parity layout.
  bool full_copy() const { return x == 1 && code == ec::CodeId::kRs; }

  size_t wire_size() const { return header.size() + data.size() + 40; }
};

}  // namespace rspaxos::consensus
