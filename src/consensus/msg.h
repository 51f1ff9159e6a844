// Consensus wire messages (§3.2's prepare/promise/accept/accepted plus the
// Multi-Paxos commit/heartbeat/catch-up traffic of §4.5).
//
// Every message carries the sender's epoch so reconfigured groups reject
// stale-view traffic (§4.6). All decode paths are bounds-checked; a malformed
// message yields a Status, never UB.
#pragma once

#include <optional>
#include <vector>

#include "consensus/config.h"
#include "consensus/types.h"
#include "util/marshal.h"
#include "util/status.h"

namespace rspaxos::consensus {

/// Phase 1(a). Multi-Paxos batch prepare (§2.1, §7): one prepare covers every
/// slot >= start_slot, so a stable leader pays phase 1 once, not per value.
struct PrepareMsg {
  Epoch epoch = 0;
  Ballot ballot;
  Slot start_slot = 0;

  Bytes encode() const;
  static StatusOr<PrepareMsg> decode(BytesView b);
};

/// Per-slot payload of a promise: the highest-ballot accepted proposal, as a
/// coded share (§3.2 1b: "The proposal contains a coded piece").
struct PromiseEntry {
  Slot slot = 0;
  Ballot accepted_ballot;
  CodedShare share;
};

/// Phase 1(b).
struct PromiseMsg {
  Epoch epoch = 0;
  Ballot ballot;          // the ballot being promised
  bool ok = false;        // false: rejected, higher ballot seen
  Ballot promised;        // acceptor's current promise (for back-off)
  Slot start_slot = 0;
  Slot last_committed = 0;  // acceptor's commit watermark (leader catch-up aid)
  std::vector<PromiseEntry> entries;  // accepted state for slots >= start_slot

  Bytes encode() const;
  static StatusOr<PromiseMsg> decode(BytesView b);
};

/// Phase 2(a). Carries exactly one coded share for one acceptor (§3.2 2a).
struct AcceptMsg {
  Epoch epoch = 0;
  Ballot ballot;
  Slot slot = 0;
  CodedShare share;
  Slot commit_index = 0;  // piggybacked leader watermark
  uint64_t trace_id = 0;  // obs::TraceId; 0 = untraced

  Bytes encode() const;
  static StatusOr<AcceptMsg> decode(BytesView b);
};

/// Phase 2(b) response.
struct AcceptedMsg {
  Epoch epoch = 0;
  Ballot ballot;
  Slot slot = 0;
  bool ok = false;
  Ballot promised;  // on rejection: the ballot that preempted us

  Bytes encode() const;
  static StatusOr<AcceptedMsg> decode(BytesView b);
};

/// Learn/commit notification: value id only, never the value (§2.1: "the
/// value sent in learn phase can be skipped"). Bundled and sent off the
/// critical path (§5). Doubles as the leader heartbeat / lease refresh.
struct CommitMsg {
  Epoch epoch = 0;
  Ballot ballot;
  Slot commit_index = 0;
  std::vector<std::pair<Slot, ValueId>> recent;  // recently decided ids

  Bytes encode() const;
  static StatusOr<CommitMsg> decode(BytesView b);
};

/// Heartbeat acknowledgement (lease maintenance §4.3) + follower progress.
struct HeartbeatAckMsg {
  Epoch epoch = 0;
  Ballot ballot;
  Slot last_logged = 0;    // highest contiguously accepted slot
  Slot last_committed = 0;

  Bytes encode() const;
  static StatusOr<HeartbeatAckMsg> decode(BytesView b);
};

/// Follower asks the leader for missing committed entries (§4.5 recovery).
struct CatchupReqMsg {
  Epoch epoch = 0;
  Slot from_slot = 0;
  Slot to_slot = 0;  // inclusive

  Bytes encode() const;
  static StatusOr<CatchupReqMsg> decode(BytesView b);
};

/// One committed entry, re-encoded for the requesting follower: "the leader
/// needs to re-code the data and send the corresponding fragment" (§4.5).
struct CatchupEntry {
  Slot slot = 0;
  Ballot ballot;  // ballot under which it committed
  CodedShare share;
};

struct CatchupRepMsg {
  Epoch epoch = 0;
  Slot commit_index = 0;
  /// Lowest slot the responder can still serve; slots below it were compacted
  /// into a snapshot. A requester whose next-needed slot is below this must
  /// install the snapshot instead of replaying the log (§4.5 generalized).
  Slot log_start = 1;
  std::vector<CatchupEntry> entries;
  std::optional<GroupConfig> config;  // present if requester's epoch is stale

  Bytes encode() const;
  static StatusOr<CatchupRepMsg> decode(BytesView b);
};

/// Recovery read support (§4.4): fetch whatever share a replica logged for a
/// slot so the caller can decode the full value from a decodable subset.
struct FetchShareReqMsg {
  Epoch epoch = 0;
  Slot slot = 0;
  /// Sub-stripe selector for multi-sub-stripe codes (DESIGN.md §13): 0 (the
  /// wire default — the field is omitted when 0, keeping rs requests
  /// byte-identical to the pre-policy format) means the full share; bit j
  /// asks for sub-stripe j only, halving repair bytes under hh plans.
  uint32_t sub_mask = 0;

  Bytes encode() const;
  static StatusOr<FetchShareReqMsg> decode(BytesView b);
};

struct FetchShareRepMsg {
  Epoch epoch = 0;
  Slot slot = 0;
  bool have = false;
  bool committed = false;
  Ballot accepted_ballot;
  CodedShare share;
  /// Which sub-stripes share.data carries, mask-bit order (0 = full share).
  /// Trailing-optional like the request's mask.
  uint32_t sub_mask = 0;

  Bytes encode() const;
  static StatusOr<FetchShareRepMsg> decode(BytesView b);
};

/// "Fetch any fragment you hold" sentinel for SnapshotFetchReqMsg.share_idx.
constexpr uint32_t kAnyShare = 0xffffffffu;

/// Leader announces a completed checkpoint to a follower. The manifest blob
/// is that follower's snapshot::SnapshotManifest wire image (its share index
/// and fragment CRC), kept opaque here so the message layer stays
/// byte-oriented.
struct SnapshotOfferMsg {
  Epoch epoch = 0;
  Ballot ballot;
  Bytes manifest;

  Bytes encode() const;
  static StatusOr<SnapshotOfferMsg> decode(BytesView b);
};

/// One chunk request of a checkpoint fragment. Stateless on the replier side:
/// every request names the checkpoint, which fragment (kAnyShare = whatever
/// the replier durably holds) and the byte offset, so transfers resume after
/// loss or restart with no replier-side cursor. checkpoint_id 0 means "your
/// newest".
struct SnapshotFetchReqMsg {
  Epoch epoch = 0;
  uint64_t checkpoint_id = 0;
  uint32_t share_idx = kAnyShare;
  uint64_t offset = 0;

  Bytes encode() const;
  static StatusOr<SnapshotFetchReqMsg> decode(BytesView b);
};

/// One fragment chunk. `manifest` is the wire image of the manifest the data
/// belongs to (the replied fragment's share index / length / CRC), so the
/// fetcher can verify each completed fragment and learn the state geometry.
struct SnapshotFetchRepMsg {
  Epoch epoch = 0;
  bool have = false;          // false: no such checkpoint/fragment here
  uint64_t checkpoint_id = 0; // on have=false: newest id this node knows (0 = none)
  uint32_t share_idx = 0;
  uint64_t offset = 0;
  Bytes manifest;
  Bytes data;  // empty when offset >= fragment length (completion probe)

  Bytes encode() const;
  static StatusOr<SnapshotFetchRepMsg> decode(BytesView b);
};

/// Zero-copy accept frames: encodes the complete AcceptMsg wire image with a
/// `share_size`-byte gap where `m.share.data` belongs (m.share.data itself is
/// ignored and may be empty) and returns the gap's byte offset. The proposer
/// erasure-codes each follower's share directly into its frame through
/// Writer::data() + offset, so share bytes are written exactly once — no
/// intermediate per-share Bytes copy. The frame decodes with
/// AcceptMsg::decode like any other.
size_t encode_accept_frame(Writer& w, const AcceptMsg& m, size_t share_size);

/// Upper bound on the encoded size of a share (buffer pre-sizing helper).
size_t share_wire_size(const CodedShare& s);

// Shared sub-encoders (also used by the WAL record format).
void encode_ballot(Writer& w, const Ballot& b);
Status decode_ballot(Reader& r, Ballot& b);
void encode_value_id(Writer& w, const ValueId& v);
Status decode_value_id(Reader& r, ValueId& v);
void encode_share(Writer& w, const CodedShare& s);
/// encode_share up to the data: everything but the share bytes themselves,
/// which follow it on the wire or in the WAL record.
void encode_share_head(Writer& w, const CodedShare& s);
Status decode_share(Reader& r, CodedShare& s);
void encode_config(Writer& w, const GroupConfig& c);
Status decode_config(Reader& r, GroupConfig& c);

}  // namespace rspaxos::consensus
