// KV command and client wire formats (§4.4).
//
// A write commits a log entry whose *header* (op + key, in clear, so
// followers can track which keys changed) rides every accept request in
// full, while the *value* is the erasure-coded payload. Deletes are writes
// of NULL; inserts are regular writes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/marshal.h"
#include "util/status.h"

namespace rspaxos::kv {

enum class Op : uint8_t {
  kPut = 1,
  kDelete = 2,
  kReadMarker = 3,  // consistent read: an explicit no-effect instance (§4.4)
  kBatch = 4,       // composite instance: several writes share one commit
  // Elastic resharding (DESIGN.md §14). key = decimal shard index; these
  // commit in the *source group's* log so the fence survives crashes.
  kShardSeal = 5,    // stop serving the shard (reads and writes) on apply
  kShardUnseal = 6,  // abort path: resume serving
  kShardGc = 7,      // drop all rows of the shard from the local store
};

/// The uncoded header of a replicated command.
struct CommandHeader {
  Op op = Op::kPut;
  std::string key;

  Bytes encode() const;
  static StatusOr<CommandHeader> decode(BytesView b);
};

/// One write inside a composite (batched) instance. The instance payload is
/// the concatenation of all item values; offset/len locate each slice, so a
/// follower holding only a coded share of the concatenation can still track
/// per-key state and recovery-read a single key (§7's batching, extended to
/// coded instances).
struct BatchItem {
  Op op = Op::kPut;  // kPut or kDelete
  std::string key;
  uint64_t offset = 0;
  uint64_t len = 0;
};

/// Header of a kBatch instance (first byte distinguishes it from
/// CommandHeader; see decode_any_op below).
struct BatchHeader {
  std::vector<BatchItem> items;

  Bytes encode() const;
  static StatusOr<BatchHeader> decode(BytesView b);
};

/// Peeks the op discriminator of an entry header without full decoding.
StatusOr<Op> peek_op(BytesView header);

/// Client-visible request kinds. kGet is served locally by a leased leader
/// (fast read); kConsistentGet commits a read marker first.
enum class ClientOp : uint8_t {
  kPut = 1,
  kGet = 2,
  kConsistentGet = 3,
  kDelete = 4,
};

struct ClientRequest {
  uint64_t req_id = 0;
  ClientOp op = ClientOp::kGet;
  std::string key;
  Bytes value;

  Bytes encode() const;
  static StatusOr<ClientRequest> decode(BytesView b);
};

enum class ReplyCode : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kNotLeader = 2,   // leader_hint is set
  kRetry = 3,       // transient (e.g. mid-failover); try again
  kOverloaded = 4,  // admission control shed the request; back off, then retry
  kWrongShard = 5,  // shard moved; group_hint names the new owner group
};

struct ClientReply {
  uint64_t req_id = 0;
  ReplyCode code = ReplyCode::kOk;
  uint32_t leader_hint = 0xffffffffu;
  Bytes value;
  // Resharding piggyback (trailing-optional on the wire; absent = 0 / none).
  // routing_epoch is the replying server's newest applied ShardMap epoch, so
  // clients notice staleness on *every* reply, not just redirects.
  uint64_t routing_epoch = 0;
  uint32_t group_hint = 0xffffffffu;  // kWrongShard: the owning group

  Bytes encode() const;
  /// Encodes this reply carrying `value_bytes` in place of `value` (which is
  /// ignored): servers answer reads straight from a stored buffer.
  Bytes encode_with_value(BytesView value_bytes) const;
  static StatusOr<ClientReply> decode(BytesView b);
};

}  // namespace rspaxos::kv
