#include "kv/migration.h"

#include "kv/client.h"  // shard_of
#include "kv/server.h"
#include "net/routing.h"
#include "util/logging.h"

namespace rspaxos::kv {

namespace {
// Chunk bounds: large enough to amortize the per-chunk commit round trip at
// the destination, small enough to stay far below the transport frame bound
// and keep head-of-line blocking of consensus traffic negligible.
constexpr size_t kChunkMaxBytes = 256u << 10;
constexpr size_t kChunkMaxItems = 128;
// Catch-up convergence: seal once a round leaves at most this many dirty
// keys (the seal fence collects the remainder), or after this many rounds
// under sustained write load (catch-up alone would never converge).
constexpr size_t kSealDirtyThreshold = 64;
constexpr int kMaxCatchupRounds = 4;
}  // namespace

// --- wire formats -----------------------------------------------------------

Bytes MigrateDataMsg::encode() const {
  Writer w(32 + header.size() + payload.size());
  w.u64(migration_id);
  w.varint(shard);
  w.varint(seq);
  w.u8(flags);
  w.bytes(header);
  w.bytes(payload);
  return w.take();
}

StatusOr<MigrateDataMsg> MigrateDataMsg::decode(BytesView b) {
  Reader r(b);
  MigrateDataMsg m;
  uint64_t v = 0;
  RSP_RETURN_IF_ERROR(r.u64(m.migration_id));
  RSP_RETURN_IF_ERROR(r.varint(v));
  m.shard = static_cast<uint32_t>(v);
  RSP_RETURN_IF_ERROR(r.varint(m.seq));
  RSP_RETURN_IF_ERROR(r.u8(m.flags));
  RSP_RETURN_IF_ERROR(r.bytes(m.header));
  RSP_RETURN_IF_ERROR(r.bytes(m.payload));
  return m;
}

Bytes MigrateAckMsg::encode() const {
  Writer w(24);
  w.u64(migration_id);
  w.varint(seq);
  w.u8(status);
  w.u32(leader_hint);
  return w.take();
}

StatusOr<MigrateAckMsg> MigrateAckMsg::decode(BytesView b) {
  Reader r(b);
  MigrateAckMsg m;
  RSP_RETURN_IF_ERROR(r.u64(m.migration_id));
  RSP_RETURN_IF_ERROR(r.varint(m.seq));
  RSP_RETURN_IF_ERROR(r.u8(m.status));
  if (m.status > kReject) return rspaxos::Status::corruption("bad migrate ack status");
  RSP_RETURN_IF_ERROR(r.u32(m.leader_hint));
  return m;
}

Bytes MigrateCmdMsg::encode() const {
  Writer w(10);
  w.varint(shard);
  w.varint(to_group);
  return w.take();
}

StatusOr<MigrateCmdMsg> MigrateCmdMsg::decode(BytesView b) {
  Reader r(b);
  MigrateCmdMsg m;
  uint64_t v = 0;
  RSP_RETURN_IF_ERROR(r.varint(v));
  m.shard = static_cast<uint32_t>(v);
  RSP_RETURN_IF_ERROR(r.varint(v));
  m.to_group = static_cast<uint32_t>(v);
  return m;
}

// --- driver -----------------------------------------------------------------

MigrationDriver::MigrationDriver(KvServer* kv, uint32_t shard, uint32_t to_group,
                                 uint64_t id)
    : kv_(kv), shard_(shard), to_group_(to_group), id_(id) {
  // The source, destination and meta groups share the same physical servers
  // (one host serves every group), so both peer lists derive from the source
  // group's membership via the composite-endpoint math.
  for (NodeId m : kv_->replica_.config().members) {
    int server = net::server_of_endpoint(m);
    meta_members_.push_back(net::endpoint_id(server, kMetaGroup));
    dest_members_.push_back(net::endpoint_id(server, static_cast<int>(to_group_)));
  }
}

MigrationDriver::~MigrationDriver() {
  *alive_ = false;
  disarm();
}

const char* MigrationDriver::phase_name() const {
  switch (phase_) {
    case Phase::kPrepare:   return "prepare";
    case Phase::kCopy:      return "copy";
    case Phase::kSealing:   return "sealing";
    case Phase::kFinalCopy: return "final_copy";
    case Phase::kFlip:      return "flip";
    case Phase::kGc:        return "gc";
    case Phase::kDone:      return "done";
    case Phase::kAborted:   return "aborted";
  }
  return "?";
}

void MigrationDriver::start() {
  phase_ = Phase::kPrepare;
  meta_write(
      [this](ShardMap& m) {
        if (m.group_of(shard_) != kv_->group_) return false;
        if (m.migration_of(shard_) != nullptr) return false;
        ShardMigration mig;
        mig.shard = shard_;
        mig.from_group = kv_->group_;
        mig.to_group = to_group_;
        mig.id = id_;
        m.migrations.push_back(mig);
        return true;
      },
      [this] { enter_copy(); });
}

void MigrationDriver::start_abort() {
  abort("orphaned by a source leader change");
}

void MigrationDriver::cancel() {
  if (finished()) return;
  RSP_INFO << "kv node " << kv_->ctx_->id() << " migration " << id_
           << " cancelled in phase " << phase_name();
  finish(false);
}

void MigrationDriver::note_applied(uint32_t shard, const std::string& key) {
  if (shard != shard_ || finished() || aborting_) return;
  dirty_.insert(key);
}

void MigrationDriver::note_sealed(uint32_t shard) {
  if (shard == shard_) sealed_applied_ = true;
}

// --- copy pipeline ----------------------------------------------------------

void MigrationDriver::enter_copy() {
  phase_ = Phase::kCopy;
  size_t nshards = kv_->routing_->snapshot()->num_shards();
  kv_->store_.for_each([&](const std::string& k, const LocalStore::Record&) {
    if (!is_meta_key(k) && shard_of(k, nshards) == shard_) queue_.push_back(k);
  });
  scanned_ = true;
  RSP_INFO << "kv node " << kv_->ctx_->id() << " migration " << id_ << ": copying "
           << queue_.size() << " rows of shard " << shard_ << " to group "
           << to_group_;
  pump();
}

void MigrationDriver::pump() {
  if (finished() || chunk_outstanding_) return;
  if (phase_ != Phase::kCopy && phase_ != Phase::kFinalCopy) return;
  if (queue_.empty()) {
    if (phase_ == Phase::kCopy &&
        (dirty_.size() <= kSealDirtyThreshold || catchup_rounds_ >= kMaxCatchupRounds)) {
      begin_seal();
      return;
    }
    if (phase_ == Phase::kFinalCopy && dirty_.empty()) {
      begin_flip();
      return;
    }
    // Next catch-up round: re-stream everything written behind the cursor.
    ++catchup_rounds_;
    for (const std::string& k : dirty_) queue_.push_back(k);
    dirty_.clear();
  }

  BatchHeader bh;
  Writer pw;
  while (!queue_.empty() && bh.items.size() < kChunkMaxItems &&
         pw.size() < kChunkMaxBytes) {
    const std::string key = queue_.front();
    const LocalStore::Record* rec = kv_->store_.find(key);
    if (rec != nullptr && !rec->complete) {
      if (!bh.items.empty()) break;  // ship what we have; recover next pump
      // Share-only row (a key this node never wrote while leader): gather
      // >= X shares via the group's cheapest repair plan, complete the local
      // row, then resume. Rare — one recovery per such key.
      uint64_t slot = rec->slot;
      uint64_t off = rec->slice_off;
      uint64_t len = rec->slice_len;
      auto alive = alive_;
      kv_->replica_.recover_payload(slot, [this, alive, key, slot, off,
                                           len](StatusOr<SharedBytes> r) {
        if (!*alive || finished()) return;
        if (!r.is_ok() || off + len > r.value().size()) {
          arm(50 * kMillis, [this] { pump(); });  // transient; retry
          return;
        }
        const LocalStore::Record* cur = kv_->store_.find(key);
        if (cur != nullptr && cur->slot == slot && !cur->complete) {
          kv_->store_.put_complete(key, r.value(), slot, off, len);
        }
        pump();
      });
      return;
    }
    queue_.pop_front();
    // This send carries the row's current value, superseding any earlier
    // dirty mark; a write applying after this point re-inserts it.
    dirty_.erase(key);
    BatchItem item;
    item.key = key;
    if (rec == nullptr) {
      item.op = Op::kDelete;  // deleted since it was queued
    } else {
      item.op = Op::kPut;
      item.offset = pw.size();
      item.len = rec->slice_len;
      pw.raw(rec->value());
    }
    bh.items.push_back(std::move(item));
  }
  if (bh.items.empty()) {
    pump();  // everything popped was re-queued dirty work; try again
    return;
  }

  out_ = MigrateDataMsg{};
  out_.migration_id = id_;
  out_.shard = shard_;
  out_.seq = ++seq_;
  if (seq_ == 1) out_.flags |= MigrateDataMsg::kFirst;
  if (phase_ == Phase::kFinalCopy && queue_.empty() && dirty_.empty()) {
    out_.flags |= MigrateDataMsg::kFinal;
  }
  out_.header = bh.encode();
  out_.payload = pw.take();
  chunk_outstanding_ = true;
  chunk_attempts_ = 0;
  send_chunk();
}

void MigrationDriver::send_chunk() {
  if (finished() || !chunk_outstanding_) return;
  if (++chunk_attempts_ > 200) {
    abort("destination group unreachable");
    return;
  }
  if (chunk_attempts_ % 8 == 0) dest_leader_ = kNoNode;  // re-probe on silence
  kv_->ctx_->send(dest_target(), MsgType::kMigrateData, out_.encode());
  arm(150 * kMillis, [this] { send_chunk(); });
}

void MigrationDriver::on_migrate_ack(NodeId from, const MigrateAckMsg& msg) {
  if (finished() || msg.migration_id != id_) return;
  if (msg.status == MigrateAckMsg::kNotLeader) {
    dest_leader_ = (msg.leader_hint != kNoNode && msg.leader_hint != from)
                       ? msg.leader_hint
                       : kNoNode;
    if (chunk_outstanding_) arm(10 * kMillis, [this] { send_chunk(); });
    return;
  }
  if (msg.status == MigrateAckMsg::kReject) {
    abort("destination rejected chunk");
    return;
  }
  if (!chunk_outstanding_ || msg.seq != seq_) return;  // stale duplicate
  dest_leader_ = from;
  chunk_outstanding_ = false;
  disarm();
  chunk_acked();
}

void MigrationDriver::chunk_acked() {
  uint64_t bytes = out_.header.size() + out_.payload.size();
  moved_bytes_ += bytes;
  kv_->m_.reshard_moved_bytes.inc(bytes);
  out_ = MigrateDataMsg{};  // release the retransmit buffers
  pump();
}

// --- seal / drain / flip / gc ----------------------------------------------

void MigrationDriver::begin_seal() {
  phase_ = Phase::kSealing;
  RSP_INFO << "kv node " << kv_->ctx_->id() << " migration " << id_ << ": sealing shard "
           << shard_ << " (" << dirty_.size() << " dirty keys pending)";
  CommandHeader h;
  h.op = Op::kShardSeal;
  h.key = std::to_string(shard_);
  auto alive = alive_;
  kv_->replica_.propose(h.encode(), Bytes{}, [this, alive](StatusOr<consensus::Slot> r) {
    if (!*alive || finished()) return;
    if (!r.is_ok()) {
      abort("seal commit failed");
      return;
    }
    // The commit waiter fires post-apply, so sealed_ already contains the
    // shard; now wait out writes admitted before the seal (async EC encode
    // can slot one after the seal instance).
    poll_drain();
  });
}

void MigrationDriver::poll_drain() {
  if (finished()) return;
  if (kv_->shard_inflight(shard_) == 0) {
    phase_ = Phase::kFinalCopy;
    pump();  // stream the post-seal dirty remainder (may be empty -> flip)
    return;
  }
  arm(10 * kMillis, [this] { poll_drain(); });
}

void MigrationDriver::begin_flip() {
  phase_ = Phase::kFlip;
  meta_write(
      [this](ShardMap& m) {
        const ShardMigration* mig = m.migration_of(shard_);
        if (mig == nullptr || mig->id != id_) return false;  // superseded
        if (m.group_of(shard_) != kv_->group_) return false;
        m.shard_group[shard_] = to_group_;
        for (auto it = m.migrations.begin(); it != m.migrations.end(); ++it) {
          if (it->shard == shard_) {
            m.migrations.erase(it);
            break;
          }
        }
        return true;
      },
      [this] { begin_gc(); });
}

void MigrationDriver::begin_gc() {
  phase_ = Phase::kGc;
  CommandHeader h;
  h.op = Op::kShardGc;
  h.key = std::to_string(shard_);
  auto alive = alive_;
  kv_->replica_.propose(h.encode(), Bytes{}, [this, alive](StatusOr<consensus::Slot> r) {
    if (!*alive || finished()) return;
    // Even if this node was deposed before the GC committed, the flip is
    // durable — the migration succeeded; the next leader's janitor finishes
    // the GC tail from the sealed-but-not-owned marker.
    (void)r;
    finish(true);
  });
}

// --- abort / finish ---------------------------------------------------------

void MigrationDriver::abort(const char* why) {
  if (finished()) return;
  RSP_WARN << "kv node " << kv_->ctx_->id() << " migration " << id_ << " of shard "
           << shard_ << " aborting in phase " << phase_name() << ": " << why;
  disarm();
  chunk_outstanding_ = false;
  meta_req_id_ = 0;
  if (aborting_) {
    // Second failure while already unwinding: give up locally. The record
    // (if still in the map) is re-adopted by a later janitor sweep.
    finish(false);
    return;
  }
  aborting_ = true;
  auto alive = alive_;
  auto unwind = [this] {
    meta_write(
        [this](ShardMap& m) {
          for (auto it = m.migrations.begin(); it != m.migrations.end(); ++it) {
            if (it->shard == shard_ && it->id == id_) {
              m.migrations.erase(it);
              return true;
            }
          }
          return false;  // already removed elsewhere — also fine
        },
        [this] { finish(false); });
  };
  if (sealed_applied_ || kv_->sealed_.count(shard_) > 0) {
    CommandHeader h;
    h.op = Op::kShardUnseal;
    h.key = std::to_string(shard_);
    kv_->replica_.propose(h.encode(), Bytes{},
                          [this, alive, unwind](StatusOr<consensus::Slot> r) {
                            if (!*alive || finished()) return;
                            (void)r;  // even on failure: the next leader unseals
                            unwind();
                          });
  } else {
    unwind();
  }
}

void MigrationDriver::finish(bool ok) {
  disarm();
  meta_req_id_ = 0;
  chunk_outstanding_ = false;
  phase_ = ok ? Phase::kDone : Phase::kAborted;
  (ok ? kv_->m_.reshard_ok : kv_->m_.reshard_aborted).inc();
  RSP_INFO << "kv node " << kv_->ctx_->id() << " migration " << id_ << " of shard "
           << shard_ << (ok ? " completed; " : " aborted; ") << moved_bytes_
           << " bytes moved";
}

// --- meta-group writes ------------------------------------------------------

// Read-modify-write against the local view. Not a CAS: a concurrent writer
// (another group's driver, a parallel janitor) could be clobbered. The
// serialization that matters — only one driver per source group, preconditions
// re-checked against the freshest local view, janitor sweeps healing any map
// state — keeps this safe for the one-balancer deployment this repo ships;
// epoch conflicts at the RoutingView are resolved by "strictly newer wins".
void MigrationDriver::meta_write(std::function<bool(ShardMap&)> mutate,
                                 std::function<void()> then) {
  ShardMap m = *kv_->routing_->snapshot();
  if (!mutate(m)) {
    if (aborting_) {
      finish(false);
    } else {
      abort("routing map precondition failed");
    }
    return;
  }
  m.epoch += 1;
  meta_epoch_ = m.epoch;
  meta_value_ = m.encode();
  meta_then_ = std::move(then);
  meta_req_id_ = (1ull << 63) ^ (id_ << 8) ^ (++req_seq_ & 0xffu);
  if (meta_req_id_ == 0) meta_req_id_ = 1;
  meta_attempts_ = 0;
  send_meta_request();
}

void MigrationDriver::send_meta_request() {
  if (finished() || meta_req_id_ == 0) return;
  if (++meta_attempts_ > 100) {
    if (aborting_) {
      finish(false);
    } else {
      abort("meta group unreachable");
    }
    return;
  }
  if (meta_attempts_ % 8 == 0) meta_leader_ = kNoNode;
  ClientRequest req;
  req.req_id = meta_req_id_;
  req.op = ClientOp::kPut;
  req.key = kRoutingKey;
  req.value = meta_value_;
  kv_->ctx_->send(meta_target(), MsgType::kClientRequest, req.encode());
  arm(100 * kMillis, [this] { send_meta_request(); });
}

void MigrationDriver::on_client_reply(const ClientReply& rep) {
  if (finished() || meta_req_id_ == 0 || rep.req_id != meta_req_id_) return;
  switch (rep.code) {
    case ReplyCode::kOk: {
      meta_req_id_ = 0;
      disarm();
      auto then = std::move(meta_then_);
      meta_then_ = nullptr;
      poll_view(meta_epoch_, std::move(then));
      return;
    }
    case ReplyCode::kNotLeader:
      meta_leader_ = rep.leader_hint != kNoNode ? rep.leader_hint : kNoNode;
      arm(10 * kMillis, [this] { send_meta_request(); });
      return;
    default:
      // kRetry / kOverloaded (and anything a meta put should never see):
      // back off briefly and retry the same request id.
      arm(30 * kMillis, [this] { send_meta_request(); });
      return;
  }
}

void MigrationDriver::poll_view(uint64_t epoch, std::function<void()> then) {
  if (finished()) return;
  if (kv_->routing_->epoch() >= epoch) {
    // The ack proved the write committed; acting only once the LOCAL view
    // caught up keeps every precondition check downstream of our own write.
    if (then) then();
    return;
  }
  arm(5 * kMillis, [this, epoch, then] { poll_view(epoch, then); });
}

NodeId MigrationDriver::meta_target() {
  if (meta_leader_ != kNoNode) return meta_leader_;
  return meta_members_[meta_rr_++ % meta_members_.size()];
}

NodeId MigrationDriver::dest_target() {
  if (dest_leader_ != kNoNode) return dest_leader_;
  return dest_members_[dest_rr_++ % dest_members_.size()];
}

void MigrationDriver::arm(DurationMicros delay, std::function<void()> fn) {
  disarm();
  auto alive = alive_;
  timer_ = kv_->ctx_->set_timer(delay, [this, alive, fn = std::move(fn)] {
    if (!*alive) return;
    timer_ = 0;
    fn();
  });
}

void MigrationDriver::disarm() {
  if (timer_ != 0) {
    kv_->ctx_->cancel_timer(timer_);
    timer_ = 0;
  }
}

}  // namespace rspaxos::kv
