#include "kv/server.h"

#include <cstdlib>

#include "kv/client.h"  // shard_of
#include "net/routing.h"
#include "util/logging.h"

namespace rspaxos::kv {

using consensus::ApplyView;
using consensus::GroupConfig;
using consensus::ReencodeAction;
using consensus::ReplicaOptions;

KvServer::KvServer(NodeContext* ctx, storage::Wal* wal, GroupConfig cfg,
                   ReplicaOptions opts, KvServerOptions kv_opts,
                   snapshot::SnapshotStore* snap)
    : ctx_(ctx), kv_opts_(kv_opts), group_(opts.group_id),
      track_sliced_(opts.payload_cache_slots != 0),
      replica_(ctx, wal, std::move(cfg), opts) {
  replica_.set_apply([this](const ApplyView& view) { apply_entry(view); });
  replica_.set_on_role_change([this](bool leader) { on_role_change(leader); });
  replica_.set_on_config_change(
      [this](const GroupConfig& o, const GroupConfig& n, ReencodeAction a) {
        on_config_change(o, n, a);
      });
  if (snap != nullptr) replica_.set_snapshot_store(snap);
  replica_.set_state_hooks(
      [this] { return build_state(); },
      [this](BytesView image, consensus::Slot snap_slot) {
        install_state(image, snap_slot);
      },
      [this] { return store_.incomplete_count() == 0; });
  auto& reg = obs::MetricsRegistry::global();
  std::string node = std::to_string(ctx_->id());
  std::string group = std::to_string(opts.group_id);
  auto counter = [&](const char* name, const char* help) {
    return obs::CounterView(
        &reg.counter_family(name, help, {"node", "group"}).with({node, group}));
  };
  m_.puts = counter("rsp_kv_puts_total", "Put/delete requests accepted by this server");
  m_.fast_reads = counter("rsp_kv_fast_reads_total", "Lease-gated leader-local reads");
  m_.consistent_reads =
      counter("rsp_kv_consistent_reads_total", "Reads committed via a read-marker instance");
  m_.recovery_reads =
      counter("rsp_kv_recovery_reads_total", "Reads that gathered shares to decode the value");
  m_.ec_degraded_reads =
      counter("rsp_ec_degraded_reads_total",
              "Reads served degraded: value decoded from a gathered share set");
  m_.redirects = counter("rsp_kv_redirects_total", "Client requests bounced to the leader");
  m_.batches_committed =
      counter("rsp_kv_batches_committed_total", "Composite batch instances committed");
  // Admission series carry the owning reactor so shed storms are
  // attributable to one overloaded core rather than the whole machine.
  std::string reactor = std::to_string(kv_opts_.reactor);
  auto shed = [&](const char* reason) {
    return obs::CounterView(
        &reg.counter_family("rsp_admission_shed_total",
                            "Client requests bounced with kOverloaded by admission control",
                            {"node", "group", "reactor", "reason"})
             .with({node, group, reactor, reason}));
  };
  m_.shed_inflight = shed("inflight");
  m_.shed_queue_bytes = shed("queue_bytes");
  m_.shed_health = shed("health");
  m_.wrong_shard = counter("rsp_kv_wrong_shard_total",
                           "Client requests bounced to the shard's owning group");
  auto reshard = [&](const char* result) {
    return obs::CounterView(
        &reg.counter_family("rsp_reshard_migrations_total",
                            "Shard migrations driven by this server, by outcome",
                            {"node", "group", "result"})
             .with({node, group, result}));
  };
  m_.reshard_ok = reshard("ok");
  m_.reshard_aborted = reshard("aborted");
  m_.reshard_moved_bytes =
      counter("rsp_reshard_moved_bytes_total",
              "Shard-migration chunk bytes acknowledged by the destination");
  m_.adm_inflight =
      &reg.gauge_family("rsp_admission_inflight",
                        "Replication ops accepted but not yet committed",
                        {"node", "group", "reactor"})
           .with({node, group, reactor});
  m_.adm_queue_bytes =
      &reg.gauge_family("rsp_admission_queue_bytes",
                        "Client value bytes accepted but not yet committed",
                        {"node", "group", "reactor"})
           .with({node, group, reactor});
}

void KvServer::admission_acquire(size_t bytes) {
  ++adm_inflight_;
  adm_queue_bytes_ += bytes;
  m_.adm_inflight->set(static_cast<int64_t>(adm_inflight_));
  m_.adm_queue_bytes->set(static_cast<int64_t>(adm_queue_bytes_));
}

void KvServer::admission_release(size_t bytes) {
  if (adm_inflight_ > 0) --adm_inflight_;
  adm_queue_bytes_ = adm_queue_bytes_ >= bytes ? adm_queue_bytes_ - bytes : 0;
  m_.adm_inflight->set(static_cast<int64_t>(adm_inflight_));
  m_.adm_queue_bytes->set(static_cast<int64_t>(adm_queue_bytes_));
}

bool KvServer::admit(NodeId from, uint64_t req_id, size_t bytes, bool replicating) {
  const KvAdmissionOptions& a = kv_opts_.admission;
  if (replicating) {
    if (a.max_inflight != 0 && adm_inflight_ >= a.max_inflight) {
      m_.shed_inflight.inc();
      reply(from, req_id, ReplyCode::kOverloaded);
      return false;
    }
    if (a.max_queue_bytes != 0 && adm_queue_bytes_ + bytes > a.max_queue_bytes &&
        adm_queue_bytes_ > 0) {
      // (A single value larger than the whole budget is still admitted when
      // the queue is empty — rejecting it forever would wedge that client.)
      m_.shed_queue_bytes.inc();
      reply(from, req_id, ReplyCode::kOverloaded);
      return false;
    }
  }
  if (health_ != nullptr && health_->overloaded()) {
    m_.shed_health.inc();
    reply(from, req_id, ReplyCode::kOverloaded);
    return false;
  }
  return true;
}

KvServerStats KvServer::stats() const {
  KvServerStats s;
  s.puts = m_.puts.value();
  s.fast_reads = m_.fast_reads.value();
  s.consistent_reads = m_.consistent_reads.value();
  s.recovery_reads = m_.recovery_reads.value();
  s.ec_degraded_reads = m_.ec_degraded_reads.value();
  s.redirects = m_.redirects.value();
  s.batches_committed = m_.batches_committed.value();
  s.admission_shed =
      m_.shed_inflight.value() + m_.shed_queue_bytes.value() + m_.shed_health.value();
  s.wrong_shard = m_.wrong_shard.value();
  return s;
}

void KvServer::on_message(NodeId from, MsgType type, BytesView payload) {
  if (type == MsgType::kClientRequest) {
    auto req = ClientRequest::decode(payload);
    if (req.is_ok()) handle_client(from, std::move(req).value());
    return;
  }
  if (type == MsgType::kMigrateData) {
    auto m = MigrateDataMsg::decode(payload);
    if (m.is_ok()) handle_migrate_data(from, std::move(m).value());
    return;
  }
  if (type == MsgType::kMigrateAck) {
    auto m = MigrateAckMsg::decode(payload);
    if (m.is_ok() && migration_ != nullptr) {
      migration_->on_migrate_ack(from, m.value());
    }
    return;
  }
  if (type == MsgType::kMigrateCmd) {
    auto m = MigrateCmdMsg::decode(payload);
    if (m.is_ok()) handle_migrate_cmd(m.value());
    return;
  }
  if (type == MsgType::kClientReply) {
    // Replies to the migration driver's own meta-group writes come back
    // addressed to this server endpoint.
    auto m = ClientReply::decode(payload);
    if (m.is_ok() && migration_ != nullptr) {
      migration_->on_client_reply(m.value());
    }
    return;
  }
  replica_.on_message(from, type, payload);
}

void KvServer::reply(NodeId to, uint64_t req_id, ReplyCode code, BytesView value,
                     uint32_t group_hint) {
  ClientReply rep;
  rep.req_id = req_id;
  rep.code = code;
  rep.leader_hint = replica_.leader_hint();
  rep.routing_epoch = routing_ != nullptr ? routing_->epoch() : 0;
  rep.group_hint = group_hint;
  ctx_->send(to, MsgType::kClientReply, rep.encode_with_value(value));
}

uint32_t KvServer::shard_of_key(const std::string& key) const {
  if (routing_ == nullptr) return group_;
  return static_cast<uint32_t>(shard_of(key, routing_->snapshot()->num_shards()));
}

void KvServer::handle_client(NodeId from, ClientRequest req) {
  // Ownership first (any replica knows the map — no need to bounce through
  // the leader of the wrong group), then leadership, then the seal fence.
  uint32_t shard = group_;
  if (routing_ != nullptr && !is_meta_key(req.key)) {
    auto map = routing_->snapshot();
    shard = static_cast<uint32_t>(shard_of(req.key, map->num_shards()));
    uint32_t owner = map->group_of(shard);
    if (owner != group_) {
      m_.wrong_shard.inc();
      reply(from, req.req_id, ReplyCode::kWrongShard, {}, owner);
      return;
    }
  }
  // All consistency-bearing requests go through the leader (§1: "a follower
  // ... redirects all consistent requests to the leader").
  if (!replica_.is_leader()) {
    m_.redirects.inc();
    reply(from, req.req_id, ReplyCode::kNotLeader);
    return;
  }
  // Sealed shard: mid-migration fence. Blocks READS too — after the routing
  // flip the destination serves newer writes, so a leader-local read here
  // could travel back in time (DESIGN.md §14 fencing argument).
  if (!sealed_.empty() && sealed_.count(shard) > 0 && !is_meta_key(req.key)) {
    reply(from, req.req_id, ReplyCode::kRetry);
    return;
  }
  switch (req.op) {
    case ClientOp::kPut:
      if (!admit(from, req.req_id, req.value.size(), /*replicating=*/true)) return;
      do_put(from, std::move(req));
      return;
    case ClientOp::kGet:
      if (!admit(from, req.req_id, 0, /*replicating=*/false)) return;
      do_fast_get(from, std::move(req));
      return;
    case ClientOp::kConsistentGet:
      if (!admit(from, req.req_id, 0, /*replicating=*/true)) return;
      do_consistent_get(from, std::move(req));
      return;
    case ClientOp::kDelete:
      if (!admit(from, req.req_id, 0, /*replicating=*/true)) return;
      do_delete(from, std::move(req));
      return;
  }
}

void KvServer::do_put(NodeId from, ClientRequest req) {
  m_.puts.inc();
  uint32_t shard = shard_of_key(req.key);
  admission_acquire(req.value.size());
  shard_inflight_acquire(shard);
  submit_write(from, req.req_id, Op::kPut, std::move(req.key), std::move(req.value), shard);
}

void KvServer::do_delete(NodeId from, ClientRequest req) {
  // "Delete operations are treated as write(key, NULL)" (§4.4).
  uint32_t shard = shard_of_key(req.key);
  admission_acquire(0);
  shard_inflight_acquire(shard);
  submit_write(from, req.req_id, Op::kDelete, std::move(req.key), Bytes{}, shard);
}

void KvServer::submit_write(NodeId from, uint64_t req_id, Op op, std::string key, Bytes value,
                            uint32_t shard) {
  // Meta keys bypass batching: the routing map must never hide inside a
  // composite instance (followers publish it via a single-slot recovery).
  // A value at the cap goes alone. Either way the open batch goes first, so
  // slots keep arrival order.
  if (is_meta_key(key) || value.size() >= kBatchMaxBytes) {
    flush_batch();
    propose_write(from, req_id, op, std::move(key), std::move(value), shard);
    return;
  }
  batch_.bytes += value.size();
  batch_.items.push_back(BatchItem{op, std::move(key), 0, value.size()});
  batch_.values.push_back(std::move(value));
  batch_.waiters.push_back(BatchWaiter{from, req_id, shard, obs::current_span()});
  if (batch_.bytes >= kBatchMaxBytes || batch_.items.size() >= kBatchMaxCount) {
    flush_batch();
    return;
  }
  if (batch_timer_ == 0) {
    batch_timer_ = ctx_->set_timer(kv_opts_.batch_window, [this] {
      batch_timer_ = 0;
      flush_batch();
    });
  }
}

void KvServer::propose_write(NodeId from, uint64_t req_id, Op op, std::string key, Bytes value,
                             uint32_t shard) {
  CommandHeader h;
  h.op = op;
  h.key = std::move(key);
  size_t bytes = value.size();
  replica_.propose(h.encode(), std::move(value),
                   [this, from, req_id, bytes, shard](StatusOr<consensus::Slot> r) {
                     admission_release(bytes);
                     shard_inflight_release(shard);
                     reply(from, req_id, r.is_ok() ? ReplyCode::kOk : ReplyCode::kRetry);
                   });
}

void KvServer::flush_batch() {
  if (batch_timer_ != 0) {
    ctx_->cancel_timer(batch_timer_);
    batch_timer_ = 0;
  }
  if (batch_.items.empty()) return;
  PendingBatch batch;
  std::swap(batch, batch_);
  // The instance joins the first write's trace, as that write's own
  // proposal would have.
  obs::SpanScope scope(batch.waiters.front().span);
  if (batch.items.size() == 1) {
    const BatchWaiter& w = batch.waiters.front();
    propose_write(w.client, w.req_id, batch.items.front().op,
                  std::move(batch.items.front().key), std::move(batch.values.front()),
                  w.shard);
    return;
  }
  Bytes payload;
  payload.reserve(batch.bytes);
  for (size_t i = 0; i < batch.items.size(); ++i) {
    batch.items[i].offset = payload.size();
    payload.insert(payload.end(), batch.values[i].begin(), batch.values[i].end());
  }
  batch.values.clear();
  BatchHeader h;
  h.items = std::move(batch.items);
  replica_.propose(h.encode(), std::move(payload),
                   [this, waiters = std::move(batch.waiters),
                    batch_bytes = batch.bytes](StatusOr<consensus::Slot> r) {
                     ReplyCode code = r.is_ok() ? ReplyCode::kOk : ReplyCode::kRetry;
                     if (r.is_ok()) {
                       m_.batches_committed.inc();
                       // The first write's trace holds the commit; each other
                       // write's records which instance carried it.
                       obs::Tracer& tracer = obs::Tracer::global();
                       const auto now = static_cast<int64_t>(ctx_->now());
                       const obs::SpanName name("batched", static_cast<uint32_t>(r.value()));
                       for (size_t i = 1; i < waiters.size(); ++i) {
                         tracer.end_span(
                             tracer.start_span(waiters[i].span, name, ctx_->id(), now), now);
                       }
                     }
                     // Each waiter acquired one inflight slot; together they
                     // acquired the batch's payload bytes.
                     for (size_t i = 0; i < waiters.size(); ++i) {
                       admission_release(i == 0 ? batch_bytes : 0);
                       shard_inflight_release(waiters[i].shard);
                     }
                     for (const BatchWaiter& w : waiters) {
                       reply(w.client, w.req_id, code);
                     }
                   });
}

void KvServer::do_fast_get(NodeId from, ClientRequest req) {
  // Fast read is only safe while the lease holds (§4.3/§4.4); otherwise fall
  // back to a consistent read rather than risk stale data.
  if (!replica_.lease_valid()) {
    do_consistent_get(from, std::move(req));
    return;
  }
  m_.fast_reads.inc();
  finish_get(from, req.req_id, req.key);
}

void KvServer::do_consistent_get(NodeId from, ClientRequest req) {
  m_.consistent_reads.inc();
  admission_acquire(0);
  // Preserve client-visible order: everything queued for batching commits
  // before the read marker.
  flush_batch();
  CommandHeader h;
  h.op = Op::kReadMarker;
  h.key = req.key;
  uint64_t req_id = req.req_id;
  std::string key = req.key;
  replica_.propose(h.encode(), Bytes{},
                   [this, from, req_id, key](StatusOr<consensus::Slot> r) {
                     admission_release(0);
                     if (!r.is_ok()) {
                       reply(from, req_id, ReplyCode::kRetry);
                       return;
                     }
                     finish_get(from, req_id, key);
                   });
}

void KvServer::finish_get(NodeId from, uint64_t req_id, const std::string& key) {
  const LocalStore::Record* rec = store_.find(key);
  if (rec == nullptr) {
    reply(from, req_id, ReplyCode::kNotFound);
    return;
  }
  if (rec->complete) {
    reply(from, req_id, ReplyCode::kOk, rec->value());
    return;
  }
  // Recovery read (§4.4): this (new) leader only has a coded share of the
  // value; gather >= X shares from the group, decode, cache, reply. "The
  // cost of a recovery read is similar to a write."
  m_.recovery_reads.inc();
  m_.ec_degraded_reads.inc();
  uint64_t slot = rec->slot;
  uint64_t off = rec->slice_off;
  uint64_t len = rec->slice_len;
  replica_.recover_payload(slot, [this, from, req_id, key, slot, off,
                                  len](StatusOr<SharedBytes> r) {
    if (!r.is_ok()) {
      reply(from, req_id, ReplyCode::kRetry);
      return;
    }
    SharedBytes payload = std::move(r).value();
    if (off + len > payload.size()) {
      reply(from, req_id, ReplyCode::kRetry);
      return;
    }
    // The key's value is a slice of the (possibly batched) instance payload.
    // An unbatched row references the decoded buffer the log caches; a
    // batched one copies its slice, so it never pins the whole instance.
    BytesView value(payload.data() + off, len);
    const LocalStore::Record* cur = store_.find(key);
    if (cur != nullptr && cur->slot == slot && !cur->complete) {
      if (len == payload.size()) {
        store_.put_complete(key, payload, slot);
      } else {
        store_.put_complete(key, SharedBytes(Bytes(value.begin(), value.end())), slot);
      }
    }
    reply(from, req_id, ReplyCode::kOk, value);
  });
}

void KvServer::apply_entry(const ApplyView& view) {
  rehome_sliced_rows();
  auto op = peek_op(*view.header);
  if (!op.is_ok()) {
    RSP_ERROR << "kv: undecodable command header at slot " << view.slot;
    return;
  }
  if (op.value() == Op::kBatch) {
    apply_batch(view);
    return;
  }
  auto h = CommandHeader::decode(*view.header);
  if (!h.is_ok()) {
    RSP_ERROR << "kv: undecodable command header at slot " << view.slot;
    return;
  }
  const CommandHeader& cmd = h.value();
  switch (cmd.op) {
    case Op::kPut:
      if (view.full_payload != nullptr) {
        store_.put_complete(cmd.key, *view.full_payload, view.slot);
      } else {
        store_.put_share(cmd.key, view.share->data, view.share->value_len, view.slot,
                         0, view.share->value_len);
      }
      note_applied_write(cmd.key);
      maybe_publish_routing(view, 0, view.full_payload != nullptr
                                         ? view.full_payload->size()
                                         : (view.share != nullptr ? view.share->value_len : 0));
      return;
    case Op::kDelete:
      store_.erase(cmd.key);
      note_applied_write(cmd.key);
      return;
    case Op::kShardSeal:
    case Op::kShardUnseal:
    case Op::kShardGc:
      apply_shard_ctl(cmd.op, cmd.key);
      return;
    case Op::kReadMarker:
    case Op::kBatch:
      return;  // marker / handled above
  }
}

void KvServer::apply_batch(const ApplyView& view) {
  auto h = BatchHeader::decode(*view.header);
  if (!h.is_ok()) {
    RSP_ERROR << "kv: undecodable batch header at slot " << view.slot;
    return;
  }
  for (const BatchItem& item : h.value().items) {
    if (item.op == Op::kDelete) {
      store_.erase(item.key);
      note_applied_write(item.key);
      continue;
    }
    if (view.full_payload != nullptr) {
      if (item.offset + item.len > view.full_payload->size()) continue;
      store_.put_complete(item.key, *view.full_payload, view.slot, item.offset, item.len);
    } else {
      // Follower: every touched key references the one instance share, with
      // the key's slice coordinates; a recovery read decodes the instance
      // payload once and slices out the value.
      store_.put_share(item.key, view.share->data, view.share->value_len, view.slot,
                       item.offset, item.len);
    }
    note_applied_write(item.key);
    if (item.key == kRoutingKey) maybe_publish_routing(view, item.offset, item.len);
  }
  if (track_sliced_ && view.full_payload != nullptr && h.value().items.size() > 1) {
    std::vector<std::string> keys;
    keys.reserve(h.value().items.size());
    for (BatchItem& item : h.value().items) {
      if (item.op == Op::kPut) keys.push_back(std::move(item.key));
    }
    sliced_.emplace_back(view.slot, std::move(keys));
  }
}

void KvServer::rehome_sliced_rows() {
  const consensus::Slot floor = replica_.payload_floor();
  while (!sliced_.empty() && sliced_.front().first <= floor) {
    const consensus::Slot slot = sliced_.front().first;
    for (const std::string& key : sliced_.front().second) {
      const LocalStore::Record* rec = store_.find(key);
      // Rows since overwritten, deleted or already exact-size are left alone.
      if (rec == nullptr || !rec->complete || rec->slot != slot ||
          rec->data.size() == rec->slice_len) {
        continue;
      }
      BytesView value = rec->value();
      store_.put_complete(key, SharedBytes(Bytes(value.begin(), value.end())), slot);
    }
    sliced_.pop_front();
  }
}

void KvServer::note_applied_write(const std::string& key) {
  if (is_meta_key(key)) return;
  if (routing_ == nullptr && shard_write_ == nullptr && migration_ == nullptr) return;
  uint32_t shard = shard_of_key(key);
  if (shard_write_) shard_write_(shard);
  if (migration_ != nullptr && !migration_->finished()) {
    migration_->note_applied(shard, key);
  }
}

void KvServer::maybe_publish_routing(const ApplyView& view, uint64_t off, uint64_t len) {
  if (routing_ == nullptr || group_ != kMetaGroup) return;
  // Only the "!routing" row carries the map. Unbatched applies call this for
  // every put; bail early on other keys.
  {
    auto h = peek_op(*view.header);
    if (h.is_ok() && h.value() == Op::kPut) {
      auto cmd = CommandHeader::decode(*view.header);
      if (!cmd.is_ok() || cmd.value().key != kRoutingKey) return;
    }
  }
  if (view.full_payload != nullptr) {
    if (off + len > view.full_payload->size()) return;
    auto m = ShardMap::decode(BytesView(view.full_payload->data() + off, len));
    if (m.is_ok()) routing_->publish(std::move(m).value());
    return;
  }
  // Follower: only a coded share of the map landed here. Recover the full
  // payload (map writes are rare and small — one decode per epoch bump per
  // machine) and publish; also complete the local row so the next client
  // refresh read served from this node (post-failover) has the full value.
  uint64_t slot = view.slot;
  replica_.recover_payload(slot, [this, slot, off, len](StatusOr<SharedBytes> r) {
    if (!r.is_ok()) return;  // transient; the next epoch bump retries
    const SharedBytes& payload = r.value();
    if (off + len > payload.size()) return;
    auto m = ShardMap::decode(BytesView(payload.data() + off, len));
    if (!m.is_ok()) return;
    const LocalStore::Record* cur = store_.find(kRoutingKey);
    if (cur != nullptr && cur->slot == slot && !cur->complete) {
      store_.put_complete(kRoutingKey, payload, slot, off, len);
    }
    routing_->publish(std::move(m).value());
  });
}

void KvServer::apply_shard_ctl(Op op, const std::string& key) {
  uint32_t shard = 0;
  if (!key.empty()) shard = static_cast<uint32_t>(std::strtoul(key.c_str(), nullptr, 10));
  switch (op) {
    case Op::kShardSeal:
      sealed_.insert(shard);
      if (migration_ != nullptr && !migration_->finished()) {
        migration_->note_sealed(shard);
      }
      return;
    case Op::kShardUnseal:
      sealed_.erase(shard);
      return;
    case Op::kShardGc: {
      sealed_.erase(shard);
      if (routing_ == nullptr) return;
      size_t nshards = routing_->snapshot()->num_shards();
      std::vector<std::string> victims;
      store_.for_each([&](const std::string& k, const LocalStore::Record&) {
        if (!is_meta_key(k) && shard_of(k, nshards) == shard) victims.push_back(k);
      });
      for (const std::string& k : victims) store_.erase(k);
      RSP_INFO << "kv node " << ctx_->id() << " GCed " << victims.size()
               << " rows of shard " << shard;
      return;
    }
    default:
      return;
  }
}

// State image wire format: varint row count, then per row: key (str), last
// write slot (varint), complete value (bytes); then a trailing-optional
// sealed-shard section (varint count + varint shard ids) so the migration
// fence survives checkpoint-truncated WALs. Rows are emitted in map order,
// so the image (and thus every fragment and CRC) is deterministic.
StatusOr<Bytes> KvServer::build_state() const {
  if (store_.incomplete_count() != 0) {
    return Status::unavailable("share-only rows present; state image needs full values");
  }
  Writer w(64 + store_.resident_bytes());
  w.varint(store_.size());
  store_.for_each([&](const std::string& key, const LocalStore::Record& rec) {
    w.str(key);
    w.varint(rec.slot);
    w.bytes(rec.value());
  });
  w.varint(sealed_.size());
  for (uint32_t s : sealed_) w.varint(s);
  return w.take();
}

void KvServer::install_state(BytesView image, consensus::Slot snap_slot) {
  Reader r(image);
  uint64_t count = 0;
  if (!r.varint(count).is_ok()) {
    RSP_ERROR << "kv: undecodable state image header";
    return;
  }
  const bool full = replica_.last_applied() <= snap_slot;
  if (full) store_ = LocalStore{};
  uint64_t upgraded = 0;
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    uint64_t slot = 0;
    Bytes value;
    if (!r.str(key).is_ok() || !r.varint(slot).is_ok() || !r.bytes(value).is_ok()) {
      RSP_ERROR << "kv: truncated state image at row " << i;
      return;
    }
    if (full) {
      store_.put_complete(key, SharedBytes(std::move(value)), slot);
      ++upgraded;
    } else {
      const LocalStore::Record* rec = store_.find(key);
      if (rec != nullptr && !rec->complete && rec->slot == slot) {
        store_.put_complete(key, SharedBytes(std::move(value)), slot);
        ++upgraded;
      }
    }
  }
  // Trailing-optional sealed-shard section (images cut before resharding
  // simply end here). Full install adopts it; upgrade mode merges (the local
  // log may have applied seals past the image's barrier).
  if (!r.done()) {
    uint64_t nsealed = 0;
    if (r.varint(nsealed).is_ok() && nsealed <= (1u << 20)) {
      std::set<uint32_t> sealed;
      bool ok = true;
      for (uint64_t i = 0; i < nsealed && ok; ++i) {
        uint64_t s = 0;
        ok = r.varint(s).is_ok();
        if (ok) sealed.insert(static_cast<uint32_t>(s));
      }
      if (ok) {
        if (full) {
          sealed_ = std::move(sealed);
        } else {
          sealed_.insert(sealed.begin(), sealed.end());
        }
      }
    }
  }
  RSP_INFO << "kv node " << ctx_->id() << (full ? " installed " : " upgraded ")
           << upgraded << "/" << count << " rows from snapshot at slot " << snap_slot;
}

void KvServer::on_config_change(const GroupConfig& old_cfg, const GroupConfig& new_cfg,
                                ReencodeAction action) {
  (void)old_cfg;
  (void)new_cfg;
  if (action == ReencodeAction::kRecode && replica_.is_leader()) {
    reseal_all();
  }
}

void KvServer::shard_inflight_acquire(uint32_t shard) { ++shard_inflight_[shard]; }

void KvServer::shard_inflight_release(uint32_t shard) {
  auto it = shard_inflight_.find(shard);
  if (it == shard_inflight_.end()) return;
  if (--it->second == 0) shard_inflight_.erase(it);
}

void KvServer::start_migration(uint32_t shard, uint32_t to_group) {
  if (routing_ == nullptr || !replica_.is_leader()) return;
  if (migration_active()) return;
  auto map = routing_->snapshot();
  if (shard >= map->num_shards() || to_group >= map->num_groups) return;
  if (map->group_of(shard) != group_ || to_group == group_) return;
  if (map->migration_of(shard) != nullptr) return;
  // Unique per attempt (fences stale chunk traffic at the dest): local clock
  // salted with the node id and a per-server counter.
  static uint64_t seq = 0;
  uint64_t id = (static_cast<uint64_t>(ctx_->now()) << 12) ^
                (static_cast<uint64_t>(ctx_->id()) << 4) ^ ++seq;
  if (id == 0) id = 1;
  RSP_INFO << "kv node " << ctx_->id() << " starting migration of shard " << shard
           << " from group " << group_ << " to group " << to_group << " (id " << id
           << ")";
  migration_ = std::make_unique<MigrationDriver>(this, shard, to_group, id);
  migration_->start();
}

void KvServer::handle_migrate_cmd(const MigrateCmdMsg& msg) {
  // Balancer broadcast: only the source group's current leader acts.
  if (!replica_.is_leader()) return;
  start_migration(msg.shard, msg.to_group);
}

void KvServer::handle_migrate_data(NodeId from, MigrateDataMsg msg) {
  MigrateAckMsg ack;
  ack.migration_id = msg.migration_id;
  ack.seq = msg.seq;
  if (!replica_.is_leader()) {
    ack.status = MigrateAckMsg::kNotLeader;
    ack.leader_hint = replica_.leader_hint();
    ctx_->send(from, MsgType::kMigrateAck, ack.encode());
    return;
  }
  uint64_t last = mig_last_seq_[msg.migration_id];
  if (msg.seq <= last) {
    // Duplicate of a chunk this leader already committed — re-ack. (The map
    // is volatile: a fresh dest leader re-commits the in-flight chunk, which
    // is idempotent — same keys, same values.)
    ack.status = MigrateAckMsg::kOk;
    ctx_->send(from, MsgType::kMigrateAck, ack.encode());
    return;
  }
  if (msg.flags & MigrateDataMsg::kFirst) {
    // A previous aborted attempt may have parked orphan rows here — among
    // them rows for keys since deleted at the source. Drop them in OUR log
    // before the first chunk lands so dead keys cannot resurrect.
    CommandHeader gc;
    gc.op = Op::kShardGc;
    gc.key = std::to_string(msg.shard);
    replica_.propose(gc.encode(), Bytes{}, nullptr);
  }
  uint64_t mid = msg.migration_id;
  uint64_t seq = msg.seq;
  replica_.propose(std::move(msg.header), std::move(msg.payload),
                   [this, from, mid, seq](StatusOr<consensus::Slot> r) {
                     if (!r.is_ok()) return;  // deposed mid-commit; source retries
                     uint64_t& last = mig_last_seq_[mid];
                     if (seq > last) last = seq;
                     MigrateAckMsg ok;
                     ok.migration_id = mid;
                     ok.seq = seq;
                     ok.status = MigrateAckMsg::kOk;
                     ctx_->send(from, MsgType::kMigrateAck, ok.encode());
                   });
}

void KvServer::on_role_change(bool is_leader) {
  if (!is_leader) {
    // The driver must run on the source leader: go quiescent locally. The
    // migration record stays in the map; the NEXT leader's janitor aborts it.
    if (migration_ != nullptr && !migration_->finished()) migration_->cancel();
    if (janitor_timer_ != 0) {
      ctx_->cancel_timer(janitor_timer_);
      janitor_timer_ = 0;
    }
    return;
  }
  if (routing_ != nullptr && janitor_timer_ == 0) {
    janitor_timer_ = ctx_->set_timer(500 * kMillis, [this] {
      janitor_timer_ = 0;
      migration_janitor();
    });
  }
}

void KvServer::migration_janitor() {
  if (!replica_.is_leader() || routing_ == nullptr) return;
  auto map = routing_->snapshot();
  // Orphaned migration out of this group with no live driver — the previous
  // source leader crashed or was deposed mid-copy. Abort it: unseal if the
  // seal committed, then remove the record from the map. Safe because the
  // destination never serves the shard before the flip, so no acked write
  // can exist only at the dest.
  for (const ShardMigration& mig : map->migrations) {
    if (mig.from_group != group_) continue;
    if (migration_ != nullptr && migration_->id() == mig.id &&
        !migration_->finished()) {
      continue;  // healthy driver on this node
    }
    if (migration_ != nullptr && !migration_->finished()) break;  // busy aborting
    RSP_INFO << "kv node " << ctx_->id() << " aborting orphaned migration of shard "
             << mig.shard << " (id " << mig.id << ")";
    migration_ = std::make_unique<MigrationDriver>(this, mig.shard, mig.to_group, mig.id);
    migration_->start_abort();
    break;  // one at a time; the next sweep picks up any others
  }
  // Crash between flip and GC: we are sealed on a shard the map says we no
  // longer own and that is not migrating — finish the GC tail.
  std::vector<uint32_t> gone;
  for (uint32_t s : sealed_) {
    if (map->group_of(s) != group_ && map->migration_of(s) == nullptr) gone.push_back(s);
  }
  for (uint32_t s : gone) {
    CommandHeader gc;
    gc.op = Op::kShardGc;
    gc.key = std::to_string(s);
    replica_.propose(gc.encode(), Bytes{}, nullptr);
  }
  if (janitor_timer_ == 0) {
    janitor_timer_ = ctx_->set_timer(500 * kMillis, [this] {
      janitor_timer_ = 0;
      migration_janitor();
    });
  }
}

void KvServer::reseal_all() {
  // Re-commit every complete value under the new coding configuration.
  // Incomplete rows are skipped: their slots still decode under the old θ
  // via recovery read, and the next write re-seals them.
  std::vector<std::pair<std::string, Bytes>> snapshot;
  store_.for_each([&](const std::string& key, const LocalStore::Record& rec) {
    if (rec.complete) snapshot.emplace_back(key, Bytes(rec.value().begin(), rec.value().end()));
  });
  for (auto& [key, value] : snapshot) {
    CommandHeader h;
    h.op = Op::kPut;
    h.key = key;
    replica_.propose(h.encode(), std::move(value), nullptr);
  }
}

}  // namespace rspaxos::kv
