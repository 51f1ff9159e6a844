#include "kv/client.h"

#include <cassert>

#include "util/logging.h"

namespace rspaxos::kv {

size_t shard_of(const std::string& key, size_t num_shards) {
  if (num_shards <= 1) return 0;
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  // Contract v2 (kShardHashVersion): finalize, then multiply-shift reduce.
  // The old `h % num_shards` was biased toward low shards for
  // non-power-of-two counts; the Lemire reduction below is unbiased but reads
  // the hash's HIGH bits, where raw FNV barely avalanches for short similar
  // keys — so the murmur3 fmix64 finalizer runs first to spread every input
  // bit across the word. Golden vectors in kv_test pin these outputs.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<size_t>(
      (static_cast<unsigned __int128>(h) * static_cast<unsigned __int128>(num_shards)) >> 64);
}

KvClient::KvClient(NodeContext* ctx, RoutingTable routing, Options opts)
    : ctx_(ctx), routing_(std::move(routing)), opts_(opts),
      wheel_(static_cast<int64_t>(kTimerTick)),
      backoff_rng_(0x5a7f00d5ull ^ (static_cast<uint64_t>(ctx->id()) << 17)) {
  if (routing_.map.num_shards() == 0) {
    // Table built with membership only: default to the epoch-0 one-shard-
    // per-group identity map (the frozen pre-resharding contract).
    routing_.map = ShardMap::identity(
        static_cast<uint32_t>(routing_.num_groups()),
        static_cast<uint32_t>(routing_.num_groups()));
  }
  leader_cache_.assign(routing_.num_shards(), kNoNode);
  auto& reg = obs::MetricsRegistry::global();
  std::string node = std::to_string(ctx_->id());
  inflight_gauge_ = &reg.gauge_family("rsp_client_inflight",
                                      "Client ops currently occupying window slots",
                                      {"node"})
                         .with({node});
  queue_gauge_ = &reg.gauge_family("rsp_client_queue_depth",
                                   "Client ops waiting for a window slot", {"node"})
                      .with({node});
  overload_counter_ =
      &reg.counter_family("rsp_client_overload_backoffs_total",
                          "kOverloaded replies absorbed with a backoff", {"node"})
           .with({node});
}

KvClient::KvClient(NodeContext* ctx, RoutingTable routing)
    : KvClient(ctx, std::move(routing), Options{}) {}

// No teardown: the destructor must not touch ctx_ — established usage
// destroys the transport (and its loops/timers) before the client. An owner
// destroying the client while its loop is still live must call cancel_all()
// on the loop thread first; that disarms the sweep timer.
KvClient::~KvClient() = default;

void KvClient::set_inflight_gauge() {
  inflight_gauge_->set(static_cast<int64_t>(inflight_));
  queue_gauge_->set(static_cast<int64_t>(queue_.size()));
}

void KvClient::put(const std::string& key, Bytes value, PutFn cb) {
  Outstanding o;
  o.req.op = ClientOp::kPut;
  o.req.key = key;
  o.req.value = std::move(value);
  o.put_cb = std::move(cb);
  submit(std::move(o));
}

void KvClient::get(const std::string& key, GetFn cb) {
  Outstanding o;
  o.req.op = ClientOp::kGet;
  o.req.key = key;
  o.get_cb = std::move(cb);
  submit(std::move(o));
}

void KvClient::consistent_get(const std::string& key, GetFn cb) {
  Outstanding o;
  o.req.op = ClientOp::kConsistentGet;
  o.req.key = key;
  o.get_cb = std::move(cb);
  submit(std::move(o));
}

void KvClient::del(const std::string& key, PutFn cb) {
  Outstanding o;
  o.req.op = ClientOp::kDelete;
  o.req.key = key;
  o.put_cb = std::move(cb);
  submit(std::move(o));
}

void KvClient::submit(Outstanding&& o) {
  // Single-loop contract: every mutation of client state must come from the
  // context's own thread. With multi-reactor hosts it became easy to grab a
  // client from the wrong loop — fail loudly instead of silently racing.
  assert(ctx_->on_context_thread());
  o.req.req_id = next_req_id_++;
  o.meta = is_meta_key(o.req.key);
  o.shard = o.meta ? 0 : shard_of(o.req.key, routing_.num_shards());
  uint64_t id = o.req.req_id;
  bool has_slot = inflight_ < opts_.max_inflight;
  o.state = has_slot ? OpState::kInflight : OpState::kQueued;
  outstanding_.emplace(id, std::move(o));
  if (has_slot) {
    ++inflight_;
    set_inflight_gauge();
    dispatch(id);
  } else {
    queue_.push_back(id);
    set_inflight_gauge();
  }
}

NodeId& KvClient::leader_slot(Outstanding& o) {
  return o.meta ? meta_leader_ : leader_cache_[o.shard];
}

NodeId KvClient::pick_target(Outstanding& o) {
  NodeId leader = leader_slot(o);
  uint32_t group = o.meta ? kMetaGroup : routing_.map.group_of(o.shard);
  const auto& members = routing_.members_of_group(group);
  if (leader != kNoNode) return leader;
  NodeId t = members[o.next_member % members.size()];
  o.next_member++;
  return t;
}

void KvClient::dispatch(uint64_t req_id) {
  Outstanding* o = outstanding_.find(req_id);
  if (o == nullptr) return;
  if (++o->attempts > opts_.max_attempts) {
    finish(req_id, Status::timeout("kv request exhausted attempts"), {}, false);
    return;
  }
  NodeId target = pick_target(*o);
  obs::Tracer& tracer = obs::Tracer::global();
  if (!o->span.valid() && tracer.enabled()) {
    o->span = tracer.begin_trace("client_rpc", ctx_->id(),
                                 static_cast<int64_t>(ctx_->now()));
  }
  {
    // The request frame carries the root span, so the leader's commit tree
    // attaches under this client RPC.
    obs::SpanScope scope(o->span);
    ctx_->send(target, MsgType::kClientRequest, o->req.encode());
  }
  schedule_event(req_id, *o, opts_.request_timeout, OpState::kInflight);
}

void KvClient::schedule_event(uint64_t req_id, Outstanding& o, DurationMicros delay,
                              OpState state) {
  o.state = state;
  // Bumping the gen lazily cancels whatever wheel entry was armed before.
  ++o.timer_gen;
  wheel_.add(req_id, o.timer_gen, static_cast<int64_t>(ctx_->now() + delay));
  arm_tick();
}

void KvClient::arm_tick() {
  if (tick_timer_ != 0 || wheel_.empty()) return;
  tick_timer_ = ctx_->set_timer(kTimerTick, [this] { on_tick(); });
}

void KvClient::on_tick() {
  tick_timer_ = 0;
  due_.clear();
  wheel_.advance(static_cast<int64_t>(ctx_->now()), due_);
  for (const TimingWheel::Entry& e : due_) {
    Outstanding* o = outstanding_.find(e.id);
    if (o == nullptr || o->timer_gen != e.gen) continue;  // lazily cancelled
    switch (o->state) {
      case OpState::kInflight:
        // No reply in time: forget the cached leader (ONLY this shard's
        // entry — other shards' leaders are unrelated) and try the next
        // member.
        stats_.timeouts++;
        leader_slot(*o) = kNoNode;
        dispatch(e.id);
        break;
      case OpState::kWaitRetry:
        dispatch(e.id);
        break;
      case OpState::kQueued:
        break;  // queued ops never arm deadlines
    }
  }
  arm_tick();
}

void KvClient::finish(uint64_t req_id, Status st, Bytes value, bool found) {
  Outstanding* o = outstanding_.find(req_id);
  if (o == nullptr) return;
  obs::Tracer::global().end_span(o->span, static_cast<int64_t>(ctx_->now()));
  PutFn put_cb = std::move(o->put_cb);
  GetFn get_cb = std::move(o->get_cb);
  bool occupied_slot = o->state != OpState::kQueued;
  outstanding_.erase(req_id);
  if (occupied_slot && inflight_ > 0) --inflight_;
  if (st.is_ok()) {
    stats_.completed++;
  } else {
    stats_.failed++;
  }
  set_inflight_gauge();
  // Callbacks may submit new ops (closed-loop callers): they see the freed
  // window slot first; whatever is left goes to the queued ops below.
  if (put_cb) put_cb(st);
  if (get_cb) {
    if (!st.is_ok()) {
      get_cb(std::move(st));
    } else if (found) {
      get_cb(std::move(value));
    } else {
      get_cb(Status::not_found("key not found"));
    }
  }
  drain_queue();
}

void KvClient::drain_queue() {
  while (inflight_ < opts_.max_inflight && !queue_.empty()) {
    uint64_t id = queue_.front();
    queue_.pop_front();
    Outstanding* o = outstanding_.find(id);
    if (o == nullptr || o->state != OpState::kQueued) continue;
    o->state = OpState::kInflight;
    ++inflight_;
    set_inflight_gauge();
    dispatch(id);
  }
}

void KvClient::cancel_all(Status st) {
  if (tick_timer_ != 0) {
    ctx_->cancel_timer(tick_timer_);
    tick_timer_ = 0;
  }
  wheel_.clear();
  queue_.clear();
  inflight_ = 0;
  // Collect callbacks first: callbacks may re-enter submit(), which must see
  // a consistent (empty) table.
  std::vector<std::pair<PutFn, GetFn>> cbs;
  obs::Tracer& tracer = obs::Tracer::global();
  outstanding_.for_each([&](uint64_t, Outstanding& o) {
    tracer.end_span(o.span, static_cast<int64_t>(ctx_->now()));
    cbs.emplace_back(std::move(o.put_cb), std::move(o.get_cb));
  });
  outstanding_.clear();
  stats_.failed += cbs.size();
  set_inflight_gauge();
  for (auto& [put_cb, get_cb] : cbs) {
    if (put_cb) put_cb(st);
    if (get_cb) get_cb(st);
  }
}

void KvClient::on_message(NodeId from, MsgType type, BytesView payload) {
  if (type != MsgType::kClientReply) return;
  auto m = ClientReply::decode(payload);
  if (!m.is_ok()) return;
  ClientReply& rep = m.value();
  Outstanding* o = outstanding_.find(rep.req_id);
  if (o == nullptr) return;  // duplicate / late reply
  // A reply for a queued op is impossible (never dispatched); a reply during
  // kWaitRetry is a late duplicate of the attempt we already acted on.
  if (o->state != OpState::kInflight) return;
  note_epoch(rep.routing_epoch);
  // note_epoch may kick off a routing refresh whose submit() grows (and can
  // reallocate) outstanding_ — re-resolve the entry before touching it.
  o = outstanding_.find(rep.req_id);
  if (o == nullptr || o->state != OpState::kInflight) return;

  switch (rep.code) {
    case ReplyCode::kNotLeader: {
      // Follow the hint; if there is none, probe the next member. Only THIS
      // shard's cache entry moves — a migrated/failed-over shard must not
      // nuke unrelated shards' leaders.
      leader_slot(*o) = (rep.leader_hint != kNoNode) ? rep.leader_hint : kNoNode;
      if (rep.leader_hint == kNoNode || rep.leader_hint == from) {
        leader_slot(*o) = kNoNode;
      }
      // Small delay avoids hammering a group mid-election.
      schedule_event(rep.req_id, *o, 10 * kMillis, OpState::kWaitRetry);
      return;
    }
    case ReplyCode::kWrongShard: {
      // The shard moved. Patch just this shard's map entry from the hint
      // (the full map arrives via the refresh note_epoch scheduled above),
      // drop just this shard's cached leader, and retry against the new
      // owning group almost immediately.
      stats_.wrong_shard++;
      if (!o->meta && rep.group_hint != kNoNode &&
          rep.group_hint < routing_.num_groups() &&
          o->shard < routing_.map.shard_group.size()) {
        routing_.map.shard_group[o->shard] = rep.group_hint;
      }
      leader_slot(*o) = kNoNode;
      schedule_event(rep.req_id, *o, 1 * kMillis, OpState::kWaitRetry);
      return;
    }
    case ReplyCode::kRetry: {
      schedule_event(rep.req_id, *o, 20 * kMillis, OpState::kWaitRetry);
      return;
    }
    case ReplyCode::kOverloaded: {
      // Admission control shed us: the leader is alive and correct, just
      // saturated. Keep the leader cache; back off with jittered exponential
      // delay so a fleet of shed clients does not resynchronize into waves.
      stats_.overload_backoffs++;
      overload_counter_->inc();
      int exp = o->overloads < 7 ? o->overloads : 7;
      o->overloads++;
      uint64_t base = static_cast<uint64_t>(kOverloadBackoffBase) << exp;
      // Jitter to [0.5x, 1.5x).
      uint64_t delay = base / 2 + backoff_rng_.next_below(base);
      schedule_event(rep.req_id, *o, static_cast<DurationMicros>(delay),
                     OpState::kWaitRetry);
      return;
    }
    case ReplyCode::kOk:
    case ReplyCode::kNotFound: {
      leader_slot(*o) = from;
      finish(rep.req_id, Status::ok(), std::move(rep.value),
             rep.code == ReplyCode::kOk);
      return;
    }
  }
}

void KvClient::note_epoch(uint64_t epoch) {
  if (epoch > newest_epoch_seen_) newest_epoch_seen_ = epoch;
  if (newest_epoch_seen_ > routing_.map.epoch && !refresh_inflight_) {
    refresh_routing();
  }
}

void KvClient::refresh_routing() {
  refresh_inflight_ = true;
  stats_.routing_refreshes++;
  get(kRoutingKey, [this](StatusOr<Bytes> r) {
    refresh_inflight_ = false;
    if (!r.is_ok()) return;  // not written yet / transient; piggybacks re-arm
    auto m = ShardMap::decode(r.value());
    if (m.is_ok()) adopt_map(std::move(m).value());
  });
}

void KvClient::adopt_map(ShardMap m) {
  if (m.epoch <= routing_.map.epoch) return;
  if (m.num_shards() != routing_.map.num_shards()) {
    // Shard-count changes (split/merge) are not part of this protocol yet;
    // never adopt a map we cannot route the outstanding table against.
    return;
  }
  for (size_t s = 0; s < m.num_shards(); ++s) {
    if (m.shard_group[s] != routing_.map.shard_group[s] &&
        s < leader_cache_.size()) {
      leader_cache_[s] = kNoNode;  // moved shards only; others keep leaders
    }
  }
  routing_.map = std::move(m);
}

}  // namespace rspaxos::kv
