// KV client: shard routing (§4.2), leader tracking, retry/redirect, and a
// fully pipelined dispatch path.
//
// "On client startup, it firstly gathers the information that which replica
// is the leader of each data shard, and saves this information in its local
// cache. Clients send their requests to the leaders." (§4.4)
//
// Pipelining: the client keeps up to Options::max_inflight operations on the
// wire simultaneously (out-of-order completion keyed by req_id); further
// submissions queue client-side until a window slot frees. The outstanding
// table is a SlabMap (contiguous slab + free-list — no per-op allocation on
// the reply hot path), and all per-op deadlines (request timeouts, redirect
// and overload backoff waits) coalesce into ONE timing-wheel sweep timer
// instead of one armed loop timer per op. kOverloaded replies from server
// admission control are retried after a jittered exponential backoff.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "kv/command.h"
#include "kv/shard_map.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/slab_map.h"
#include "util/timing_wheel.h"

namespace rspaxos::kv {

/// Version of the routing-hash contract implemented by shard_of. Bump ONLY
/// with a data migration plan: every client and tool must map a key to the
/// same shard, and golden vectors (kv_test) pin the current version.
///   v1: FNV-1a 64 over the key bytes, reduced with `h % num_shards`
///       (biased toward low shards when num_shards is not a power of two).
///   v2 (current): FNV-1a 64 (offset 14695981039346656037, prime
///       1099511628211), then the murmur3 fmix64 finalizer (xor-shift 33 /
///       * ff51afd7ed558ccd / xor-shift 33 / * c4ceb9fe1a85ec53 / xor-shift
///       33), reduced with the Lemire multiply-shift
///       `(uint128(h) * num_shards) >> 64` — unbiased for every shard count
///       and cheaper than the modulo. The finalizer matters: the reduction
///       reads the high bits, which raw FNV leaves nearly constant across
///       short similar keys.
inline constexpr uint32_t kShardHashVersion = 2;

/// Deterministic key -> shard mapping (§4.2: "defined by a deterministic
/// mapping function"). See kShardHashVersion for the exact contract.
size_t shard_of(const std::string& key, size_t num_shards);

/// Client routing state: the (static) server endpoints of every Paxos group
/// plus the (versioned, migration-aware) shard -> group map. The membership
/// half never changes at runtime; the map half is refreshed from kWrongShard
/// redirects and the routing epoch piggybacked on replies (DESIGN.md §14).
struct RoutingTable {
  std::vector<std::vector<NodeId>> group_members;  // per group
  ShardMap map;                                    // shard -> owning group

  size_t num_shards() const { return map.num_shards(); }
  size_t num_groups() const { return group_members.size(); }
  const std::vector<NodeId>& members_of_group(uint32_t g) const {
    return group_members[g < group_members.size() ? g : 0];
  }
  const std::vector<NodeId>& members_for(const std::string& key) const {
    if (is_meta_key(key)) return members_of_group(kMetaGroup);
    return members_of_group(map.group_of(shard_of(key, map.num_shards())));
  }
};

/// Asynchronous pipelined client. Callers may issue any number of concurrent
/// operations; at most Options::max_inflight are on the wire at once and the
/// rest wait in a client-side queue. Retries on timeout / kRetry; follows
/// kNotLeader hints; backs off exponentially (with jitter) on kOverloaded.
/// Not thread-safe: like all protocol objects, a KvClient lives on its
/// node's execution context. Over a threaded transport (TCP/local), call
/// put/get/del from that node's loop (e.g. `node->loop().post(...)`), never
/// from an outside thread — responses and timeouts already run there.
class KvClient final : public MessageHandler {
 public:
  using PutFn = std::function<void(Status)>;
  using GetFn = std::function<void(StatusOr<Bytes>)>;

  struct Options {
    DurationMicros request_timeout = 1000 * kMillis;
    int max_attempts = 100;
    /// In-flight window: ops dispatched (or awaiting a scheduled retry)
    /// simultaneously. Submissions beyond it queue client-side in order.
    size_t max_inflight = 256;
  };

  /// Timing-wheel sweep granularity — the error bound on every per-op
  /// deadline. One loop timer fires per tick while any op is outstanding.
  static constexpr DurationMicros kTimerTick = 5 * kMillis;
  /// kOverloaded backoff: kOverloadBackoffBase * 2^n for the n-th overload
  /// of an op, n capped at 7 (640 ms), jittered to [0.5x, 1.5x).
  static constexpr DurationMicros kOverloadBackoffBase = 5 * kMillis;

  struct Stats {
    uint64_t completed = 0;          // ops finished ok / not-found
    uint64_t failed = 0;             // ops failed definitively
    uint64_t overload_backoffs = 0;  // kOverloaded replies absorbed
    uint64_t timeouts = 0;           // per-attempt timeouts fired
    uint64_t wrong_shard = 0;        // kWrongShard redirects followed
    uint64_t routing_refreshes = 0;  // full "!routing" map fetches issued
  };

  KvClient(NodeContext* ctx, RoutingTable routing, Options opts);
  KvClient(NodeContext* ctx, RoutingTable routing);
  ~KvClient() override;

  void put(const std::string& key, Bytes value, PutFn cb);
  void get(const std::string& key, GetFn cb);
  void consistent_get(const std::string& key, GetFn cb);
  void del(const std::string& key, PutFn cb);

  void on_message(NodeId from, MsgType type, BytesView payload) override;

  /// Fails every outstanding and queued op with `st` (callbacks run inline)
  /// and disarms the sweep timer. After this the client is quiescent — safe
  /// to destroy even mid-workload. Loop thread only. Required before
  /// destroying a client whose loop will outlive it (the destructor itself
  /// never touches the context: it may already be gone in the established
  /// transport-first teardown order).
  void cancel_all(Status st);

  uint64_t ops_completed() const { return stats_.completed; }
  const Stats& stats() const { return stats_; }
  /// Ops occupying window slots (on the wire or in a retry wait).
  size_t inflight() const { return inflight_; }
  /// Ops submitted but still waiting for a window slot.
  size_t queued() const { return queue_.size(); }

  /// Cached leader endpoint for `shard` (kNoNode while unknown). Updated from
  /// replies and redirect hints; a failover on one shard must never disturb
  /// another shard's entry.
  NodeId cached_leader(size_t shard) const {
    return shard < leader_cache_.size() ? leader_cache_[shard] : kNoNode;
  }
  /// Routing epoch of the map this client currently dispatches with.
  uint64_t routing_epoch() const { return routing_.map.epoch; }
  const RoutingTable& routing() const { return routing_; }
  /// Adopts `m` iff strictly newer, invalidating the leader cache of exactly
  /// the shards whose owning group changed. Exposed for tests.
  void adopt_map(ShardMap m);

 private:
  enum class OpState : uint8_t {
    kQueued,     // waiting for a window slot; no armed deadline
    kInflight,   // dispatched; deadline = per-attempt request timeout
    kWaitRetry,  // backoff / redirect pause; deadline = when to re-dispatch
  };

  struct Outstanding {
    ClientRequest req;
    size_t shard = 0;
    bool meta = false;  // '!' key: pinned to the meta group, meta_leader_ cache
    int attempts = 0;
    int overloads = 0;  // consecutive kOverloaded replies (backoff exponent)
    size_t next_member = 0;  // round-robin fallback when no leader known
    OpState state = OpState::kQueued;
    /// Guards wheel entries: an entry only acts if its gen matches. Bumping
    /// the gen is how superseded deadlines are (lazily) cancelled.
    uint32_t timer_gen = 0;
    PutFn put_cb;
    GetFn get_cb;
    /// Root "client_rpc" span covering the whole user-visible request,
    /// retries and redirects included; the server-side commit tree hangs
    /// under it via frame-header propagation.
    obs::SpanContext span;
  };

  void submit(Outstanding&& o);
  void dispatch(uint64_t req_id);
  /// Arms the wheel for `o` and re-arms the sweep timer if needed.
  void schedule_event(uint64_t req_id, Outstanding& o, DurationMicros delay,
                      OpState state);
  void on_tick();
  void arm_tick();
  /// Completes `req_id` (removing it from the table and freeing its window
  /// slot), invokes its callback, then admits queued ops into the window.
  void finish(uint64_t req_id, Status st, Bytes value, bool found);
  void drain_queue();
  NodeId pick_target(Outstanding& o);
  void set_inflight_gauge();
  /// The leader-cache slot `o` routes through (per-shard entry, or the
  /// dedicated meta-group slot for '!' keys).
  NodeId& leader_slot(Outstanding& o);
  /// Notes a piggybacked routing epoch; schedules one "!routing" fetch when
  /// the server knows a newer map than we dispatch with.
  void note_epoch(uint64_t epoch);
  void refresh_routing();

  NodeContext* ctx_;
  RoutingTable routing_;
  Options opts_;
  uint64_t next_req_id_ = 1;
  Stats stats_;
  SlabMap<Outstanding> outstanding_;
  std::deque<uint64_t> queue_;  // req_ids in kQueued state, FIFO
  size_t inflight_ = 0;
  TimingWheel wheel_;
  NodeContext::TimerId tick_timer_ = 0;
  std::vector<TimingWheel::Entry> due_;  // scratch for on_tick
  Rng backoff_rng_;
  std::vector<NodeId> leader_cache_;  // per shard; kNoNode if unknown
  NodeId meta_leader_ = kNoNode;      // meta-group leader ('!' keys)
  uint64_t newest_epoch_seen_ = 0;    // highest piggybacked routing epoch
  bool refresh_inflight_ = false;     // at most one "!routing" fetch at a time
  obs::Gauge* inflight_gauge_;
  obs::Gauge* queue_gauge_;
  obs::Counter* overload_counter_;
};

}  // namespace rspaxos::kv
