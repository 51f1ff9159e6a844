// Node host: one process-level "machine" hosting one replica of every Paxos
// group (§4.2's data shards) on one event loop.
//
// A machine is one loop + transport endpoint set + WAL + health watchdog.
// Every group's consensus state is confined to that loop's thread, so no
// locks guard the replicas.
//
// A NodeHost owns G KvServer instances (one per group) and wires each to:
//   * its own transport endpoint — NodeId endpoint_id(server, group) from
//     net/routing.h; on real transports all endpoints of one machine share a
//     socket/loop (the frame envelope's `to` field demuxes);
//   * a per-group Wal view of the machine's multiplexed log (MuxWal), so
//     group commit amortizes fsyncs across every shard of the machine;
//   * a per-group slot of the server's one snapshot store.
//
// The host is transport- and storage-agnostic: SimCluster and the real-TCP
// TcpCluster both assemble machines through it, injecting their endpoint /
// config / snapshot factories and the machine's MuxWal.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "consensus/replica.h"
#include "kv/server.h"
#include "kv/shard_map.h"
#include "net/routing.h"
#include "obs/health.h"
#include "snapshot/snapshot_store.h"
#include "storage/wal.h"

namespace rspaxos::node {

struct NodeHostOptions {
  /// Template for every group's replica; `group_id` and `bootstrap_leader`
  /// are overridden per group by the host.
  consensus::ReplicaOptions replica;
  kv::KvServerOptions kv;
  /// Event-loop / WAL health watchdog (see obs/health.h). One monitor,
  /// running on group 0's endpoint; each probe republishes the machine
  /// status board.
  obs::HealthOptions health;
  /// Key-space shards for elastic resharding (DESIGN.md §14). 0 = one shard
  /// per group (the historical frozen shard==group contract, as epoch 0 of a
  /// live routing table). More shards than groups gives migrations something
  /// to move without splitting key ranges.
  uint32_t num_shards = 0;
};

class NodeHost {
 public:
  /// Resolves a composite endpoint id to its live transport endpoint.
  using EndpointFn = std::function<NodeContext*(NodeId)>;
  /// Group index -> that group's current GroupConfig.
  using ConfigFn = std::function<consensus::GroupConfig(uint32_t)>;
  /// Group index -> durable snapshot slot (may return nullptr: checkpointing
  /// disabled for that group).
  using SnapshotFn = std::function<snapshot::SnapshotStore*(uint32_t)>;
  /// Group index -> should this host campaign immediately (deterministic
  /// initial leader). Empty = never.
  using BootstrapFn = std::function<bool(uint32_t)>;
  /// Runs `fn` on the endpoint's execution context. Empty = invoke inline
  /// (correct for the single-threaded simulator). Threaded transports must
  /// post (e.g. via `ctx->set_timer(0, fn)`) so handler registration and
  /// Replica::start never race the loop thread.
  using PostFn = std::function<void(NodeContext*, std::function<void()>)>;

  /// Group g uses `wal`'s group-local view g.
  NodeHost(int server, uint32_t num_groups, EndpointFn endpoints, storage::MuxWal* wal,
           SnapshotFn snaps, ConfigFn configs, NodeHostOptions opts,
           BootstrapFn bootstrap = {}, PostFn post = {});
  ~NodeHost();

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  /// Builds every group's server, registers it as its endpoint's handler and
  /// starts it (WAL replay + election participation). Call once.
  void start();
  /// Detaches every endpoint's handler and stops the watchdog. After stop()
  /// the transport no longer delivers into this host; safe to destroy.
  void stop();

  int server_index() const { return server_; }
  uint32_t num_groups() const { return num_groups_; }
  kv::KvServer* server(uint32_t g) {
    return g < servers_.size() ? servers_[g].get() : nullptr;
  }
  NodeContext* endpoint(uint32_t g) {
    return g < endpoints_.size() ? endpoints_[g] : nullptr;
  }

  // --- introspection plane ---

  /// Samples the worst per-peer send-queue depth of the loop each health
  /// probe. Set before start().
  void set_queue_sampler(std::function<int64_t()> fn) { queue_sampler_ = std::move(fn); }

  /// nullptr before start().
  obs::HealthMonitor* health() { return health_.get(); }

  /// Last status board (per-group role, ballot, commit/applied indices, log
  /// window, snapshot barrier; the machine WAL's counters) plus the live
  /// health document. "{}" before the first refresh. Any thread — what
  /// /status serves, including when the loop is too wedged to refresh it.
  std::string status_snapshot() const;
  /// The monitor's health document. Any thread. "{}" before start().
  std::string healthz_json() const;
  /// True when the watchdog currently judges the loop stalled.
  bool stalled() const;

  /// Rebuilds the status board. MUST run on the loop thread — this is the
  /// only function that reads replica state, which is loop-confined.
  /// Watchdog probes call it automatically; /status handlers post it before
  /// reading a fresh document.
  void refresh_board();

  // --- elastic resharding (DESIGN.md §14) ---

  /// Machine-wide routing view: the newest ShardMap any of this host's
  /// meta-group applies has published. Thread-safe; never null after
  /// construction.
  kv::RoutingView* routing() { return routing_.get(); }
  const kv::RoutingView* routing() const { return routing_.get(); }
  uint32_t num_shards() const { return num_shards_; }
  /// Total applied writes of `shard` on this machine since boot (balancer
  /// input; relaxed — any thread).
  uint64_t shard_writes(uint32_t shard) const {
    return shard < num_shards_
               ? shard_writes_[shard].load(std::memory_order_relaxed)
               : 0;
  }
  /// JSON document of the current routing view plus this machine's per-shard
  /// write counters (the /routing admin endpoint). Any thread.
  std::string routing_json() const;

 private:
  /// now() of the host's clock: group 0's endpoint, or the monitor's last
  /// probe once stop() detached the endpoints.
  int64_t now_us() const;

  int server_;
  uint32_t num_groups_;
  EndpointFn endpoint_fn_;
  storage::MuxWal* wal_;
  SnapshotFn snap_fn_;
  ConfigFn config_fn_;
  NodeHostOptions opts_;
  BootstrapFn bootstrap_fn_;
  PostFn post_fn_;

  std::vector<NodeContext*> endpoints_;          // per group
  std::vector<std::unique_ptr<kv::KvServer>> servers_;  // per group
  bool started_ = false;

  uint32_t num_shards_ = 0;
  std::unique_ptr<kv::RoutingView> routing_;
  /// Applied-write counters per shard, bumped from the apply path.
  std::unique_ptr<std::atomic<uint64_t>[]> shard_writes_;

  std::function<int64_t()> queue_sampler_;
  std::unique_ptr<obs::HealthMonitor> health_;
  // Status board: written by the watchdog probe (or a posted refresh) on the
  // loop thread, read under the mutex by any-thread readers.
  mutable std::mutex board_mu_;
  std::string board_;  // status document minus its live "health" member
};

}  // namespace rspaxos::node
