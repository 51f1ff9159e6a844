// Multi-reactor node host: one process-level "machine" hosting one replica of
// every Paxos group (§4.2's data shards), sharded across R reactors.
//
// A reactor is one event loop + transport endpoint set + WAL + health
// watchdog. Groups are placed statically round-robin: group g lives on
// reactor g % R, and every resource the group touches (its endpoint, its WAL
// view, its KvServer) belongs to that reactor, so a group's consensus state
// is confined to exactly one thread — no locks were added anywhere in the
// replica to go multi-core. With R = 1 this collapses to the historical
// single-loop host, byte-for-byte.
//
// A NodeHost owns G KvServer instances (one per group) and wires each to:
//   * its own transport endpoint — NodeId endpoint_id(server, group) from
//     net/routing.h; on real transports all endpoints of one *reactor* share
//     a socket/loop (the frame envelope's `to` field demuxes, and the
//     reactor-aware HostMap routes a frame straight to the owning reactor);
//   * a per-group Wal view of its reactor's multiplexed log (MuxWal), so
//     group commit amortizes fsyncs across the shards of that reactor;
//   * a per-group slot of the server's one snapshot store.
//
// The host is transport- and storage-agnostic: SimCluster and the real-TCP
// TcpCluster both assemble machines through it, injecting their endpoint /
// config / snapshot factories and one MuxWal per reactor.
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
  /// Event-loop / WAL health watchdog (see obs/health.h). One monitor per
  /// reactor, running on that reactor's first endpoint; each probe
  /// republishes the machine status board.
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

  /// `wals` carries one MuxWal per reactor; wals.size() IS the reactor count
  /// (clamped nowhere — callers pick R <= num_groups; extra reactors would
  /// idle). Group g uses wals[g % R]'s group-local view g / R.
  NodeHost(int server, uint32_t num_groups, EndpointFn endpoints,
           std::vector<storage::MuxWal*> wals, SnapshotFn snaps, ConfigFn configs,
           NodeHostOptions opts, BootstrapFn bootstrap = {}, PostFn post = {});
  /// Single-reactor convenience (the historical shape — every test and tool
  /// that predates reactors builds through this).
  NodeHost(int server, uint32_t num_groups, EndpointFn endpoints, storage::MuxWal* wal,
           SnapshotFn snaps, ConfigFn configs, NodeHostOptions opts,
           BootstrapFn bootstrap = {}, PostFn post = {});
  ~NodeHost();

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  /// Builds every group's server, registers it as its endpoint's handler and
  /// starts it (WAL replay + election participation). Call once.
  void start();
  /// Detaches every endpoint's handler and stops the watchdogs. After stop()
  /// the transport no longer delivers into this host; safe to destroy.
  void stop();

  int server_index() const { return server_; }
  uint32_t num_groups() const { return num_groups_; }
  uint32_t num_reactors() const { return static_cast<uint32_t>(wals_.size()); }
  /// Static placement: the reactor that owns group g.
  uint32_t reactor_of(uint32_t g) const { return g % num_reactors(); }
  kv::KvServer* server(uint32_t g) {
    return g < servers_.size() ? servers_[g].get() : nullptr;
  }
  NodeContext* endpoint(uint32_t g) {
    return g < endpoints_.size() ? endpoints_[g] : nullptr;
  }
  storage::MuxWal* wal(uint32_t reactor = 0) {
    return reactor < wals_.size() ? wals_[reactor] : nullptr;
  }

  // --- introspection plane ---

  /// Samples the worst per-peer send-queue depth of `reactor`'s loop each
  /// health probe. Set before start().
  void set_queue_sampler(uint32_t reactor, std::function<int64_t()> fn);
  /// Historical single-loop form: reactor 0.
  void set_queue_sampler(std::function<int64_t()> fn) {
    set_queue_sampler(0, std::move(fn));
  }

  /// nullptr before start().
  obs::HealthMonitor* health(uint32_t reactor = 0) {
    return reactor < health_.size() ? health_[reactor].get() : nullptr;
  }

  /// Live per-group status document (role, ballot, commit/applied indices,
  /// log window, snapshot barrier, owning reactor) plus per-reactor WAL and
  /// health state and the machine placement map. Reads loop-thread-confined
  /// replica state: call on the host's execution context only (any reactor's
  /// loop — replica reads race-free only for groups of the calling reactor;
  /// the board is advisory).
  std::string status_json() const;
  /// Last board published by a watchdog probe (empty JSON object before the
  /// first probe). Any thread — what /status serves when the loop is too
  /// wedged to answer a posted refresh.
  std::string status_snapshot() const;
  /// Machine health summary: worst reactor wins — status is "stalled" if ANY
  /// reactor's watchdog says so — with every reactor's detail inlined. Any
  /// thread. "{}" before start().
  std::string healthz_json() const;
  /// True when any reactor's watchdog currently judges its loop stalled.
  bool stalled() const;

  /// Rebuilds reactor `r`'s slice of the status board (its groups' replica
  /// state + its WAL counters). MUST run on reactor r's loop thread — this
  /// is the only function that reads replica state, which is loop-confined.
  /// Watchdog probes call it automatically; /status handlers post it to
  /// every reactor before composing a fresh document.
  void refresh_board(uint32_t reactor);

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
  /// One reactor's last-published board slice.
  struct ReactorBoard {
    std::vector<std::pair<uint32_t, std::string>> groups;  // (g, json object)
    std::string wal;  // this reactor's wal counters object
    int64_t now_us = 0;
  };
  std::string compose_board_locked() const;  // board_mu_ held

  int server_;
  uint32_t num_groups_;
  EndpointFn endpoint_fn_;
  std::vector<storage::MuxWal*> wals_;  // one per reactor
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
  /// Applied-write counters per shard, bumped from any reactor's apply path.
  std::unique_ptr<std::atomic<uint64_t>[]> shard_writes_;

  std::vector<std::function<int64_t()>> queue_samplers_;       // per reactor
  std::vector<std::unique_ptr<obs::HealthMonitor>> health_;    // per reactor
  // Status board: each slice written by its reactor's watchdog probe on that
  // loop thread, composed under the mutex by any-thread readers.
  mutable std::mutex board_mu_;
  std::vector<ReactorBoard> boards_;  // per reactor
};

}  // namespace rspaxos::node
