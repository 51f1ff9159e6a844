// Simulated KV cluster assembly (§6.1's testbed in miniature).
//
// A cluster is `num_servers` machines, each a NodeHost (src/node) hosting one
// replica of every Paxos group ("data shards" §4.2). Per machine there is one
// simulated disk and ONE multiplexed SimWal shared by all its groups — group
// commit batches flushes across shards, mirroring FileWal's shared-segment
// layout on the paper's EBS volumes. Endpoint ids are composite: server s,
// group g  ->  NodeId s * kGroupStride + g, so the unmodified consensus stack
// routes per-group traffic.
//
// (Declared under kv/ for historical include paths; the implementation lives
// in src/node/sim_cluster.cpp with the rest of the host-assembly layer, so
// users must link rspaxos_node.)
#pragma once

#include <memory>
#include <vector>

#include "consensus/replica.h"
#include "kv/client.h"
#include "kv/server.h"
#include "net/routing.h"
#include "node/balancer.h"
#include "node/node_host.h"
#include "obs/admin_server.h"
#include "sim/sim_disk.h"
#include "sim/sim_network.h"
#include "sim/sim_world.h"
#include "snapshot/sim_snapshot_store.h"
#include "storage/sim_wal.h"

namespace rspaxos::kv {

// Endpoint math lives in net/routing.h (shared with the TCP host demux);
// these aliases keep existing kv:: spellings working.
using net::kClientBase;
using net::kGroupStride;
using net::endpoint_id;
using net::group_of_endpoint;
using net::server_of_endpoint;

struct SimClusterOptions {
  int num_servers = 5;
  int num_groups = 1;
  /// Key-space shards for elastic resharding. 0 = num_groups (the historical
  /// one-shard-per-group contract as epoch 0 of a live routing table).
  int num_shards = 0;
  /// true: RS-Paxos with QR=QW=N-f, X=N-2f; false: classic majority Paxos.
  bool rs_mode = true;
  int f = 1;  // target fault tolerance for rs_mode
  /// Erasure-code policy for every group (rs_mode only). Non-rs codes must
  /// keep the quorum equation feasible for the derived θ(X,N) — hh is MDS
  /// and always qualifies; lrc only when its any-subset-decodable fits the
  /// quorums (node::cluster_group_config checks; construction asserts).
  ec::CodeId code = ec::CodeId::kRs;
  sim::LinkParams link = sim::LinkParams::lan();
  sim::DiskParams disk = sim::DiskParams::ssd();
  consensus::ReplicaOptions replica;
  KvServerOptions kv;
  /// false: WALs account durable bytes but keep no records (no replay, no
  /// read-back, so the logs keep every share resident); benchmarks that
  /// never restart servers use this to bound host memory.
  bool wal_retain = true;
  /// true: group g's deterministic initial leader campaigns on server
  /// g % num_servers (distinct leaders per shard); false: server 0 leads
  /// every group (the historical default most tests assume).
  bool spread_leaders = false;
  /// Health watchdog configuration forwarded to every NodeHost. Probes run
  /// on sim timers, so lag values stay deterministic.
  obs::HealthOptions health;
  /// Start a per-server admin HTTP endpoint (real socket over the simulated
  /// cluster). Handlers only read thread-safe state — the global registry,
  /// the tracer, and boards published by sim-time probes — never live
  /// protocol state, so the admin thread cannot race the sim thread.
  bool admin = false;
  /// Run a background Balancer on every server (the meta-group leader's is
  /// the one that acts; see node/balancer.h).
  bool balancer = false;
  node::BalancerOptions balancer_opts;
};

/// Owns everything: network, disks, WALs, hosts. Crash/restart a whole
/// machine; rebuild state from the WALs like §4.5 describes.
class SimCluster {
 public:
  SimCluster(sim::SimWorld* world, SimClusterOptions opts);

  /// Runs the simulation until every group has an elected leader.
  void wait_for_leaders(DurationMicros max_wait = 30 * kSeconds);

  KvServer* server(int s, int g) {
    auto& h = hosts_[static_cast<size_t>(s)];
    return h ? h->server(static_cast<uint32_t>(g)) : nullptr;
  }
  node::NodeHost* host(int s) { return hosts_[static_cast<size_t>(s)].get(); }
  node::Balancer* balancer(int s) {
    size_t i = static_cast<size_t>(s);
    return i < balancers_.size() ? balancers_[i].get() : nullptr;
  }
  sim::SimNetwork& network() { return network_; }
  sim::SimDisk& disk(int s) { return *disks_[static_cast<size_t>(s)]; }
  /// Group g's view of server s's machine log (the Wal the replica writes).
  storage::Wal& wal(int s, int g) {
    return *wals_[static_cast<size_t>(s)]->group(static_cast<uint32_t>(g));
  }
  /// Server s's machine log, multiplexed across its groups.
  storage::SimWal& host_wal(int s) { return *wals_[static_cast<size_t>(s)]; }
  snapshot::SimSnapshotStore& snap_store(int s, int g) { return *snaps_[idx(s, g)]; }
  const SimClusterOptions& options() const { return opts_; }

  RoutingTable routing() const;

  /// Creates a client endpoint + KvClient bound to it.
  std::unique_ptr<KvClient> make_client(int client_idx, KvClient::Options copts = {});

  /// Machine-level crash (§6.4): all groups on the server stop; unflushed
  /// WAL records are lost; volatile state is destroyed.
  void crash_server(int s);
  /// Restart: replay the WALs, rejoin all groups.
  void restart_server(int s);
  bool server_alive(int s) const { return alive_[static_cast<size_t>(s)]; }

  /// -1 if no (live) leader.
  int leader_server_of(int group) const;

  /// Bound admin port of server s (0 when options().admin is false or the
  /// server is crashed).
  uint16_t admin_port(int s) const {
    size_t i = static_cast<size_t>(s);
    return i < admins_.size() && admins_[i] ? admins_[i]->port() : 0;
  }

  // Cost metrics across the whole cluster (the paper's two cost axes).
  uint64_t total_network_bytes() const;
  uint64_t total_flushed_bytes() const;
  uint64_t total_flush_ops() const;

 private:
  size_t idx(int s, int g) const {
    return static_cast<size_t>(s) * static_cast<size_t>(opts_.num_groups) +
           static_cast<size_t>(g);
  }
  void build_host(int s, bool initial);
  void start_admin(int s);

  sim::SimWorld* world_;
  SimClusterOptions opts_;
  sim::SimNetwork network_;
  std::vector<std::unique_ptr<sim::SimDisk>> disks_;                // per server
  std::vector<std::unique_ptr<storage::SimWal>> wals_;              // per server
  std::vector<std::unique_ptr<snapshot::SimSnapshotStore>> snaps_;  // per (s, g)
  std::vector<std::unique_ptr<node::NodeHost>> hosts_;              // per server
  std::vector<std::unique_ptr<node::Balancer>> balancers_;          // per server
  std::vector<std::unique_ptr<obs::AdminServer>> admins_;           // per server
  std::vector<bool> alive_;
  int next_client_ = 0;
};

}  // namespace rspaxos::kv
