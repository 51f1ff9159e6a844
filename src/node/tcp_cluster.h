// Real-TCP multi-group cluster assembly: the NodeHost counterpart of
// SimCluster for the §5 substrate.
//
// Each of the `num_servers` machines is one TcpHost (one listen port and one
// loop thread, via HostMap{kGroupStride}) serving every group, one fsync'ing
// FileWal multiplexed across those groups, one health watchdog and one
// snapshot root (GroupedSnapshotStore). Client endpoints are separate hosts
// with their own ports, matching the routing contract (ids >= kClientBase
// never stride).
//
// Durable state lives under `<data_dir>/s<k>/` (`wal`, `snap`); reopening the
// same directory restarts the cluster from its WALs and snapshots.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kv/client.h"
#include "net/tcp_transport.h"
#include "node/balancer.h"
#include "node/node_host.h"
#include "obs/admin_server.h"
#include "snapshot/snapshot_store.h"
#include "storage/file_wal.h"

namespace rspaxos::node {

struct TcpClusterOptions {
  int num_servers = 3;
  uint32_t num_groups = 1;
  /// Key-space shards for elastic resharding. 0 = num_groups (the historical
  /// one-shard-per-group contract as epoch 0 of a live routing table).
  uint32_t num_shards = 0;
  /// true: RS-Paxos with QR=QW=N-f, X=N-2f; false: classic majority Paxos.
  bool rs_mode = true;
  int f = 1;  // target fault tolerance for rs_mode
  /// Erasure-code policy for every group (rs_mode only). start() fails with
  /// an invalid status when the resulting config does not validate (hh always
  /// does — MDS), as it does when num_servers - 2f < 1.
  ec::CodeId code = ec::CodeId::kRs;
  /// Client ports are reserved up front alongside the server ports (ports
  /// cannot be grown later without re-racing free_ports).
  int num_clients = 1;
  consensus::ReplicaOptions replica;
  kv::KvServerOptions kv;
  int64_t wal_group_commit_window_us = 200;
  /// Root of all durable state; server s uses `<data_dir>/s<s>/`. Required.
  std::string data_dir;
  /// true: group g's deterministic initial leader campaigns on server
  /// g % num_servers (spreads leader load); false: server 0 leads everything.
  bool spread_leaders = true;
  /// Start a per-server admin HTTP endpoint serving GET /metrics, /status,
  /// /healthz and /traces/recent on 127.0.0.1 (ephemeral port unless
  /// admin_base_port is set; read back via admin_port(s)).
  bool admin = false;
  /// 0 = ephemeral; otherwise server s binds admin_base_port + s.
  uint16_t admin_base_port = 0;
  /// Health watchdog configuration forwarded to every NodeHost.
  obs::HealthOptions health;
  /// Run a background Balancer on every server (the meta-group leader's is
  /// the one that acts; see node/balancer.h).
  bool balancer = false;
  BalancerOptions balancer_opts;
};

/// Owns the transport, per-server WALs/snapshot stores and NodeHosts. start()
/// brings every server up; the destructor tears down in the safe order
/// (handlers detached, loop threads joined, then state freed).
class TcpCluster {
 public:
  static StatusOr<std::unique_ptr<TcpCluster>> start(TcpClusterOptions opts);
  ~TcpCluster();

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  const TcpClusterOptions& options() const { return opts_; }
  NodeHost& host(int s) { return *hosts_[static_cast<size_t>(s)]; }
  Balancer* balancer(int s) {
    size_t i = static_cast<size_t>(s);
    return i < balancers_.size() ? balancers_[i].get() : nullptr;
  }
  kv::KvServer* server(int s, uint32_t g) { return hosts_[static_cast<size_t>(s)]->server(g); }
  net::TcpNode* endpoint(int s, uint32_t g);
  /// Server s's multiplexed log (its groups share the flushes).
  storage::FileWal& wal(int s) { return *wals_[static_cast<size_t>(s)]; }
  /// The server's one snapshot root (per-group slots inside).
  snapshot::GroupedSnapshotStore& snap_store(int s) {
    return *snaps_[static_cast<size_t>(s)];
  }

  kv::RoutingTable routing() const;
  /// Claims the next client endpoint (its own socket + loop); its port was
  /// bound at start(). Fails after options().num_clients claims.
  StatusOr<net::TcpNode*> start_client();

  /// Test hook: replaces TcpTransport::free_ports as the source of the ports
  /// start() binds (an empty function restores it). Set it before start().
  static void set_port_source_for_test(std::function<std::vector<uint16_t>(size_t)> fn);

  /// Which server currently leads group g (-1 when none); polls each
  /// replica on its own loop thread, so callable from any thread.
  int leader_server_of(uint32_t g);

  /// Bound admin port of server s (0 when options().admin is false).
  uint16_t admin_port(int s) const {
    size_t i = static_cast<size_t>(s);
    return i < admins_.size() && admins_[i] ? admins_[i]->port() : 0;
  }
  obs::AdminServer* admin(int s) {
    size_t i = static_cast<size_t>(s);
    return i < admins_.size() ? admins_[i].get() : nullptr;
  }

 private:
  explicit TcpCluster(TcpClusterOptions opts) : opts_(std::move(opts)) {}
  Status boot();
  /// Reserves ports, builds the transport, starts every server endpoint and
  /// binds every client port, retrying with fresh ports when a reservation
  /// was raced.
  Status start_endpoints();
  Status start_admin(int s);

  TcpClusterOptions opts_;
  std::unique_ptr<net::TcpTransport> transport_;
  std::vector<std::unique_ptr<storage::FileWal>> wals_;                 // per server
  std::vector<std::unique_ptr<snapshot::GroupedSnapshotStore>> snaps_;  // per server
  std::vector<std::unique_ptr<NodeHost>> hosts_;                        // per server
  std::vector<std::unique_ptr<Balancer>> balancers_;                    // per server
  std::vector<std::unique_ptr<obs::AdminServer>> admins_;               // per server
  std::map<NodeId, net::TcpNode*> endpoints_;  // every started server endpoint
  int next_client_ = 0;
};

}  // namespace rspaxos::node
