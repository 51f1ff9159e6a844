// What the SimCluster and TcpCluster assemblies share: each group's initial
// configuration, the routing table a fresh client boots on, and the admin
// routes both serve identically.
#pragma once

#include <cstdint>

#include "consensus/config.h"
#include "ec/code_id.h"
#include "kv/client.h"
#include "node/node_host.h"
#include "obs/admin_server.h"
#include "util/status.h"

namespace rspaxos::node {

/// Group g's initial configuration over `servers` machines (member s is
/// endpoint (s, g)). rs_mode: RS-Paxos θ(N−2f, N) with QR = QW = N − f under
/// `code`; otherwise classic majority Paxos (`f` and `code` unused). Invalid
/// when N − 2f < 1 or when `code` cannot serve those quorums
/// (GroupConfig::validate), rather than a different configuration.
StatusOr<consensus::GroupConfig> cluster_group_config(int servers, uint32_t g, bool rs_mode,
                                                      int f, ec::CodeId code);

/// Epoch-0 routing table: every group's members and the identity shard map
/// over `shards` shards (0 = one per group). Clients self-heal from
/// kWrongShard redirects and piggybacked epochs if shards have since moved.
kv::RoutingTable initial_routing(int servers, uint32_t groups, uint32_t shards);

/// Registers /metrics, /traces/recent and /routing on `admin`. All three
/// read only thread-safe state (the process-global registry and tracer, the
/// host's RoutingView and atomic shard counters), so no loop posting.
void add_shared_admin_routes(obs::AdminServer* admin, const NodeHost* host);

}  // namespace rspaxos::node
