// Composite-NodeId routing contract shared by the sim and TCP transports.
//
// One physical machine ("host") serves every Paxos group, so a transport
// endpoint is identified by a composite NodeId:
//
//     endpoint_id(server, group) = server * kGroupStride + group
//
// kGroupStride bounds groups-per-host; ids at or above kClientBase are
// client endpoints and never strided (each client is its own host). This
// header is the single source of truth for that math — kv/cluster.h, the
// TCP host demux and the sim all include it so the schemes cannot drift.
#pragma once

#include <cstdint>

#include "net/transport.h"

namespace rspaxos::net {

constexpr NodeId kGroupStride = 4096;
constexpr NodeId kClientBase = 1u << 24;

/// Identifies a physical machine (one socket, one loop thread, one WAL).
using HostId = NodeId;

inline NodeId endpoint_id(int server, int group) {
  return static_cast<NodeId>(server) * kGroupStride + static_cast<NodeId>(group);
}
inline int server_of_endpoint(NodeId id) { return static_cast<int>(id / kGroupStride); }
inline int group_of_endpoint(NodeId id) { return static_cast<int>(id % kGroupStride); }

/// Maps endpoint NodeIds onto hosts. The default (stride 0) is the identity
/// map — every endpoint is its own host — which preserves the historical
/// one-node-per-socket behavior. A strided map collapses all of a server's
/// group endpoints onto one host (one socket, one loop); client ids
/// (>= kClientBase) always stay their own hosts so ephemeral clients never
/// alias a server.
struct HostMap {
  NodeId stride = 0;

  HostId host_of(NodeId id) const {
    if (stride == 0 || id >= kClientBase) return id;
    return id / stride;
  }
};

}  // namespace rspaxos::net
