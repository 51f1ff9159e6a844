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
/// group endpoints onto one host; client ids (>= kClientBase) always stay
/// their own hosts so ephemeral clients never alias a server.
///
/// With reactors > 1, each server machine runs that many reactors (one event
/// loop + I/O driver + listen socket each) and its groups are placed
/// round-robin: group g lives on reactor g % reactors. Each (server, reactor)
/// pair is its own host — host ids become server * reactors + reactor — so
/// the transport demux delivers every frame directly to the owning reactor's
/// socket with no cross-reactor handoff. reactors <= 1 is byte-identical to
/// the historical single-host mapping.
struct HostMap {
  NodeId stride = 0;
  NodeId reactors = 1;

  /// Round-robin static placement: the reactor owning endpoint `id`.
  NodeId reactor_of(NodeId id) const {
    if (stride == 0 || id >= kClientBase || reactors <= 1) return 0;
    return (id % stride) % reactors;
  }

  HostId host_of(NodeId id) const {
    if (stride == 0 || id >= kClientBase) return id;
    if (reactors <= 1) return id / stride;
    return (id / stride) * reactors + reactor_of(id);
  }
};

}  // namespace rspaxos::net
