#include "node/cluster_config.h"

#include <utility>
#include <vector>

#include "net/routing.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rspaxos::node {

StatusOr<consensus::GroupConfig> cluster_group_config(int servers, uint32_t g, bool rs_mode,
                                                      int f, ec::CodeId code) {
  std::vector<NodeId> members;
  members.reserve(static_cast<size_t>(servers));
  for (int s = 0; s < servers; ++s) {
    members.push_back(net::endpoint_id(s, static_cast<int>(g)));
  }
  if (!rs_mode) return consensus::GroupConfig::majority(std::move(members));
  auto cfg = consensus::GroupConfig::rs_max_x(std::move(members), f);
  if (!cfg.is_ok() || code == ec::CodeId::kRs) return cfg;
  consensus::GroupConfig c = std::move(cfg).value();
  c.code = code;
  RSP_RETURN_IF_ERROR(c.validate());
  return c;
}

kv::RoutingTable initial_routing(int servers, uint32_t groups, uint32_t shards) {
  kv::RoutingTable rt;
  rt.group_members.resize(groups);
  for (uint32_t g = 0; g < groups; ++g) {
    for (int s = 0; s < servers; ++s) {
      rt.group_members[g].push_back(net::endpoint_id(s, static_cast<int>(g)));
    }
  }
  rt.map = kv::ShardMap::identity(shards != 0 ? shards : groups, groups);
  return rt;
}

void add_shared_admin_routes(obs::AdminServer* admin, const NodeHost* host) {
  // One process hosts every server in these assemblies, so each admin port
  // serves the same families and the {server=...} labels do the splitting.
  admin->route("/metrics", [](const obs::AdminRequest&) {
    obs::AdminResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = obs::MetricsRegistry::global().to_prometheus();
    return r;
  });
  admin->route("/traces/recent", [](const obs::AdminRequest& req) {
    obs::AdminResponse r;
    r.content_type = "application/json";
    r.body = req.query == "slow" ? obs::Tracer::global().slowest_json(32)
                                 : obs::Tracer::global().recent_json(32);
    return r;
  });
  admin->route("/routing", [host](const obs::AdminRequest&) {
    obs::AdminResponse r;
    r.content_type = "application/json";
    r.body = host->routing_json();
    return r;
  });
}

}  // namespace rspaxos::node
