// SimCluster lives header-wise at kv/cluster.h (historical include path) but
// is assembled here, with the rest of the node-host layer it builds on.
#include "kv/cluster.h"

#include <algorithm>
#include <cassert>

#include "node/cluster_config.h"
#include "util/logging.h"

namespace rspaxos::kv {

SimCluster::SimCluster(sim::SimWorld* world, SimClusterOptions opts)
    : world_(world), opts_(opts), network_(world) {
  assert(opts_.num_servers >= 1 && opts_.num_groups >= 1);
  // Misconfigured geometry (too few servers for f, or e.g. lrc whose
  // any-subset-decodable exceeds a quorum) is a test-author error; fail
  // loudly. Every group has the same geometry.
  assert(node::cluster_group_config(opts_.num_servers, 0, opts_.rs_mode, opts_.f, opts_.code)
             .is_ok());
  network_.set_default_link(opts_.link);
  disks_.reserve(static_cast<size_t>(opts_.num_servers));
  for (int s = 0; s < opts_.num_servers; ++s) {
    disks_.push_back(std::make_unique<sim::SimDisk>(world_, opts_.disk));
  }
  wals_.resize(static_cast<size_t>(opts_.num_servers));
  hosts_.resize(static_cast<size_t>(opts_.num_servers));
  balancers_.resize(static_cast<size_t>(opts_.num_servers));
  snaps_.resize(static_cast<size_t>(opts_.num_servers) *
                static_cast<size_t>(opts_.num_groups));
  alive_.assign(static_cast<size_t>(opts_.num_servers), true);
  admins_.resize(static_cast<size_t>(opts_.num_servers));
  for (int s = 0; s < opts_.num_servers; ++s) {
    wals_[static_cast<size_t>(s)] = std::make_unique<storage::SimWal>(
        disks_[static_cast<size_t>(s)].get(), opts_.wal_retain,
        static_cast<uint32_t>(opts_.num_groups));
    for (int g = 0; g < opts_.num_groups; ++g) {
      snaps_[idx(s, g)] = std::make_unique<snapshot::SimSnapshotStore>(
          disks_[static_cast<size_t>(s)].get());
    }
    build_host(s, /*initial=*/true);
  }
}

void SimCluster::build_host(int s, bool initial) {
  node::NodeHostOptions hopts;
  hopts.replica = opts_.replica;
  hopts.kv = opts_.kv;
  hopts.health = opts_.health;
  hopts.num_shards = static_cast<uint32_t>(std::max(0, opts_.num_shards));
  node::NodeHost::BootstrapFn boot;  // restarts never campaign immediately
  if (initial) {
    if (opts_.spread_leaders) {
      int servers = opts_.num_servers;
      boot = [s, servers](uint32_t g) { return static_cast<int>(g) % servers == s; };
    } else if (s == 0) {
      boot = [](uint32_t) { return true; };
    }
  }
  auto& host = hosts_[static_cast<size_t>(s)];
  host = std::make_unique<node::NodeHost>(
      s, static_cast<uint32_t>(opts_.num_groups),
      [this](NodeId id) -> NodeContext* { return network_.node(id); },
      wals_[static_cast<size_t>(s)].get(),
      [this, s](uint32_t g) -> snapshot::SnapshotStore* {
        return snaps_[idx(s, static_cast<int>(g))].get();
      },
      [this](uint32_t g) {
        return node::cluster_group_config(opts_.num_servers, g, opts_.rs_mode, opts_.f,
                                          opts_.code)
            .value();
      },
      hopts,
      std::move(boot));  // PostFn empty: the sim is single-threaded, inline is safe
  host->start();
  if (opts_.balancer) {
    auto& bal = balancers_[static_cast<size_t>(s)];
    bal = std::make_unique<node::Balancer>(host.get(), opts_.balancer_opts);
    bal->start();
  }
  if (opts_.admin) start_admin(s);
}

void SimCluster::start_admin(int s) {
  auto admin = std::make_unique<obs::AdminServer>();
  node::NodeHost* host = hosts_[static_cast<size_t>(s)].get();
  node::add_shared_admin_routes(admin.get(), host);
  // Unlike TcpCluster, /status never posts into the host: the sim loop only
  // advances when the test pumps it, so the admin thread serves the board
  // published by the last probe instead.
  admin->route("/status", [host](const obs::AdminRequest&) {
    obs::AdminResponse r;
    r.content_type = "application/json";
    r.body = host->status_snapshot();
    return r;
  });
  // Stamped with the monitor's last probe sim time, not a live now():
  // reading the sim clock from the admin thread would race the sim thread,
  // and halted sim time must not read as a stall anyway.
  admin->route("/healthz", [host](const obs::AdminRequest&) {
    obs::AdminResponse r;
    r.content_type = "application/json";
    obs::HealthMonitor* h = host->health();  // the host is started
    r.body = h->healthz_json(h->last_probe_us());
    return r;
  });
  Status st = admin->start({});
  if (!st.is_ok()) {
    RSP_WARN << "sim admin server for s" << s << " failed: " << st.to_string();
    return;
  }
  admins_[static_cast<size_t>(s)] = std::move(admin);
}

void SimCluster::wait_for_leaders(DurationMicros max_wait) {
  TimeMicros deadline = world_->now() + max_wait;
  while (world_->now() < deadline) {
    bool all = true;
    for (int g = 0; g < opts_.num_groups; ++g) {
      if (leader_server_of(g) < 0) {
        all = false;
        break;
      }
    }
    if (all) return;
    world_->run_for(10 * kMillis);
  }
  RSP_WARN << "wait_for_leaders: timed out";
}

RoutingTable SimCluster::routing() const {
  return node::initial_routing(opts_.num_servers, static_cast<uint32_t>(opts_.num_groups),
                               static_cast<uint32_t>(std::max(0, opts_.num_shards)));
}

std::unique_ptr<KvClient> SimCluster::make_client(int client_idx, KvClient::Options copts) {
  (void)client_idx;
  sim::SimNode* node = network_.node(kClientBase + static_cast<NodeId>(next_client_++));
  auto client = std::make_unique<KvClient>(node, routing(), copts);
  node->set_handler(client.get());
  return client;
}

void SimCluster::crash_server(int s) {
  alive_[static_cast<size_t>(s)] = false;
  // Admin handlers and the balancer hold the host pointer; kill both before
  // the host.
  admins_[static_cast<size_t>(s)].reset();
  balancers_[static_cast<size_t>(s)].reset();
  for (int g = 0; g < opts_.num_groups; ++g) {
    network_.crash(endpoint_id(s, g));
    snaps_[idx(s, g)]->drop_unflushed();  // in-flight snapshot saves gone
  }
  hosts_[static_cast<size_t>(s)].reset();  // volatile state gone (all groups)
  // Power failure: un-synced records on the machine's log gone.
  wals_[static_cast<size_t>(s)]->drop_unflushed();
}

void SimCluster::restart_server(int s) {
  alive_[static_cast<size_t>(s)] = true;
  for (int g = 0; g < opts_.num_groups; ++g) {
    network_.restart(endpoint_id(s, g));
  }
  build_host(s, /*initial=*/false);  // WAL replay happens in start()
}

int SimCluster::leader_server_of(int group) const {
  for (int s = 0; s < opts_.num_servers; ++s) {
    if (!alive_[static_cast<size_t>(s)]) continue;
    const auto& host = hosts_[static_cast<size_t>(s)];
    KvServer* srv = host ? host->server(static_cast<uint32_t>(group)) : nullptr;
    if (srv && srv->replica().is_leader()) return s;
  }
  return -1;
}

uint64_t SimCluster::total_network_bytes() const { return network_.total_bytes_sent(); }

uint64_t SimCluster::total_flushed_bytes() const {
  uint64_t total = 0;
  for (const auto& w : wals_) total += w->bytes_flushed();
  return total;
}

uint64_t SimCluster::total_flush_ops() const {
  uint64_t total = 0;
  for (const auto& w : wals_) total += w->flush_ops();
  return total;
}

}  // namespace rspaxos::kv
