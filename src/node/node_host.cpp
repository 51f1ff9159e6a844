#include "node/node_host.h"

#include <algorithm>
#include <cassert>

#include "util/io_driver.h"

namespace rspaxos::node {

namespace {

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

NodeHost::NodeHost(int server, uint32_t num_groups, EndpointFn endpoints,
                   std::vector<storage::MuxWal*> wals, SnapshotFn snaps, ConfigFn configs,
                   NodeHostOptions opts, BootstrapFn bootstrap, PostFn post)
    : server_(server), num_groups_(num_groups), endpoint_fn_(std::move(endpoints)),
      wals_(std::move(wals)), snap_fn_(std::move(snaps)), config_fn_(std::move(configs)),
      opts_(std::move(opts)), bootstrap_fn_(std::move(bootstrap)),
      post_fn_(std::move(post)) {
  assert(num_groups_ >= 1);
  assert(!wals_.empty());
  // More reactors than groups would leave reactors with no work and no
  // endpoint to run their watchdog on; callers clamp (see TcpCluster).
  assert(num_reactors() <= num_groups_);
  const uint32_t R = num_reactors();
  for (uint32_t r = 0; r < R; ++r) {
    assert(wals_[r] != nullptr);
    // Reactor r hosts groups r, r+R, r+2R, ... — its WAL needs that many
    // group views.
    [[maybe_unused]] uint32_t local = (num_groups_ - r + R - 1) / R;
    assert(wals_[r]->num_groups() >= local);
  }
  queue_samplers_.resize(R);
  boards_.resize(R);
  num_shards_ = opts_.num_shards != 0 ? opts_.num_shards : num_groups_;
  routing_ = std::make_unique<kv::RoutingView>(
      server_, kv::ShardMap::identity(num_shards_, num_groups_));
  shard_writes_ = std::make_unique<std::atomic<uint64_t>[]>(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) shard_writes_[s].store(0);
}

NodeHost::NodeHost(int server, uint32_t num_groups, EndpointFn endpoints,
                   storage::MuxWal* wal, SnapshotFn snaps, ConfigFn configs,
                   NodeHostOptions opts, BootstrapFn bootstrap, PostFn post)
    : NodeHost(server, num_groups, std::move(endpoints),
               std::vector<storage::MuxWal*>{wal}, std::move(snaps), std::move(configs),
               std::move(opts), std::move(bootstrap), std::move(post)) {}

NodeHost::~NodeHost() { stop(); }

void NodeHost::set_queue_sampler(uint32_t reactor, std::function<int64_t()> fn) {
  if (reactor < queue_samplers_.size()) queue_samplers_[reactor] = std::move(fn);
}

void NodeHost::start() {
  assert(!started_);
  started_ = true;
  const uint32_t R = num_reactors();
  // Monitors are built before the per-group servers so their overload
  // verdicts (health watermarks -> admission control) can be fed to every
  // KvServer of their reactor; probes only arm at the end of start().
  health_.resize(R);
  for (uint32_t r = 0; r < R; ++r) {
    health_[r] = std::make_unique<obs::HealthMonitor>(static_cast<uint32_t>(server_),
                                                      opts_.health, r);
  }
  endpoints_.resize(num_groups_, nullptr);
  servers_.resize(num_groups_);
  for (uint32_t g = 0; g < num_groups_; ++g) {
    NodeContext* ctx = endpoint_fn_(net::endpoint_id(server_, static_cast<int>(g)));
    assert(ctx != nullptr);
    endpoints_[g] = ctx;
    uint32_t r = reactor_of(g);
    consensus::ReplicaOptions ropts = opts_.replica;
    ropts.group_id = g;
    ropts.bootstrap_leader = bootstrap_fn_ && bootstrap_fn_(g);
    kv::KvServerOptions kv_opts = opts_.kv;
    kv_opts.reactor = r;
    // Group g's WAL view lives in its reactor's log: local group index g / R.
    servers_[g] = std::make_unique<kv::KvServer>(ctx, wals_[r]->group(g / R), config_fn_(g),
                                                 ropts, kv_opts,
                                                 snap_fn_ ? snap_fn_(g) : nullptr);
    kv::KvServer* srv = servers_[g].get();
    srv->set_health(health_[r].get());
    srv->set_routing(routing_.get());
    srv->set_shard_write_hook([this](uint32_t shard) {
      if (shard < num_shards_) {
        shard_writes_[shard].fetch_add(1, std::memory_order_relaxed);
      }
    });
    auto bring_up = [ctx, srv] {
      ctx->set_handler(srv);
      srv->start();
    };
    if (post_fn_) {
      post_fn_(ctx, std::move(bring_up));
    } else {
      bring_up();
    }
  }

  for (uint32_t r = 0; r < R; ++r) {
    if (queue_samplers_[r]) health_[r]->set_queue_sampler(queue_samplers_[r]);
    // Each probe republishes its reactor's board slice so any-thread
    // readers (the admin server) always have a recent document even if a
    // loop later wedges.
    health_[r]->set_on_probe([this, r] { refresh_board(r); });
    // The flusher pushes fsync latencies in from its own thread; the
    // monitor outlives traffic (reset in stop()).
    wals_[r]->set_flush_observer(
        [h = health_[r].get()](int64_t us) { h->record_fsync(us); });
    // Group r is the first group of reactor r: its endpoint runs on that
    // reactor's loop.
    NodeContext* ctxr = endpoints_[r];
    obs::HealthMonitor* hm = health_[r].get();
    auto arm = [hm, ctxr] { hm->start(ctxr); };
    if (post_fn_) {
      post_fn_(ctxr, std::move(arm));
    } else {
      arm();
    }
  }
}

void NodeHost::stop() {
  for (auto& h : health_) h->stop();
  for (storage::MuxWal* w : wals_) w->set_flush_observer(nullptr);
  for (NodeContext* ctx : endpoints_) {
    if (ctx != nullptr) ctx->set_handler(nullptr);
  }
  endpoints_.clear();
}

void NodeHost::refresh_board(uint32_t reactor) {
  const uint32_t R = num_reactors();
  if (reactor >= R) return;
  ReactorBoard b;
  if (reactor < endpoints_.size() && endpoints_[reactor] != nullptr) {
    b.now_us = static_cast<int64_t>(endpoints_[reactor]->now());
  }
  for (uint32_t g = reactor; g < num_groups_; g += R) {
    const kv::KvServer* srv = g < servers_.size() ? servers_[g].get() : nullptr;
    if (srv == nullptr) continue;
    const consensus::Replica& r = srv->replica();
    std::string out = "{";
    out += "\"group\":" + std::to_string(g);
    out += ",\"reactor\":" + std::to_string(reactor);
    out += ",\"role\":\"" + std::string(r.is_leader() ? "leader" : "follower") + "\"";
    NodeId hint = r.leader_hint();
    out += ",\"leader_hint\":" +
           (hint == kNoNode ? std::string("null") : std::to_string(hint));
    out += ",\"epoch\":" + std::to_string(r.config().epoch);
    out += ",\"ballot\":{\"round\":" + std::to_string(r.current_ballot().round) +
           ",\"node\":" + std::to_string(r.current_ballot().node) + "}";
    out += ",\"commit_index\":" + std::to_string(r.commit_index());
    out += ",\"applied\":" + std::to_string(r.last_applied());
    out += ",\"log_start\":" + std::to_string(r.log_start());
    out += ",\"snapshot_applied\":" + std::to_string(r.snapshot_applied());
    out += ",\"snapshot_checkpoint\":" + std::to_string(r.snapshot_checkpoint_id());
    out += ",\"resident_share_bytes\":" + std::to_string(r.resident_share_bytes());
    out += ",\"state_ready\":" + json_bool(r.state_ready());
    out += ",\"lease_valid\":" + json_bool(r.lease_valid());
    out += ",\"wal_bytes\":" + std::to_string(wals_[reactor]->group_bytes_flushed(g / R));
    out += ",\"wal_truncated_bytes\":" +
           std::to_string(wals_[reactor]->group_truncated_bytes(g / R));
    out += "}";
    b.groups.emplace_back(g, std::move(out));
  }
  {
    std::string w = "{";
    w += "\"reactor\":" + std::to_string(reactor);
    w += ",\"bytes_flushed\":" + std::to_string(wals_[reactor]->bytes_flushed());
    w += ",\"flush_ops\":" + std::to_string(wals_[reactor]->flush_ops());
    w += ",\"first_segment\":" + std::to_string(wals_[reactor]->first_segment());
    w += ",\"active_segment\":" + std::to_string(wals_[reactor]->active_segment());
    w += "}";
    b.wal = std::move(w);
  }
  std::lock_guard<std::mutex> lk(board_mu_);
  boards_[reactor] = std::move(b);
}

std::string NodeHost::compose_board_locked() const {
  const uint32_t R = num_reactors();
  std::string out = "{";
  out += "\"server\":" + std::to_string(server_);
  int64_t now = 0;
  for (const ReactorBoard& b : boards_) now = std::max(now, b.now_us);
  if (now > 0) out += ",\"now_us\":" + std::to_string(now);
  out += ",\"reactors\":" + std::to_string(R);
  out += ",\"io_backend\":\"" + std::string(util::io_backend_name()) + "\"";
  // Static placement map: group index -> owning reactor.
  out += ",\"placement\":[";
  for (uint32_t g = 0; g < num_groups_; ++g) {
    if (g > 0) out += ",";
    out += std::to_string(g % R);
  }
  out += "]";
  // Groups in numeric order regardless of which reactor published them.
  std::vector<const std::pair<uint32_t, std::string>*> groups;
  for (const ReactorBoard& b : boards_) {
    for (const auto& g : b.groups) groups.push_back(&g);
  }
  std::sort(groups.begin(), groups.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  out += ",\"groups\":[";
  for (size_t i = 0; i < groups.size(); ++i) {
    if (i > 0) out += ",";
    out += groups[i]->second;
  }
  out += "]";
  // Machine-wide WAL aggregate (the historical "wal" object) plus the
  // per-reactor logs behind it.
  uint64_t total_bytes = 0;
  uint64_t total_ops = 0;
  for (storage::MuxWal* w : wals_) {
    total_bytes += w->bytes_flushed();
    total_ops += w->flush_ops();
  }
  out += ",\"wal\":{";
  out += "\"bytes_flushed\":" + std::to_string(total_bytes);
  out += ",\"flush_ops\":" + std::to_string(total_ops);
  out += "}";
  out += ",\"wals\":[";
  for (uint32_t r = 0; r < R; ++r) {
    if (r > 0) out += ",";
    out += boards_[r].wal.empty() ? "{}" : boards_[r].wal;
  }
  out += "]";
  if (!health_.empty()) out += ",\"health\":" + healthz_json();
  out += "}";
  return out;
}

std::string NodeHost::routing_json() const {
  auto map = routing_->snapshot();
  std::string out = "{";
  out += "\"server\":" + std::to_string(server_);
  out += ",\"routing\":" + map->to_json();
  out += ",\"shard_writes\":[";
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (s > 0) out += ",";
    out += std::to_string(shard_writes_[s].load(std::memory_order_relaxed));
  }
  out += "]}";
  return out;
}

std::string NodeHost::status_json() const {
  // Fresh document: rebuild every reactor's slice inline. Only legal when
  // the calling thread owns every loop (the single-threaded simulator, or a
  // single-reactor host's loop thread); multi-reactor TCP assemblies post
  // refresh_board(r) to each loop and read status_snapshot() instead.
  auto* self = const_cast<NodeHost*>(this);
  for (uint32_t r = 0; r < num_reactors(); ++r) self->refresh_board(r);
  std::lock_guard<std::mutex> lk(board_mu_);
  return compose_board_locked();
}

std::string NodeHost::status_snapshot() const {
  std::lock_guard<std::mutex> lk(board_mu_);
  bool any = false;
  for (const ReactorBoard& b : boards_) {
    if (!b.groups.empty() || !b.wal.empty()) any = true;
  }
  return any ? compose_board_locked() : "{}";
}

std::string NodeHost::healthz_json() const {
  if (health_.empty()) return "{}";
  bool bad = stalled();
  std::string out = "{";
  out += "\"server\":" + std::to_string(server_);
  // Worst reactor wins: one wedged loop means this machine is degraded even
  // though its sibling reactors keep answering.
  out += ",\"status\":\"" + std::string(bad ? "stalled" : "ok") + "\"";
  out += ",\"reactors\":[";
  for (size_t r = 0; r < health_.size(); ++r) {
    const obs::HealthMonitor* h = health_[r].get();
    NodeContext* ctx = r < endpoints_.size() ? endpoints_[r] : nullptr;
    int64_t now = ctx != nullptr ? static_cast<int64_t>(ctx->now()) : h->last_probe_us();
    if (r > 0) out += ",";
    out += h->healthz_json(now);
  }
  out += "]";
  out += "}";
  return out;
}

bool NodeHost::stalled() const {
  for (size_t r = 0; r < health_.size(); ++r) {
    const obs::HealthMonitor* h = health_[r].get();
    if (h == nullptr) continue;
    NodeContext* ctx = r < endpoints_.size() ? endpoints_[r] : nullptr;
    int64_t now = ctx != nullptr ? static_cast<int64_t>(ctx->now()) : h->last_probe_us();
    if (h->stalled(now)) return true;
  }
  return false;
}

}  // namespace rspaxos::node
