#include "node/node_host.h"

#include <cassert>

#include "util/io_driver.h"

namespace rspaxos::node {

namespace {

std::string json_bool(bool b) { return b ? "true" : "false"; }

}  // namespace

NodeHost::NodeHost(int server, uint32_t num_groups, EndpointFn endpoints,
                   storage::MuxWal* wal, SnapshotFn snaps, ConfigFn configs,
                   NodeHostOptions opts, BootstrapFn bootstrap, PostFn post)
    : server_(server), num_groups_(num_groups), endpoint_fn_(std::move(endpoints)),
      wal_(wal), snap_fn_(std::move(snaps)), config_fn_(std::move(configs)),
      opts_(std::move(opts)), bootstrap_fn_(std::move(bootstrap)),
      post_fn_(std::move(post)) {
  assert(num_groups_ >= 1);
  assert(wal_ != nullptr && wal_->num_groups() >= num_groups_);
  num_shards_ = opts_.num_shards != 0 ? opts_.num_shards : num_groups_;
  routing_ = std::make_unique<kv::RoutingView>(
      server_, kv::ShardMap::identity(num_shards_, num_groups_));
  shard_writes_ = std::make_unique<std::atomic<uint64_t>[]>(num_shards_);
  for (uint32_t s = 0; s < num_shards_; ++s) shard_writes_[s].store(0);
}

NodeHost::~NodeHost() { stop(); }

void NodeHost::start() {
  assert(!started_);
  started_ = true;
  // The monitor is built before the per-group servers so its overload
  // verdict (health watermarks -> admission control) can be fed to every
  // KvServer; the probe only arms at the end of start().
  health_ = std::make_unique<obs::HealthMonitor>(static_cast<uint32_t>(server_), opts_.health);
  endpoints_.resize(num_groups_, nullptr);
  servers_.resize(num_groups_);
  for (uint32_t g = 0; g < num_groups_; ++g) {
    NodeContext* ctx = endpoint_fn_(net::endpoint_id(server_, static_cast<int>(g)));
    assert(ctx != nullptr);
    endpoints_[g] = ctx;
    consensus::ReplicaOptions ropts = opts_.replica;
    ropts.group_id = g;
    ropts.bootstrap_leader = bootstrap_fn_ && bootstrap_fn_(g);
    servers_[g] = std::make_unique<kv::KvServer>(ctx, wal_->group(g), config_fn_(g), ropts,
                                                 opts_.kv, snap_fn_ ? snap_fn_(g) : nullptr);
    kv::KvServer* srv = servers_[g].get();
    srv->set_health(health_.get());
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

  if (queue_sampler_) health_->set_queue_sampler(queue_sampler_);
  // Each probe republishes the board so any-thread readers (the admin
  // server) always have a recent document even if the loop later wedges.
  health_->set_on_probe([this] { refresh_board(); });
  // The flusher pushes fsync latencies in from its own thread; the monitor
  // outlives traffic (reset in stop()).
  wal_->set_flush_observer([h = health_.get()](int64_t us) { h->record_fsync(us); });
  auto arm = [hm = health_.get(), ctx = endpoints_[0]] { hm->start(ctx); };
  if (post_fn_) {
    post_fn_(endpoints_[0], std::move(arm));
  } else {
    arm();
  }
}

void NodeHost::stop() {
  if (health_) health_->stop();
  wal_->set_flush_observer(nullptr);
  for (NodeContext* ctx : endpoints_) {
    if (ctx != nullptr) ctx->set_handler(nullptr);
  }
  endpoints_.clear();
}

void NodeHost::refresh_board() {
  std::string out = "{";
  out += "\"server\":" + std::to_string(server_);
  if (!endpoints_.empty()) {
    out += ",\"now_us\":" + std::to_string(static_cast<int64_t>(endpoints_[0]->now()));
  }
  out += ",\"io_backend\":\"" + std::string(util::io_backend_name()) + "\"";
  out += ",\"groups\":[";
  for (uint32_t g = 0; g < servers_.size(); ++g) {
    const consensus::Replica& r = servers_[g]->replica();
    if (g > 0) out += ",";
    out += "{\"group\":" + std::to_string(g);
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
    out += ",\"suspected\":[";
    std::vector<NodeId> suspects = r.suspected_peers();
    for (size_t i = 0; i < suspects.size(); ++i) {
      out += (i > 0 ? "," : "") + std::to_string(suspects[i]);
    }
    out += "]";
    out += ",\"wal_bytes\":" + std::to_string(wal_->group_bytes_flushed(g));
    out += ",\"wal_truncated_bytes\":" + std::to_string(wal_->group_truncated_bytes(g));
    out += "}";
  }
  out += "]";
  out += ",\"wal\":{";
  out += "\"bytes_flushed\":" + std::to_string(wal_->bytes_flushed());
  out += ",\"flush_ops\":" + std::to_string(wal_->flush_ops());
  out += ",\"first_segment\":" + std::to_string(wal_->first_segment());
  out += ",\"active_segment\":" + std::to_string(wal_->active_segment());
  out += "}";
  std::lock_guard<std::mutex> lk(board_mu_);
  board_ = std::move(out);
}

std::string NodeHost::status_snapshot() const {
  std::lock_guard<std::mutex> lk(board_mu_);
  if (board_.empty()) return "{}";
  return board_ + ",\"health\":" + healthz_json() + "}";
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

int64_t NodeHost::now_us() const {
  return endpoints_.empty() ? health_->last_probe_us()
                            : static_cast<int64_t>(endpoints_[0]->now());
}

std::string NodeHost::healthz_json() const {
  return health_ ? health_->healthz_json(now_us()) : "{}";
}

bool NodeHost::stalled() const { return health_ && health_->stalled(now_us()); }

}  // namespace rspaxos::node
