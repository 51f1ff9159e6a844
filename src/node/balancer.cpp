#include "node/balancer.h"

#include <algorithm>

#include "kv/migration.h"
#include "kv/shard_map.h"
#include "net/routing.h"
#include "util/logging.h"

namespace rspaxos::node {

Balancer::Balancer(NodeHost* host, BalancerOptions opts)
    : host_(host), opts_(opts), alive_(std::make_shared<std::atomic<bool>>(true)) {
  last_.assign(host_->num_shards(), 0);
}

Balancer::~Balancer() { stop(); }

void Balancer::start() {
  ctx_ = host_->endpoint(kv::kMetaGroup);
  if (ctx_ == nullptr) return;  // host not started / no meta group
  auto alive = alive_;
  ctx_->set_timer(opts_.interval, [this, alive] {
    if (!alive->load(std::memory_order_acquire)) return;
    tick();
  });
}

void Balancer::stop() { alive_->store(false, std::memory_order_release); }

void Balancer::tick() {
  // Re-arm first so an early return never kills the loop.
  auto alive = alive_;
  ctx_->set_timer(opts_.interval, [this, alive] {
    if (!alive->load(std::memory_order_acquire)) return;
    tick();
  });

  // Always roll the counter window, leader or not — a freshly elected meta
  // leader must not act on a delta accumulated across many intervals.
  const uint32_t S = host_->num_shards();
  std::vector<uint64_t> delta(S, 0);
  uint64_t total = 0;
  for (uint32_t s = 0; s < S; ++s) {
    uint64_t cur = host_->shard_writes(s);
    delta[s] = cur >= last_[s] ? cur - last_[s] : 0;
    last_[s] = cur;
    total += delta[s];
  }
  bool was_primed = primed_;
  primed_ = true;

  // This tick runs on the host's loop, which every group shares, so reading
  // replica state is race-free. Meta leadership elects the one active
  // balancer; everyone else only samples.
  kv::KvServer* meta = host_->server(kv::kMetaGroup);
  if (meta == nullptr || !meta->replica().is_leader()) return;
  if (!was_primed) return;

  if (opts_.move_shards && total >= opts_.min_writes) maybe_move_shard(delta);
  if (opts_.spread_leaders) maybe_move_leader();
}

void Balancer::maybe_move_shard(const std::vector<uint64_t>& delta) {
  auto map = host_->routing()->snapshot();
  if (!map->migrations.empty()) return;  // one move at a time, cluster-wide
  const uint32_t G = map->num_groups;
  if (G < 2) return;

  std::vector<uint64_t> load(G, 0);
  std::vector<uint32_t> shards_in(G, 0);
  uint64_t total = 0;
  for (uint32_t s = 0; s < delta.size() && s < map->num_shards(); ++s) {
    uint32_t g = map->group_of(s);
    load[g] += delta[s];
    shards_in[g] += 1;
    total += delta[s];
  }
  uint32_t hot = 0;
  uint32_t cold = 0;
  for (uint32_t g = 1; g < G; ++g) {
    if (load[g] > load[hot]) hot = g;
    if (load[g] < load[cold]) cold = g;
  }
  double mean = static_cast<double>(total) / static_cast<double>(G);
  if (static_cast<double>(load[hot]) < opts_.hot_ratio * mean) return;
  if (hot == cold || shards_in[hot] < 2) return;  // nothing to shed / nowhere to go

  // Shed the hot group's SECOND-hottest shard when it has one with traffic:
  // moving the single hottest shard often just relocates the hotspot, while
  // peeling the next one halves the group's surplus and keeps the hot shard's
  // leader-local cache warm. Fall back to the hottest if it's all there is.
  uint32_t victim = kNoNode;
  uint32_t hottest = kNoNode;
  for (uint32_t s = 0; s < delta.size() && s < map->num_shards(); ++s) {
    if (map->group_of(s) != hot) continue;
    if (hottest == kNoNode || delta[s] > delta[hottest]) {
      victim = hottest;
      hottest = s;
    } else if (victim == kNoNode || delta[s] > delta[victim]) {
      victim = s;
    }
  }
  if (victim == kNoNode || delta[victim] == 0) victim = hottest;
  if (victim == kNoNode) return;

  kv::MigrateCmdMsg cmd;
  cmd.shard = victim;
  cmd.to_group = cold;
  RSP_INFO << "balancer s" << host_->server_index() << ": group " << hot << " load "
           << load[hot] << " vs mean " << mean << " — proposing shard " << victim
           << " -> group " << cold;
  // Broadcast to the source group's members; only its current leader acts.
  kv::KvServer* meta = host_->server(kv::kMetaGroup);
  for (NodeId m : meta->replica().config().members) {
    NodeId to = net::endpoint_id(net::server_of_endpoint(m), static_cast<int>(hot));
    ctx_->send(to, MsgType::kMigrateCmd, cmd.encode());
  }
  shard_moves_.fetch_add(1, std::memory_order_relaxed);
}

void Balancer::maybe_move_leader() {
  kv::KvServer* meta = host_->server(kv::kMetaGroup);
  const auto& members = meta->replica().config().members;
  const int nservers = static_cast<int>(members.size());
  if (nservers < 2) return;

  const uint32_t G = host_->num_groups();
  std::vector<uint32_t> led(static_cast<size_t>(nservers), 0);
  std::vector<int> leader_of(G, -1);
  for (uint32_t g = 0; g < G; ++g) {
    kv::KvServer* srv = host_->server(g);
    if (srv == nullptr) continue;
    NodeId hint = srv->replica().leader_hint();
    if (hint == kNoNode) continue;  // mid-election; leave that group alone
    int s = net::server_of_endpoint(hint);
    if (s < 0 || s >= nservers) continue;
    leader_of[g] = s;
    led[static_cast<size_t>(s)] += 1;
  }
  int busy = 0;
  int idle = 0;
  for (int s = 1; s < nservers; ++s) {
    if (led[static_cast<size_t>(s)] > led[static_cast<size_t>(busy)]) busy = s;
    if (led[static_cast<size_t>(s)] < led[static_cast<size_t>(idle)]) idle = s;
  }
  if (led[static_cast<size_t>(busy)] < led[static_cast<size_t>(idle)] + opts_.leader_slack) {
    return;
  }
  // Move one of the busy server's groups; prefer not to move the meta group
  // (its leadership doubles as the active-balancer election).
  for (uint32_t g = G; g-- > 0;) {
    if (leader_of[g] != busy) continue;
    if (g == kv::kMetaGroup && led[static_cast<size_t>(busy)] > 1) continue;
    NodeId target = net::endpoint_id(idle, static_cast<int>(g));
    RSP_INFO << "balancer s" << host_->server_index() << ": server " << busy << " leads "
             << led[static_cast<size_t>(busy)] << " groups vs " << idle << "'s "
             << led[static_cast<size_t>(idle)] << " — transferring group " << g << " to s"
             << idle;
    ctx_->send(target, MsgType::kLeaderTransfer, Bytes{});
    leader_moves_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
}

}  // namespace rspaxos::node
