// Background load balancer (elastic resharding, DESIGN.md §14).
//
// One Balancer rides on every NodeHost, but only the host whose META-GROUP
// replica currently leads acts on a tick — leadership of the routing table's
// own group elects the single active balancer machine-set-wide, with zero
// extra coordination state. Each tick it:
//
//   1. Reads the per-shard applied-write counters its host's groups bump
//      (NodeHost::shard_writes) and forms per-interval deltas. The
//      meta leader applies every write of every group it hosts, so its local
//      counters are a faithful sample of cluster-wide shard load.
//   2. Shard moves: if one group's write rate exceeds `hot_ratio` times the
//      per-group mean (and it has more than one shard to give), the hottest
//      shard is proposed for migration to the least-loaded group — a
//      MigrateCmdMsg broadcast to the source group's members; only its
//      current leader acts (kv::KvServer::handle_migrate_cmd).
//   3. Leader moves: if some server leads `leader_slack` more groups than
//      the least-burdened server, one of its groups is nudged to transfer —
//      a kLeaderTransfer sent straight to the chosen successor's endpoint
//      (receipt makes a non-leader campaign; the incumbent's lease cannot
//      veto its own transfer).
//
// At most one shard move and one leader move per tick, and never while any
// migration is already in the map: slow convergence beats routing churn.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/transport.h"
#include "node/node_host.h"

namespace rspaxos::node {

struct BalancerOptions {
  DurationMicros interval = 2 * kSeconds;
  /// Act only when the hottest group's write rate exceeds this multiple of
  /// the per-group mean.
  double hot_ratio = 2.0;
  /// Ignore intervals with fewer machine-wide writes than this (idle or
  /// warming up; rates would be noise).
  uint64_t min_writes = 100;
  /// Propose shard migrations off hot groups.
  bool move_shards = true;
  /// Nudge leader transfers toward servers leading fewer groups.
  bool spread_leaders = false;
  /// Leader moves trigger when max-led minus min-led reaches this.
  uint32_t leader_slack = 2;
};

/// Runs on its host's loop (the one every group shares, so reading replica
/// state is loop-confined). start() arms the tick timer;
/// stop() (or destruction) quiesces — a late-firing timer sees the dead flag
/// and does nothing, so no cross-thread timer cancellation is needed.
class Balancer {
 public:
  Balancer(NodeHost* host, BalancerOptions opts);
  ~Balancer();

  Balancer(const Balancer&) = delete;
  Balancer& operator=(const Balancer&) = delete;

  void start();
  void stop();

  uint64_t shard_moves_proposed() const {
    return shard_moves_.load(std::memory_order_relaxed);
  }
  uint64_t leader_moves_proposed() const {
    return leader_moves_.load(std::memory_order_relaxed);
  }

 private:
  void tick();
  void maybe_move_shard(const std::vector<uint64_t>& delta);
  void maybe_move_leader();

  NodeHost* host_;
  BalancerOptions opts_;
  NodeContext* ctx_ = nullptr;  // meta group's endpoint (the host's loop)
  std::shared_ptr<std::atomic<bool>> alive_;
  std::vector<uint64_t> last_;  // per-shard counter snapshot at the last tick
  bool primed_ = false;         // first tick only snapshots
  std::atomic<uint64_t> shard_moves_{0};
  std::atomic<uint64_t> leader_moves_{0};
};

}  // namespace rspaxos::node
