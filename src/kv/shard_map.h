// Versioned shard -> group routing table (elastic resharding, DESIGN.md §14).
//
// The static contract (shard i lives in group i, forever) becomes the *epoch
// 0 default* of a consensus-replicated ShardMap: the map is stored under the
// reserved key "!routing" in the meta group (group 0), so every update is
// itself a committed KV write and every machine learns it by applying its
// meta-group replica's log. Clients never read the meta group on the hot
// path — they learn newer epochs from kWrongShard redirects and the epoch
// piggybacked on every reply, then refresh with one get("!routing").
//
// Keys whose first byte is '!' are routing-exempt (always served by the meta
// group) so the table can never shard itself away.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/marshal.h"
#include "util/status.h"

namespace rspaxos::kv {

/// Reserved key holding the encoded ShardMap in the meta group.
inline const char* kRoutingKey = "!routing";
/// First byte marking a routing-exempt key (meta-group resident).
inline constexpr char kMetaKeyPrefix = '!';
/// The group that stores the routing table and meta keys.
inline constexpr uint32_t kMetaGroup = 0;

inline bool is_meta_key(const std::string& key) {
  return !key.empty() && key[0] == kMetaKeyPrefix;
}

/// One in-flight shard migration, recorded in the map so every machine (and
/// any source-group leader elected mid-copy) can see it.
struct ShardMigration {
  uint32_t shard = 0;
  uint32_t from_group = 0;
  uint32_t to_group = 0;
  uint64_t id = 0;  // unique per attempt; fences stale copy traffic
};

struct ShardMap {
  /// Strictly increasing version; replicas and clients adopt only newer maps.
  uint64_t epoch = 0;
  uint32_t num_groups = 1;
  std::vector<uint32_t> shard_group;      // shard -> owning group
  std::vector<ShardMigration> migrations; // in-flight moves

  /// Epoch-0 default matching the frozen pre-resharding contract:
  /// shard i -> group i % num_groups (identical when shards == groups).
  static ShardMap identity(uint32_t num_shards, uint32_t num_groups);

  size_t num_shards() const { return shard_group.size(); }
  uint32_t group_of(size_t shard) const {
    return shard < shard_group.size() ? shard_group[shard] : 0;
  }
  const ShardMigration* migration_of(uint32_t shard) const;

  Bytes encode() const;
  static StatusOr<ShardMap> decode(BytesView b);
  std::string to_json() const;
};

/// Thread-safe, machine-wide holder of the newest ShardMap this host has
/// applied. Published from the meta group's apply path, read on every request
/// path and by the admin plane's thread — hence the
/// immutable-snapshot-behind-a-mutex shape: readers take a shared_ptr copy,
/// never the lock across use.
class RoutingView {
 public:
  RoutingView(int server, ShardMap initial);

  std::shared_ptr<const ShardMap> snapshot() const;
  uint64_t epoch() const;
  /// Adopts `m` iff it is strictly newer; returns whether it was adopted.
  bool publish(ShardMap m);

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ShardMap> map_;
  obs::Gauge* epoch_gauge_;
};

}  // namespace rspaxos::kv
