// Ablation: catch-up cost for a replica that missed the whole workload —
// log-replay catch-up (no checkpoints: the leader re-ships every missed slot)
// vs InstallSnapshot (erasure-coded checkpoint: the rejoiner reconstructs the
// base image from X peer fragments and replays only the post-snapshot
// suffix). Sweeps the state size and writes BENCH_snapshot.json.
//
// Expected shape: log replay moves the full history over the wire and its
// cost grows with *slots written*; snapshot install moves ~|state| coded
// bytes plus a short suffix, so it wins as soon as the missed log dwarfs the
// live state — exactly the regime WAL truncation creates.
#include <cstdio>

#include "common.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

constexpr int kKeys = 48;

struct Row {
  size_t value_bytes;
  uint64_t state_bytes;        // kKeys * value_bytes (live KV state)
  uint64_t slots_missed;
  double converge_ms;          // sim time from restart to caught-up
  double net_mb;               // network bytes moved during convergence
  uint64_t snapshot_installs;  // 0 in log-replay mode
  uint64_t frag_bytes;         // rejoiner's durable snapshot footprint
};

// One run: crash follower 4 while empty, write the workload (every key
// `overwrites` times), restart it and measure the convergence.
Row measure(size_t value_size, int overwrites, bool snapshots, uint64_t seed) {
  auto world = std::make_unique<sim::SimWorld>(seed);
  kv::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.rs_mode = true;
  opts.f = 1;
  opts.link = sim::LinkParams::lan();
  opts.disk = sim::DiskParams::ssd();
  opts.replica = bench_replica_options(false);
  // Log replay serves the full missed history from the leader's log; shares
  // evicted behind the horizon are read back from its WAL.
  opts.replica.payload_cache_slots = 64;
  if (snapshots) opts.replica.checkpoint_interval_slots = 16;
  kv::SimCluster cluster(world.get(), opts);
  cluster.wait_for_leaders();
  make_client_links_free(cluster, 1);
  kv::KvClient::Options copts;
  copts.request_timeout = 2 * kSeconds;
  copts.max_attempts = 1000;
  auto client = cluster.make_client(0, copts);

  auto run_until = [&](auto done, DurationMicros max = 600 * kSeconds) {
    TimeMicros deadline = world->now() + max;
    while (!done() && world->now() < deadline) world->run_for(5 * kMillis);
  };

  int lagger = 4;
  if (cluster.leader_server_of(0) == lagger) lagger = 3;
  cluster.crash_server(lagger);

  Bytes value(value_size, 0x6b);
  for (int round = 0; round < overwrites; ++round) {
    for (int k = 0; k < kKeys; ++k) {
      bool done = false;
      client->put("obj-" + std::to_string(k), value, [&](Status) { done = true; });
      run_until([&] { return done; });
    }
  }

  int leader = cluster.leader_server_of(0);
  consensus::Slot target = cluster.server(leader, 0)->replica().last_applied();
  if (snapshots) {
    // The rejoiner's gap must predate the leader's log start, or plain
    // catch-up would still close it and the comparison measures nothing.
    run_until([&] { return cluster.server(leader, 0)->replica().log_start() > 1; });
  }

  uint64_t net0 = cluster.total_network_bytes();
  TimeMicros t0 = world->now();
  cluster.restart_server(lagger);
  auto& rejoiner = cluster.server(lagger, 0)->replica();
  run_until([&] { return rejoiner.state_ready() && rejoiner.last_applied() >= target; });

  Row row;
  row.value_bytes = value_size;
  row.state_bytes = static_cast<uint64_t>(kKeys) * value_size;
  row.slots_missed = target;
  row.converge_ms = static_cast<double>(world->now() - t0) / 1000.0;
  row.net_mb = static_cast<double>(cluster.total_network_bytes() - net0) / 1e6;
  row.snapshot_installs = rejoiner.stats().snapshot_installs;
  // The rejoiner's own fragment save may still be in flight on the sim disk;
  // let it land before sampling the durable footprint (not part of the
  // convergence time — the replica already serves reads).
  if (snapshots) {
    run_until([&] { return cluster.snap_store(lagger, 0).stored_bytes() > 0; },
              10 * kSeconds);
  }
  row.frag_bytes = cluster.snap_store(lagger, 0).stored_bytes();
  if (rejoiner.last_applied() < target) {
    std::fprintf(stderr, "warning: rejoiner never converged (value=%zu snap=%d)\n",
                 value_size, snapshots ? 1 : 0);
  }
  if (snapshots && row.snapshot_installs == 0) {
    std::fprintf(stderr, "warning: snapshot run converged without an install\n");
  }
  return row;
}

}  // namespace

int main() {
  // `overwrites` makes the missed log a multiple of the live state: each key
  // is rewritten 4x, so log replay hauls ~4x the bytes a snapshot ships.
  constexpr int kOverwrites = 4;
  const size_t sizes[] = {1u << 10, 8u << 10, 64u << 10};

  std::printf("=== Rejoin cost: log-replay catch-up vs InstallSnapshot ===\n");
  std::printf("(5 nodes, theta(3,5), LAN/SSD, %d keys x %d overwrites)\n\n", kKeys,
              kOverwrites);
  std::printf("%-8s %10s | %12s %10s | %12s %10s %10s\n", "value", "state", "replay ms",
              "net MB", "install ms", "net MB", "frag KB");

  struct Pair {
    Row replay, snap;
  };
  std::vector<Pair> rows;
  uint64_t seed = 29;
  for (size_t size : sizes) {
    Pair p;
    p.replay = measure(size, kOverwrites, /*snapshots=*/false, seed);
    p.snap = measure(size, kOverwrites, /*snapshots=*/true, seed);
    rows.push_back(p);
    std::printf("%-8s %9sB | %12.1f %10.2f | %12.1f %10.2f %10llu\n",
                size_label(size).c_str(), size_label(p.replay.state_bytes).c_str(),
                p.replay.converge_ms, p.replay.net_mb, p.snap.converge_ms, p.snap.net_mb,
                static_cast<unsigned long long>(p.snap.frag_bytes >> 10));
    seed += 7;
  }

  std::FILE* f = std::fopen("BENCH_snapshot.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_snapshot.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"keys\": %d,\n  \"overwrites\": %d,\n  \"rows\": [\n", kKeys,
               kOverwrites);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Pair& p = rows[i];
    std::fprintf(f,
                 "    {\"value_bytes\": %zu, \"state_bytes\": %llu, "
                 "\"slots_missed\": %llu,\n"
                 "     \"log_replay\": {\"converge_ms\": %.1f, \"net_mb\": %.2f},\n"
                 "     \"snapshot_install\": {\"converge_ms\": %.1f, \"net_mb\": %.2f, "
                 "\"installs\": %llu, \"frag_bytes\": %llu}}%s\n",
                 p.replay.value_bytes, static_cast<unsigned long long>(p.replay.state_bytes),
                 static_cast<unsigned long long>(p.replay.slots_missed),
                 p.replay.converge_ms, p.replay.net_mb, p.snap.converge_ms, p.snap.net_mb,
                 static_cast<unsigned long long>(p.snap.snapshot_installs),
                 static_cast<unsigned long long>(p.snap.frag_bytes),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_snapshot.json\n");
  return 0;
}
