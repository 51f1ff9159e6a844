// Multi-group node host: fsync amortization from multiplexing one machine
// log across Paxos groups. Sweeps the shard count on the 5-node cluster; each
// cell runs the host (every group behind one multiplexed WAL per machine)
// and a per-group-log baseline (emulated as G independent single-group runs
// with the same per-group client load). Writes BENCH_multi_group.json.
//
// Expected shape: the machine log folds its groups' appends into one
// group-commit stream, so fsync counts fall below the per-group-log baseline
// as G grows (on the SSD model only from G = 4: its short flush leaves a
// narrow commit window). One log also serializes every group behind a single flush in flight, so
// throughput decays as G grows at a fixed client count. The amortization win
// is largest when per-group concurrency is low (each group alone can't fill a
// commit window) and on slow disks, where fsyncs dominate the write path.
//
// Honesty note (mirrored in DESIGN.md §10): the baseline sums G *independent*
// runs, i.e. per-group logs on per-group spindles. Co-locating G separate
// logs on one physical disk would additionally contend for the device, so
// the fsync-count ratio reported here is a floor on the shared log's
// advantage in ops, not a full device-time model.
#include <cstdio>

#include "common.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

constexpr int kServers = 5;
constexpr int kClients = 8;       // total closed-loop clients, spread over groups
constexpr uint64_t kTotalOps = 320;
constexpr size_t kValueBytes = 1024;

struct Cell {
  int groups;
  double mbps;
  double p50_ms, p99_ms;   // write latency
  uint64_t ops;
  uint64_t shared_flushes;     // machine fsyncs, summed over the 5 servers
  uint64_t shared_flushed_mb;
  uint64_t split_flushes;      // per-group-log baseline, summed over G runs
  double amortization() const {
    return shared_flushes ? static_cast<double>(split_flushes) /
                                static_cast<double>(shared_flushes)
                          : 0.0;
  }
};

kv::SimClusterOptions cluster_options(const DiskKind& disk, int groups) {
  kv::SimClusterOptions opts;
  opts.num_servers = kServers;
  opts.num_groups = groups;
  opts.rs_mode = true;
  opts.f = 1;  // theta(3,5) per group
  opts.link = sim::LinkParams::lan();
  opts.disk = disk.params;
  opts.replica = bench_replica_options(false);
  opts.wal_retain = false;  // no restarts in measurement runs
  // One leader per machine where possible, like a production placement;
  // otherwise server 0 fsyncs for every group and the others idle.
  opts.spread_leaders = true;
  return opts;
}

WorkloadSpec workload(int clients, uint64_t ops, uint64_t seed) {
  WorkloadSpec spec;
  spec.value_min = spec.value_max = kValueBytes;
  spec.read_ratio = 0.0;  // fsyncs only happen on the write path
  spec.num_clients = clients;
  spec.total_ops = ops;
  spec.key_space = 64;
  spec.seed = seed;
  return spec;
}

RunResult run_one(const DiskKind& disk, int groups, int clients, uint64_t ops,
                  uint64_t seed) {
  auto world = std::make_unique<sim::SimWorld>(seed);
  kv::SimCluster cluster(world.get(), cluster_options(disk, groups));
  cluster.wait_for_leaders();
  WorkloadDriver driver(world.get(), &cluster, workload(clients, ops, seed));
  return driver.run();
}

Cell measure(const DiskKind& disk, int groups, uint64_t seed) {
  RunResult shared = run_one(disk, groups, kClients, kTotalOps, seed);

  // Per-group-log baseline: G single-group runs, each with the per-group
  // slice of the client pool and of the op budget. Their summed fsync count
  // is what G unshared logs would have issued for the same work.
  int per_group_clients = kClients / groups > 0 ? kClients / groups : 1;
  uint64_t per_group_ops = kTotalOps / static_cast<uint64_t>(groups);
  uint64_t split_flushes = 0;
  for (int g = 0; g < groups; ++g) {
    RunResult solo =
        run_one(disk, 1, per_group_clients, per_group_ops, seed + 101 + static_cast<uint64_t>(g));
    split_flushes += solo.flush_ops;
  }

  Cell cell;
  cell.groups = groups;
  cell.mbps = shared.throughput_mbps();
  cell.p50_ms = static_cast<double>(shared.write_latency_us.value_at(0.50)) / 1000.0;
  cell.p99_ms = static_cast<double>(shared.write_latency_us.value_at(0.99)) / 1000.0;
  cell.ops = shared.ops;
  cell.shared_flushes = shared.flush_ops;
  cell.shared_flushed_mb = shared.flushed_bytes >> 20;
  cell.split_flushes = split_flushes;
  return cell;
}

}  // namespace

int main() {
  const int group_counts[] = {1, 2, 4, 8};
  const DiskKind disks[] = {ssd(), hdd()};

  std::printf("=== Multi-group host: one machine log vs per-group logs ===\n");
  std::printf("(5 nodes, theta(3,5) per group, LAN, %d clients, %lluB writes, %llu ops)\n\n",
              kClients, static_cast<unsigned long long>(kValueBytes),
              static_cast<unsigned long long>(kTotalOps));
  std::printf("%-5s %-6s | %9s | %8s %8s | %10s %10s %7s\n", "disk", "groups", "Mb/s",
              "p50 ms", "p99 ms", "shared fs", "split fs", "ratio");

  struct DiskRows {
    const char* disk;
    std::vector<Cell> cells;
  };
  std::vector<DiskRows> all;
  uint64_t seed = 41;
  for (const DiskKind& disk : disks) {
    DiskRows rows{disk.name, {}};
    for (int groups : group_counts) {
      Cell c = measure(disk, groups, seed);
      std::printf("%-5s %-6d | %9.2f | %8.2f %8.2f | %10llu %10llu %6.2fx\n", disk.name,
                  c.groups, c.mbps, c.p50_ms, c.p99_ms,
                  static_cast<unsigned long long>(c.shared_flushes),
                  static_cast<unsigned long long>(c.split_flushes), c.amortization());
      rows.cells.push_back(c);
      seed += 13;
    }
    all.push_back(std::move(rows));
    std::printf("\n");
  }

  std::FILE* f = std::fopen("BENCH_multi_group.json", "w");
  if (!f) {
    std::fprintf(stderr, "cannot write BENCH_multi_group.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n  \"servers\": %d,\n  \"clients\": %d,\n  \"total_ops\": %llu,\n"
               "  \"value_bytes\": %llu,\n  %s,\n"
               "  \"note\": \"sim-time results; every group of a machine writes "
               "one multiplexed log. split_flush_ops sums G independent "
               "single-group runs (per-group logs).\",\n  \"rows\": [\n",
               kServers, kClients, static_cast<unsigned long long>(kTotalOps),
               static_cast<unsigned long long>(kValueBytes), bench_meta_json().c_str());
  bool first = true;
  for (const DiskRows& rows : all) {
    for (const Cell& c : rows.cells) {
      std::fprintf(f,
                   "%s    {\"disk\": \"%s\", \"groups\": %d, \"mbps\": %.2f, "
                   "\"p50_ms\": %.2f, \"p99_ms\": %.2f, \"ops\": %llu,\n"
                   "     \"shared_flush_ops\": %llu, \"shared_flushed_mb\": %llu, "
                   "\"split_flush_ops\": %llu, \"amortization\": %.2f}",
                   first ? "" : ",\n", rows.disk, c.groups, c.mbps, c.p50_ms, c.p99_ms,
                   static_cast<unsigned long long>(c.ops),
                   static_cast<unsigned long long>(c.shared_flushes),
                   static_cast<unsigned long long>(c.shared_flushed_mb),
                   static_cast<unsigned long long>(c.split_flushes), c.amortization());
      first = false;
    }
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_multi_group.json\n");
  return 0;
}
