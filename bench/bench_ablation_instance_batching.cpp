// Ablation: instance-level write batching (§7's RPC/IO batching applied to
// whole Paxos instances). Small concurrent writes are committed as one
// composite coded instance — one quorum round trip, one WAL record, one
// erasure encoding for the whole batch.
//
// Measures small-write throughput with the default window 0 (a batch closes
// at the end of the cycle that opened it: in the simulator, only writes that
// arrive in the same instant share an instance) against a 2 ms hold window,
// across disks, for both protocols, at 1 KB and 4 KB. Clients reach the
// servers over the LAN links, so their writes arrive independently; over
// free links the closed loop runs in lockstep and window 0 already packs
// each round into as few instances as the cap allows.
#include <cstdio>

#include "common.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

double measure_mbps(bool rs_mode, const DiskKind& disk, DurationMicros window,
                    size_t value_size) {
  auto world = std::make_unique<sim::SimWorld>(29);
  kv::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.num_groups = 1;
  opts.rs_mode = rs_mode;
  opts.f = 1;
  opts.link = sim::LinkParams::lan();
  opts.disk = disk.params;
  opts.replica = bench_replica_options(false);
  opts.kv.batch_window = window;
  opts.wal_retain = false;
  kv::SimCluster cluster(world.get(), opts);
  cluster.wait_for_leaders();

  WorkloadSpec spec;
  spec.value_min = spec.value_max = value_size;
  spec.num_clients = 48;
  spec.key_space = 192;
  spec.total_ops = 2000;
  spec.free_client_links = false;
  WorkloadDriver driver(world.get(), &cluster, spec);
  RunResult r = driver.run();
  return r.throughput_mbps();
}

}  // namespace

int main() {
  std::printf("=== Ablation: instance batching (paper §7), 48 clients ===\n\n");
  std::printf("%-10s %-6s %6s %16s %18s %8s\n", "protocol", "disk", "write", "window 0 Mbps",
              "window 2ms Mbps", "gain");
  for (size_t size : {size_t{1} << 10, size_t{4} << 10}) {
    for (bool rs : {false, true}) {
      for (const DiskKind& d : {hdd(), ssd()}) {
        double off = measure_mbps(rs, d, 0, size);
        double on = measure_mbps(rs, d, 2 * kMillis, size);
        std::printf("%-10s %-6s %4zuKB %16.1f %18.1f %7.1fx\n", rs ? "RS-Paxos" : "Paxos",
                    d.name, size >> 10, off, on, off > 0 ? on / off : 0.0);
      }
    }
  }
  std::printf("\nshape check: holding writes for a window pays off exactly where §7 says —\n"
              "\"especially when disk performs badly handling small writes\" (HDD gains at\n"
              "1 KB, where one round of 48 writes fits one batch); on a fast SSD the hold\n"
              "costs more than the amortization saves, because instances already\n"
              "pipeline across slots. At 4 KB the 64 KiB batch cap closes each batch\n"
              "after 16 writes, before the window matters. Gains are protocol-\n"
              "independent: batching is orthogonal to erasure coding.\n");
  return 0;
}
