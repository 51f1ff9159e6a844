// Quickstart: spin up the paper's 5-replica RS-Paxos key-value store (N=5,
// QR=QW=4, θ(3,5)) on the deterministic simulator, write/read/delete a few
// keys, and print what the protocol actually moved over the network and to
// disk compared to full-copy Paxos.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "kv/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace rspaxos;

namespace {

// Drives the simulation until the callback-based operation completes.
template <typename Pred>
void run_until(sim::SimWorld& world, Pred done) {
  TimeMicros deadline = world.now() + 60 * kSeconds;
  while (!done() && world.now() < deadline) world.run_for(5 * kMillis);
}

uint64_t run_demo(bool rs_mode) {
  sim::SimWorld world(2024);
  kv::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.rs_mode = rs_mode;  // RS-Paxos θ(3,5) vs classic full-copy Paxos
  opts.f = 1;
  kv::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();

  auto client = cluster.make_client(0);

  // --- write ---
  Bytes value(30'000, 0x42);
  bool done = false;
  client->put("hello", value, [&](Status s) {
    std::printf("  put(\"hello\", 30 KB)          -> %s\n", s.to_string().c_str());
    done = true;
  });
  run_until(world, [&] { return done; });

  // --- fast read (leased leader) ---
  done = false;
  client->get("hello", [&](StatusOr<Bytes> r) {
    std::printf("  get(\"hello\")                 -> %s (%zu bytes)\n",
                r.is_ok() ? "OK" : r.status().to_string().c_str(),
                r.is_ok() ? r.value().size() : 0);
    done = true;
  });
  run_until(world, [&] { return done; });

  // --- consistent read (explicit marker instance) ---
  done = false;
  client->consistent_get("hello", [&](StatusOr<Bytes> r) {
    std::printf("  consistent_get(\"hello\")      -> %s\n",
                r.is_ok() ? "OK" : r.status().to_string().c_str());
    done = true;
  });
  run_until(world, [&] { return done; });

  // --- delete (write of NULL, §4.4) ---
  done = false;
  client->del("hello", [&](Status s) {
    std::printf("  del(\"hello\")                 -> %s\n", s.to_string().c_str());
    done = true;
  });
  run_until(world, [&] { return done; });

  done = false;
  client->get("hello", [&](StatusOr<Bytes> r) {
    std::printf("  get(\"hello\") after delete    -> %s\n",
                r.is_ok() ? "unexpected OK" : r.status().to_string().c_str());
    done = true;
  });
  run_until(world, [&] { return done; });

  // Idle for half a second of sim time so heartbeats visibly run.
  world.run_for(500 * kMillis);

  std::printf("  network bytes: %llu, flushed bytes: %llu\n",
              static_cast<unsigned long long>(cluster.total_network_bytes()),
              static_cast<unsigned long long>(cluster.total_flushed_bytes()));
  return cluster.total_network_bytes();
}

void write_file(const char* path, const std::string& body) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

}  // namespace

int main() {
  std::printf("RS-Paxos quickstart — 5 replicas, QR=QW=4, theta(3,5), F=1\n\n");
  std::printf("[RS-Paxos]\n");
  uint64_t rs = run_demo(true);
  std::printf("\n[classic Paxos, same cluster]\n");
  uint64_t paxos = run_demo(false);
  std::printf("\nRS-Paxos moved %.0f%% of Paxos's bytes for the same workload.\n",
              100.0 * static_cast<double>(rs) / static_cast<double>(paxos));

  // Dump the observability artifacts covering both runs.
  auto& reg = obs::MetricsRegistry::global();
  write_file("quickstart.metrics.prom", reg.to_prometheus());
  write_file("quickstart.metrics.json", reg.to_json());
  write_file("quickstart.traces.json", obs::Tracer::global().slowest_json(8));
  std::printf("\nmetrics: wrote quickstart.metrics.{prom,json} and quickstart.traces.json\n");
  std::printf("sample:  rsp_wal_bytes_durable=%llu  traced commits=%zu\n",
              static_cast<unsigned long long>(
                  reg.counter("rsp_wal_bytes_durable", "").value()),
              obs::Tracer::global().completed_count());
  return 0;
}
