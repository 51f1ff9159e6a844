// Shared benchmark driver: assembles a simulated cluster matching one of the
// paper's environments (§6.1), runs closed-loop clients against it, and
// reports latency / throughput exactly as the figures do.
//
// Environments:
//   local cluster — 1 Gbps LAN, ~0.1 ms one-way;
//   wide area     — 50±10 ms one-way, 500 Mbps (§6.1's netem emulation).
// Disks: HDD-class (~100 IOPS) vs SSD-class (~4000 IOPS) EBS volumes.
#pragma once

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "kv/cluster.h"
// Shared CO-safe latency recording for all benchmarks: percentiles come from
// util::Histogram via load::LatencyRecorder, never ad-hoc sorted-vector math.
#include "load/latency_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace rspaxos::bench {

struct Env {
  const char* name;
  sim::LinkParams link;
};

inline Env local_cluster() { return Env{"local", sim::LinkParams::lan()}; }
inline Env wide_area() { return Env{"wan", sim::LinkParams::wan()}; }

struct DiskKind {
  const char* name;
  sim::DiskParams params;
};

inline DiskKind hdd() { return DiskKind{"HDD", sim::DiskParams::hdd()}; }
inline DiskKind ssd() { return DiskKind{"SSD", sim::DiskParams::ssd()}; }

/// Execution-environment metadata stamped into every bench JSON header (no
/// surrounding braces — splice into an object): the host's ACTUAL core count,
/// so a result's claims are checkable after the fact.
inline std::string bench_meta_json() {
  return "\"cores\": " + std::to_string(std::thread::hardware_concurrency());
}

/// Replica timing used by all benchmarks (scaled for WAN round trips).
inline consensus::ReplicaOptions bench_replica_options(bool wan) {
  consensus::ReplicaOptions o;
  o.heartbeat_interval = wan ? 150 * kMillis : 30 * kMillis;
  o.election_timeout_min = wan ? 1200 * kMillis : 400 * kMillis;
  o.election_timeout_max = wan ? 2000 * kMillis : 800 * kMillis;
  o.lease_duration = wan ? 1000 * kMillis : 300 * kMillis;
  o.max_clock_drift = wan ? 100 * kMillis : 20 * kMillis;
  // Benchmarks run loss-free links; retransmission is pure insurance and a
  // short fuse would only duplicate multi-MB accepts behind slow disks.
  o.retransmit_interval = wan ? 4000 * kMillis : 2000 * kMillis;
  // Bound host memory on multi-GB sweeps: drop cached payloads of
  // long-applied slots (the durable copies live in WAL + local store).
  o.payload_cache_slots = 4;
  return o;
}

struct WorkloadSpec {
  size_t value_min = 1024;       // value size range (log-uniform)
  size_t value_max = 1024;
  double read_ratio = 0.0;       // fraction of ops that are (fast) reads
  int num_clients = 1;           // closed-loop logical clients
  uint64_t total_ops = 100;      // stop after this many completions
  int key_space = 64;            // distinct keys
  uint64_t seed = 1;
  /// true (micro-benchmarks): client<->server links are free, isolating the
  /// replication cost (§6.2.1). false (macro-benchmarks): clients pay the
  /// environment's network cost, like the paper's client VMs (§6.3).
  bool free_client_links = true;
};

struct RunResult {
  Histogram write_latency_us;
  Histogram read_latency_us;
  uint64_t ops = 0;
  uint64_t value_bytes = 0;      // payload bytes moved (read + write)
  DurationMicros elapsed_us = 0; // simulated time
  uint64_t network_bytes = 0;
  uint64_t flushed_bytes = 0;
  uint64_t flush_ops = 0;

  double throughput_mbps() const {
    if (elapsed_us <= 0) return 0;
    return static_cast<double>(value_bytes) * 8.0 / static_cast<double>(elapsed_us);
  }
};

/// Makes every client <-> server link free so measurements isolate the
/// replication cost, matching §6.2.1: "there is a fixed cost that the client
/// send the request to the server ... we remove it from our results".
inline void make_client_links_free(kv::SimCluster& cluster, int num_clients) {
  sim::LinkParams free_link{0, 0, 0.0, 0.0, 1e15};
  const auto& opts = cluster.options();
  for (int c = 0; c < num_clients; ++c) {
    NodeId cid = kv::kClientBase + static_cast<NodeId>(c);
    for (int s = 0; s < opts.num_servers; ++s) {
      for (int g = 0; g < opts.num_groups; ++g) {
        cluster.network().set_link(cid, kv::endpoint_id(s, g), free_link);
        cluster.network().set_link(kv::endpoint_id(s, g), cid, free_link);
      }
    }
  }
}

/// Closed-loop workload driver. Preloads the key space, then runs the mix to
/// completion (or until `max_sim_time`).
class WorkloadDriver {
 public:
  WorkloadDriver(sim::SimWorld* world, kv::SimCluster* cluster, WorkloadSpec spec)
      : world_(world), cluster_(cluster), spec_(spec), rng_(spec.seed) {
    if (spec_.free_client_links) make_client_links_free(*cluster_, spec_.num_clients);
    kv::KvClient::Options copts;
    copts.request_timeout = 5 * kSeconds;
    copts.max_attempts = 1000;
    for (int i = 0; i < spec_.num_clients; ++i) {
      clients_.push_back(cluster_->make_client(i, copts));
    }
  }

  /// Writes every key once (sequentially) so reads always hit.
  void preload() {
    for (int k = 0; k < spec_.key_space; ++k) {
      bool done = false;
      clients_[0]->put(key_name(k), make_value(), [&done](Status s) {
        (void)s;
        done = true;
      });
      TimeMicros deadline = world_->now() + 120 * kSeconds;
      while (!done && world_->now() < deadline) world_->run_for(5 * kMillis);
    }
  }

  RunResult run(DurationMicros max_sim_time = 600 * kSeconds) {
    uint64_t net0 = cluster_->total_network_bytes();
    uint64_t fl0 = cluster_->total_flushed_bytes();
    uint64_t flops0 = cluster_->total_flush_ops();
    start_time_ = world_->now();
    for (size_t i = 0; i < clients_.size(); ++i) next_op(i);
    TimeMicros deadline = world_->now() + max_sim_time;
    while (result_.ops < spec_.total_ops && world_->now() < deadline) {
      world_->run_for(10 * kMillis);
    }
    result_.elapsed_us = world_->now() - start_time_;
    result_.network_bytes = cluster_->total_network_bytes() - net0;
    result_.flushed_bytes = cluster_->total_flushed_bytes() - fl0;
    result_.flush_ops = cluster_->total_flush_ops() - flops0;
    return std::move(result_);
  }

 private:
  std::string key_name(int k) const { return "key-" + std::to_string(k); }

  Bytes make_value() {
    size_t size = spec_.value_min;
    if (spec_.value_max > spec_.value_min) {
      // Log-uniform across the range, matching COSBench-style mixes (§6.3).
      double lo = std::log(static_cast<double>(spec_.value_min));
      double hi = std::log(static_cast<double>(spec_.value_max));
      size = static_cast<size_t>(std::exp(lo + (hi - lo) * rng_.next_double()));
    }
    // Values are generated once per size and reused: contents do not affect
    // the protocol, and this keeps host CPU out of the simulated numbers.
    auto it = value_cache_.find(size);
    if (it == value_cache_.end()) {
      Bytes v(size);
      rng_.fill(v.data(), std::min<size_t>(size, 4096));
      it = value_cache_.emplace(size, std::move(v)).first;
    }
    return it->second;
  }

  void next_op(size_t client) {
    if (issued_ >= spec_.total_ops) return;
    issued_++;
    int k = static_cast<int>(rng_.next_below(static_cast<uint64_t>(spec_.key_space)));
    TimeMicros begin = world_->now();
    if (rng_.next_double() < spec_.read_ratio) {
      clients_[client]->get(key_name(k), [this, client, begin](StatusOr<Bytes> r) {
        if (r.is_ok()) {
          result_.read_latency_us.record(world_->now() - begin);
          result_.value_bytes += r.value().size();
        }
        result_.ops++;
        next_op(client);
      });
    } else {
      Bytes value = make_value();
      size_t sz = value.size();
      clients_[client]->put(key_name(k), std::move(value), [this, client, begin,
                                                            sz](Status s) {
        if (s.is_ok()) {
          result_.write_latency_us.record(world_->now() - begin);
          result_.value_bytes += sz;
        }
        result_.ops++;
        next_op(client);
      });
    }
  }

  sim::SimWorld* world_;
  kv::SimCluster* cluster_;
  WorkloadSpec spec_;
  Rng rng_;
  std::vector<std::unique_ptr<kv::KvClient>> clients_;
  std::map<size_t, Bytes> value_cache_;
  RunResult result_;
  uint64_t issued_ = 0;
  TimeMicros start_time_ = 0;
};

/// Builds the paper's 5-node cluster for one (mode, env, disk) cell.
struct BenchCluster {
  std::unique_ptr<sim::SimWorld> world;
  std::unique_ptr<kv::SimCluster> cluster;

  BenchCluster(bool rs_mode, const Env& env, const DiskKind& disk, int num_groups = 1,
               uint64_t seed = 17) {
    world = std::make_unique<sim::SimWorld>(seed);
    kv::SimClusterOptions opts;
    opts.num_servers = 5;
    opts.num_groups = num_groups;
    opts.rs_mode = rs_mode;
    opts.f = 1;  // §6.1: Q=4, X=3
    opts.link = env.link;
    opts.disk = disk.params;
    opts.replica = bench_replica_options(std::string(env.name) == "wan");
    opts.wal_retain = false;  // no restarts in measurement runs
    cluster = std::make_unique<kv::SimCluster>(world.get(), opts);
    cluster->wait_for_leaders();
  }
};

/// Writes the uniform benchmark metrics artifacts: `<name>.metrics.prom`,
/// `<name>.metrics.json` (registry snapshots) and `<name>.traces.json` (the
/// K slowest commit timelines).
inline void emit_metrics_files(const std::string& name, size_t k_slowest = 16) {
  auto write_file = [](const std::string& path, const std::string& body) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
  };
  auto& reg = obs::MetricsRegistry::global();
  write_file(name + ".metrics.prom", reg.to_prometheus());
  write_file(name + ".metrics.json", reg.to_json());
  write_file(name + ".traces.json", obs::Tracer::global().slowest_json(k_slowest));
  std::fprintf(stderr, "metrics: wrote %s.metrics.{prom,json} and %s.traces.json\n",
               name.c_str(), name.c_str());
}

/// Human-readable size labels used in the paper's figures.
inline std::string size_label(size_t bytes) {
  if (bytes >= (1u << 20)) return std::to_string(bytes >> 20) + "M";
  if (bytes >= (1u << 10)) return std::to_string(bytes >> 10) + "K";
  return std::to_string(bytes);
}

}  // namespace rspaxos::bench
