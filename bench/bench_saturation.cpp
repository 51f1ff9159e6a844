// Open-loop saturation engine: latency-vs-offered-load curves past the knee.
//
// Closed-loop figures (fig5/fig6) stop measuring exactly where systems get
// interesting: once the pipeline saturates, a closed-loop client's offered
// load collapses to the service rate and the latency axis flatlines. This
// bench drives the pipelined KvClient with a Poisson OPEN-loop arrival
// process (src/load) at a grid of target QPS spanning the saturation knee,
// on both the simulated cluster and the real TCP stack, and reports
// coordinated-omission-safe p50/p99/p999 (latency from each op's INTENDED
// arrival time — see src/load/latency_recorder.h).
//
// Beyond the knee, the server's admission control (KvAdmissionOptions) sheds
// load with kOverloaded instead of queueing without bound, so the p99 of
// admitted (completed) ops stays bounded while shed counts climb — both are
// reported per point.
//
// Also measures the pipelining win directly: a closed-loop single-in-flight
// client vs the pipelined window on the same TCP cluster.
//
// Writes BENCH_saturation.json. `--smoke` runs a short low-QPS sim-only
// sweep (CI's scripts/check.sh --sat); `--skip-tcp` drops the TCP half.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common.h"
#include "load/open_loop.h"
#include "node/tcp_cluster.h"

using namespace rspaxos;
using namespace rspaxos::bench;

namespace {

constexpr size_t kValueBytes = 1024;
constexpr int kKeySpace = 64;
constexpr size_t kClientWindow = 256;

/// One measured offered-load point.
struct Point {
  double offered_qps = 0;    // arrivals actually generated / s
  double target_qps = 0;     // the grid target
  double achieved_qps = 0;   // completed-ok / s over the arrival window
  int64_t resp_p50 = 0, resp_p99 = 0, resp_p999 = 0;  // CO-safe (intended)
  int64_t serv_p50 = 0, serv_p99 = 0;                 // dispatch-relative
  uint64_t ok = 0, failed = 0;
  uint64_t shed = 0;         // server kOverloaded bounces during the point
  uint64_t backoffs = 0;     // client backoffs absorbed during the point
  uint64_t client_shed = 0;  // arrivals dropped at the client-queue bound
};

struct Sweep {
  double capacity_qps = 0;  // achieved under deliberate overload
  double knee_qps = 0;      // lowest offered with achieved < 0.85 * offered
  std::vector<Point> points;
};

/// Admission budgets used by every server in this bench: deep enough to keep
/// the pipeline full, shallow enough that overload turns into kOverloaded
/// (and client backoff) instead of an ever-growing commit queue. The inflight
/// budget sits BELOW the client window on purpose: past the knee the window
/// fills, the excess bounces with kOverloaded, and the server's queue stays
/// bounded — that bounce is exactly the shedding this bench measures.
kv::KvServerOptions saturation_kv_options() {
  kv::KvServerOptions kv;
  kv.batch_window = 200;  // us; instance batching keeps fsyncs off the knee
  kv.admission.max_inflight = kClientWindow / 2;
  kv.admission.max_queue_bytes = 8u << 20;
  return kv;
}

kv::KvClient::Options saturation_client_options() {
  kv::KvClient::Options copts;
  copts.request_timeout = 5 * kSeconds;
  copts.max_attempts = 1000;
  copts.max_inflight = kClientWindow;
  return copts;
}

void fill_point(Point& p, const load::OpenLoopGen& gen) {
  p.offered_qps = gen.offered_qps();
  p.achieved_qps = gen.achieved_qps();
  const Histogram& resp = gen.recorder().response_us();
  const Histogram& serv = gen.recorder().service_us();
  p.resp_p50 = resp.value_at(0.50);
  p.resp_p99 = resp.value_at(0.99);
  p.resp_p999 = resp.value_at(0.999);
  p.serv_p50 = serv.value_at(0.50);
  p.serv_p99 = serv.value_at(0.99);
  p.ok = gen.recorder().ok();
  p.failed = gen.recorder().failed();
  p.client_shed = gen.client_shed();
}

double find_knee(const Sweep& s) {
  for (const Point& p : s.points) {
    if (p.achieved_qps < 0.85 * p.offered_qps) return p.offered_qps;
  }
  // No point sheds: the knee lies past the grid; report the last offered
  // load as the measured lower bound (never NaN).
  return s.points.empty() ? 0.0 : s.points.back().offered_qps;
}

// ---------------------------------------------------------------------------
// Simulated cluster

struct SimPointResult {
  Point point;
  double achieved = 0;
};

Point run_sim_point(double qps, DurationMicros duration, uint64_t seed) {
  sim::SimWorld world(seed);
  kv::SimClusterOptions opts;
  opts.num_servers = 5;
  opts.num_groups = 1;
  opts.rs_mode = true;
  opts.f = 1;
  opts.link = sim::LinkParams::lan();
  opts.disk = sim::DiskParams::ssd();
  opts.replica = bench_replica_options(false);
  opts.kv = saturation_kv_options();
  opts.wal_retain = false;
  kv::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();
  make_client_links_free(cluster, 1);

  auto client = cluster.make_client(0, saturation_client_options());
  NodeContext* ctx = cluster.network().node(kv::kClientBase);

  // Preload so reads would always hit and first-touch costs stay out of the
  // measured window.
  for (int k = 0; k < kKeySpace; ++k) {
    bool done = false;
    client->put("k-" + std::to_string(k), Bytes(kValueBytes, 0x5a),
                [&done](Status) { done = true; });
    TimeMicros deadline = world.now() + 60 * kSeconds;
    while (!done && world.now() < deadline) world.run_for(5 * kMillis);
  }

  uint64_t shed0 = 0;
  for (int s = 0; s < opts.num_servers; ++s) {
    shed0 += cluster.server(s, 0)->stats().admission_shed;
  }
  uint64_t backoffs0 = client->stats().overload_backoffs;

  load::OpenLoopSpec spec;
  spec.qps = qps;
  spec.read_ratio = 0.0;
  spec.value_size = kValueBytes;
  spec.key_space = kKeySpace;
  spec.seed = seed ^ 0xabcdef;
  spec.duration = duration;
  spec.drain_timeout = 60 * kSeconds;
  spec.max_client_queue = 4 * kClientWindow;
  load::OpenLoopGen gen(ctx, client.get(), spec);

  bool finished = false;
  gen.start([&finished] { finished = true; });
  TimeMicros deadline = world.now() + duration + 90 * kSeconds;
  while (!finished && world.now() < deadline) world.run_for(10 * kMillis);

  Point p;
  p.target_qps = qps;
  fill_point(p, gen);
  for (int s = 0; s < opts.num_servers; ++s) {
    p.shed += cluster.server(s, 0)->stats().admission_shed;
  }
  p.shed -= shed0;
  p.backoffs = client->stats().overload_backoffs - backoffs0;
  gen.stop();
  client->cancel_all(Status::timeout("bench teardown"));
  return p;
}

Sweep run_sim_sweep(bool smoke) {
  Sweep sweep;
  DurationMicros probe_dur = smoke ? 1 * kSeconds : 4 * kSeconds;
  DurationMicros point_dur = smoke ? 1 * kSeconds : 8 * kSeconds;

  std::fprintf(stderr, "sim: probing capacity...\n");
  Point probe = run_sim_point(smoke ? 20000 : 200000, probe_dur, 11);
  sweep.capacity_qps = probe.achieved_qps;
  std::fprintf(stderr, "sim: capacity ~= %.0f qps\n", sweep.capacity_qps);

  const double grid[] = {0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0};
  uint64_t seed = 100;
  for (double frac : grid) {
    double qps = frac * sweep.capacity_qps;
    if (qps < 1) qps = 1;
    Point p = run_sim_point(qps, point_dur, seed++);
    std::fprintf(stderr,
                 "sim: offered %8.0f achieved %8.0f  p50 %6lld us  p99 %8lld us  "
                 "p999 %8lld us  shed %llu\n",
                 p.offered_qps, p.achieved_qps, static_cast<long long>(p.resp_p50),
                 static_cast<long long>(p.resp_p99), static_cast<long long>(p.resp_p999),
                 static_cast<unsigned long long>(p.shed));
    sweep.points.push_back(p);
  }
  sweep.knee_qps = find_knee(sweep);
  return sweep;
}

// ---------------------------------------------------------------------------
// TCP cluster

struct TcpBench {
  std::unique_ptr<node::TcpCluster> cluster;
  net::TcpNode* cnode = nullptr;
  std::unique_ptr<kv::KvClient> client;
  std::filesystem::path dir;

  ~TcpBench() {
    if (cnode != nullptr && client) {
      // Quiesce on the loop before the client object dies (its sweep timer
      // captures `this`).
      std::promise<void> done;
      auto fut = done.get_future();
      kv::KvClient* c = client.get();
      cnode->loop().post([&done, c] {
        c->cancel_all(Status::timeout("bench teardown"));
        done.set_value();
      });
      fut.wait();
      cnode->set_handler(nullptr);
    }
    client.reset();
    cluster.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

std::unique_ptr<TcpBench> start_tcp(kv::KvClient::Options copts) {
  auto b = std::make_unique<TcpBench>();
  b->dir = std::filesystem::temp_directory_path() /
           ("rspaxos_bench_sat_" + std::to_string(::getpid()));
  std::filesystem::remove_all(b->dir);

  node::TcpClusterOptions opts;
  opts.num_servers = 3;
  opts.num_groups = 1;
  opts.rs_mode = true;  // theta(1,3): RS degenerates to replication at N=3
  opts.f = 1;
  opts.num_clients = 1;
  opts.data_dir = b->dir.string();
  opts.kv = saturation_kv_options();
  opts.replica.heartbeat_interval = 30 * kMillis;
  opts.replica.election_timeout_min = 300 * kMillis;
  opts.replica.election_timeout_max = 600 * kMillis;
  opts.replica.lease_duration = 250 * kMillis;
  // Health watermark feed: a loop lagging 50ms+ at p99 sheds via kOverloaded.
  opts.health.overload_lag_p99 = 50 * kMillis;

  auto started = node::TcpCluster::start(opts);
  if (!started.is_ok()) {
    std::fprintf(stderr, "tcp: cluster start failed: %s\n",
                 started.status().to_string().c_str());
    return nullptr;
  }
  b->cluster = std::move(started).value();

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (b->cluster->leader_server_of(0) < 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (b->cluster->leader_server_of(0) < 0) {
    std::fprintf(stderr, "tcp: no leader elected\n");
    return nullptr;
  }

  auto cnode = b->cluster->start_client();
  if (!cnode.is_ok()) {
    std::fprintf(stderr, "tcp: start_client failed\n");
    return nullptr;
  }
  b->cnode = cnode.value();
  b->client = std::make_unique<kv::KvClient>(b->cnode, b->cluster->routing(), copts);
  kv::KvClient* c = b->client.get();
  net::TcpNode* n = b->cnode;
  b->cnode->loop().post([n, c] { n->set_handler(c); });

  // Preload the key space.
  for (int k = 0; k < kKeySpace; ++k) {
    std::promise<Status> done;
    auto fut = done.get_future();
    std::string key = "k-" + std::to_string(k);
    b->cnode->loop().post([c, key, &done] {
      c->put(key, Bytes(kValueBytes, 0x5a), [&done](Status s) { done.set_value(s); });
    });
    if (fut.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      std::fprintf(stderr, "tcp: preload stuck\n");
      return nullptr;
    }
  }
  return b;
}

uint64_t tcp_total_shed(TcpBench& b) {
  uint64_t shed = 0;
  for (int s = 0; s < b.cluster->options().num_servers; ++s) {
    shed += b.cluster->server(s, 0)->stats().admission_shed;
  }
  return shed;
}

Point run_tcp_point(TcpBench& b, double qps, DurationMicros duration, uint64_t seed) {
  uint64_t shed0 = tcp_total_shed(b);
  uint64_t backoffs0 = b.client->stats().overload_backoffs;

  load::OpenLoopSpec spec;
  spec.qps = qps;
  spec.read_ratio = 0.0;
  spec.value_size = kValueBytes;
  spec.key_space = kKeySpace;
  spec.seed = seed;
  spec.duration = duration;
  spec.drain_timeout = 30 * kSeconds;
  spec.max_client_queue = 4 * kClientWindow;

  auto gen = std::make_unique<load::OpenLoopGen>(b.cnode, b.client.get(), spec);
  std::atomic<bool> finished{false};
  load::OpenLoopGen* g = gen.get();
  b.cnode->loop().post([g, &finished] {
    g->start([&finished] { finished.store(true, std::memory_order_release); });
  });

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(duration + 60 * kSeconds);
  while (!finished.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!finished.load(std::memory_order_acquire)) {
    // Wedged: cancel everything on the loop and take what we have.
    std::promise<void> done;
    auto fut = done.get_future();
    kv::KvClient* c = b.client.get();
    b.cnode->loop().post([g, c, &done] {
      g->stop();
      c->cancel_all(Status::timeout("tcp point deadline"));
      done.set_value();
    });
    fut.wait();
  }

  Point p;
  p.target_qps = qps;
  fill_point(p, *g);
  p.shed = tcp_total_shed(b) - shed0;
  p.backoffs = b.client->stats().overload_backoffs - backoffs0;

  // Destroy the generator on the loop so no timer callback races teardown.
  // (post() needs a copyable callable, so hand over a raw pointer.)
  std::promise<void> destroyed;
  auto fut = destroyed.get_future();
  load::OpenLoopGen* raw = gen.release();
  b.cnode->loop().post([raw, &destroyed] {
    raw->stop();
    delete raw;
    destroyed.set_value();
  });
  fut.wait();
  return p;
}

/// Closed-loop single-in-flight baseline: the next op is issued only after
/// the previous completes — the pre-pipelining client behaviour.
double run_tcp_closed_loop(TcpBench& b, DurationMicros duration) {
  std::atomic<uint64_t> ops{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> idle{false};
  kv::KvClient* c = b.client.get();

  // The chain lives on the loop thread; `next` must outlive every callback.
  auto next = std::make_shared<std::function<void()>>();
  *next = [c, next, &ops, &stop, &idle] {
    if (stop.load(std::memory_order_acquire)) {
      idle.store(true, std::memory_order_release);
      return;
    }
    uint64_t n = ops.load(std::memory_order_relaxed);
    std::string key = "k-" + std::to_string(n % kKeySpace);
    c->put(key, Bytes(kValueBytes, 0x77), [next, &ops](Status) {
      ops.fetch_add(1, std::memory_order_relaxed);
      (*next)();
    });
  };
  auto t0 = std::chrono::steady_clock::now();
  b.cnode->loop().post([next] { (*next)(); });
  std::this_thread::sleep_for(std::chrono::microseconds(duration));
  stop.store(true, std::memory_order_release);
  auto elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0);
  // Let the in-flight op finish so the shared chain is quiescent before the
  // shared_ptr captures die with this frame.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!idle.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return static_cast<double>(ops.load()) / elapsed.count();
}

struct TcpResults {
  Sweep sweep;
  double closed_loop_qps = 0;
  double pipelined_qps = 0;
  double speedup = 0;
  bool ran = false;
};

TcpResults run_tcp_bench(bool smoke) {
  TcpResults out;
  DurationMicros probe_dur = smoke ? 1 * kSeconds : 3 * kSeconds;
  DurationMicros point_dur = smoke ? 1 * kSeconds : 5 * kSeconds;

  auto b = start_tcp(saturation_client_options());
  if (!b) return out;

  // Pipelining win first (same cluster, fresh counters): closed-loop
  // single-in-flight vs the open-loop pipelined window.
  std::fprintf(stderr, "tcp: closed-loop single-in-flight baseline...\n");
  {
    // Single-in-flight via a dedicated client would double socket setup;
    // the chain below never has >1 op outstanding on the shared client.
    out.closed_loop_qps = run_tcp_closed_loop(*b, probe_dur);
  }
  std::fprintf(stderr, "tcp: closed-loop = %.0f qps\n", out.closed_loop_qps);

  std::fprintf(stderr, "tcp: probing pipelined capacity...\n");
  Point probe = run_tcp_point(*b, smoke ? 5000 : 100000, probe_dur, 7);
  out.sweep.capacity_qps = probe.achieved_qps;
  out.pipelined_qps = probe.achieved_qps;
  out.speedup =
      out.closed_loop_qps > 0 ? out.pipelined_qps / out.closed_loop_qps : 0.0;
  std::fprintf(stderr, "tcp: pipelined = %.0f qps (%.1fx closed-loop)\n",
               out.pipelined_qps, out.speedup);

  const double grid[] = {0.25, 0.5, 0.75, 0.9, 1.1, 1.5, 2.0};
  uint64_t seed = 200;
  for (double frac : grid) {
    double qps = frac * out.sweep.capacity_qps;
    if (qps < 1) qps = 1;
    Point p = run_tcp_point(*b, qps, point_dur, seed++);
    std::fprintf(stderr,
                 "tcp: offered %8.0f achieved %8.0f  p50 %6lld us  p99 %8lld us  "
                 "p999 %8lld us  shed %llu\n",
                 p.offered_qps, p.achieved_qps, static_cast<long long>(p.resp_p50),
                 static_cast<long long>(p.resp_p99), static_cast<long long>(p.resp_p999),
                 static_cast<unsigned long long>(p.shed));
    out.sweep.points.push_back(p);
  }
  out.sweep.knee_qps = find_knee(out.sweep);
  out.ran = true;
  return out;
}

// ---------------------------------------------------------------------------
// Output

void emit_points(std::FILE* f, const std::vector<Point>& points) {
  for (size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(
        f,
        "      {\"target_qps\": %.0f, \"offered_qps\": %.1f, \"achieved_qps\": %.1f, "
        "\"resp_p50_us\": %lld, \"resp_p99_us\": %lld, \"resp_p999_us\": %lld, "
        "\"serv_p50_us\": %lld, \"serv_p99_us\": %lld, "
        "\"ok\": %llu, \"failed\": %llu, \"shed\": %llu, \"backoffs\": %llu, "
        "\"client_shed\": %llu}%s\n",
        p.target_qps, p.offered_qps, p.achieved_qps,
        static_cast<long long>(p.resp_p50), static_cast<long long>(p.resp_p99),
        static_cast<long long>(p.resp_p999), static_cast<long long>(p.serv_p50),
        static_cast<long long>(p.serv_p99), static_cast<unsigned long long>(p.ok),
        static_cast<unsigned long long>(p.failed),
        static_cast<unsigned long long>(p.shed),
        static_cast<unsigned long long>(p.backoffs),
        static_cast<unsigned long long>(p.client_shed),
        i + 1 < points.size() ? "," : "");
  }
}

void emit_json(const Sweep& sim, const TcpResults& tcp, bool smoke) {
  std::FILE* f = std::fopen("BENCH_saturation.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_saturation.json\n");
    return;
  }
  std::fprintf(f,
               "{\n  \"mode\": \"%s\",\n  %s,\n"
               "  \"measurement\": \"open-loop Poisson arrivals; latency from "
               "intended arrival time (coordinated-omission-safe)\",\n"
               "  \"value_bytes\": %zu,\n  \"client_window\": %zu,\n",
               smoke ? "smoke" : "full", bench_meta_json(1).c_str(), kValueBytes,
               kClientWindow);
  std::fprintf(f,
               "  \"sim\": {\n    \"cluster\": \"5 servers, theta(3,5), LAN, SSD\",\n"
               "    \"capacity_qps\": %.1f,\n    \"knee_qps\": %.1f,\n"
               "    \"points\": [\n",
               sim.capacity_qps, sim.knee_qps);
  emit_points(f, sim.points);
  std::fprintf(f, "    ]\n  }");
  if (tcp.ran) {
    std::fprintf(f,
                 ",\n  \"tcp\": {\n    \"cluster\": \"3 servers, loopback TCP, "
                 "fsync WAL\",\n"
                 "    \"capacity_qps\": %.1f,\n    \"knee_qps\": %.1f,\n"
                 "    \"points\": [\n",
                 tcp.sweep.capacity_qps, tcp.sweep.knee_qps);
    emit_points(f, tcp.sweep.points);
    std::fprintf(f,
                 "    ]\n  },\n"
                 "  \"pipelining\": {\n"
                 "    \"closed_loop_single_inflight_qps\": %.1f,\n"
                 "    \"pipelined_open_loop_qps\": %.1f,\n"
                 "    \"speedup\": %.2f\n  }\n}\n",
                 tcp.closed_loop_qps, tcp.pipelined_qps, tcp.speedup);
  } else {
    std::fprintf(f, "\n}\n");
  }
  std::fclose(f);
  std::printf("wrote BENCH_saturation.json (sim knee %.0f qps%s)\n", sim.knee_qps,
              tcp.ran ? ", tcp sweep included" : "");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool skip_tcp = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--skip-tcp") == 0) skip_tcp = true;
  }

  Sweep sim = run_sim_sweep(smoke);
  TcpResults tcp;
  if (!skip_tcp && !smoke) tcp = run_tcp_bench(smoke);

  emit_json(sim, tcp, smoke);
  emit_metrics_files("BENCH_saturation");
  return 0;
}
