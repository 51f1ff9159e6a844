#include "node/tcp_cluster.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "node/cluster_config.h"
#include "util/logging.h"

namespace rspaxos::node {

namespace fs = std::filesystem;

StatusOr<std::unique_ptr<TcpCluster>> TcpCluster::start(TcpClusterOptions opts) {
  if (opts.num_servers < 1 || opts.num_groups < 1) {
    return Status::invalid("tcp cluster: need at least one server and one group");
  }
  if (opts.num_groups >= net::kGroupStride) {
    return Status::invalid("tcp cluster: num_groups exceeds kGroupStride");
  }
  if (opts.data_dir.empty()) {
    return Status::invalid("tcp cluster: data_dir is required");
  }
  // Every group has the same geometry: refuse one the code cannot serve.
  auto cfg = cluster_group_config(opts.num_servers, 0, opts.rs_mode, opts.f, opts.code);
  if (!cfg.is_ok()) {
    return Status::invalid("tcp cluster: " + cfg.status().to_string());
  }
  auto cluster = std::unique_ptr<TcpCluster>(new TcpCluster(std::move(opts)));
  RSP_RETURN_IF_ERROR(cluster->boot());
  return cluster;
}

Status TcpCluster::boot() {
  const int servers = opts_.num_servers;
  const uint32_t groups = opts_.num_groups;

  // Resolve the reactor count: 0 = auto-scale to the machine, always clamped
  // to [1, groups] (an empty reactor would have no endpoint to run on).
  int R = opts_.reactors;
  if (R <= 0) {
    R = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  R = std::max(1, std::min(R, static_cast<int>(groups)));
  reactors_ = R;

  RSP_RETURN_IF_ERROR(start_endpoints());

  wals_.resize(static_cast<size_t>(servers * R));
  snaps_.resize(static_cast<size_t>(servers));
  hosts_.resize(static_cast<size_t>(servers));
  for (int s = 0; s < servers; ++s) {
    fs::path dir = fs::path(opts_.data_dir) / ("s" + std::to_string(s));
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) return Status::internal("mkdir " + dir.string() + ": " + ec.message());
    std::vector<storage::MuxWal*> host_wals;
    for (int r = 0; r < R; ++r) {
      // Reactor 0 keeps the bare "wal" name so single-reactor data dirs
      // reopen unchanged; reactor r's log holds its ceil((G - r) / R) groups.
      std::string wal_name = r == 0 ? "wal" : "wal.r" + std::to_string(r);
      uint32_t local_groups =
          (groups - static_cast<uint32_t>(r) + static_cast<uint32_t>(R) - 1) /
          static_cast<uint32_t>(R);
      auto wal = storage::FileWal::open((dir / wal_name).string(),
                                        opts_.wal_group_commit_window_us,
                                        storage::FileWal::kDefaultSegmentBytes,
                                        local_groups);
      if (!wal.is_ok()) return wal.status();
      wals_[static_cast<size_t>(s * R + r)] = std::move(wal).value();
      host_wals.push_back(wals_[static_cast<size_t>(s * R + r)].get());
    }
    auto snap = snapshot::GroupedSnapshotStore::open((dir / "snap").string(), groups);
    if (!snap.is_ok()) return snap.status();
    snaps_[static_cast<size_t>(s)] = std::move(snap).value();

    NodeHostOptions hopts;
    hopts.replica = opts_.replica;
    hopts.kv = opts_.kv;
    hopts.health = opts_.health;
    hopts.num_shards = opts_.num_shards;
    hosts_[static_cast<size_t>(s)] = std::make_unique<NodeHost>(
        s, groups, [this](NodeId id) -> NodeContext* { return endpoints_.at(id); },
        std::move(host_wals),
        [this, s](uint32_t g) -> snapshot::SnapshotStore* {
          return snaps_[static_cast<size_t>(s)]->group(g);
        },
        [this](uint32_t g) {
          return cluster_group_config(opts_.num_servers, g, opts_.rs_mode, opts_.f, opts_.code)
              .value();
        },
        hopts,
        [this, s](uint32_t g) {
          return opts_.spread_leaders ? static_cast<int>(g) % opts_.num_servers == s : s == 0;
        },
        // Handler installation + Replica::start must run on the host's loop
        // thread: peers may deliver the instant the handler is visible.
        [](NodeContext* ctx, std::function<void()> fn) { ctx->set_timer(0, std::move(fn)); });
    // Each reactor's watchdog samples the worst per-peer outbound queue of
    // ITS loop each probe; group r is the first group on reactor r, so its
    // endpoint sees that reactor's whole host.
    for (int r = 0; r < R; ++r) {
      net::TcpNode* epr = endpoints_.at(net::endpoint_id(s, r));
      hosts_[static_cast<size_t>(s)]->set_queue_sampler(
          static_cast<uint32_t>(r),
          [epr] { return static_cast<int64_t>(epr->max_peer_queue_depth()); });
    }
    hosts_[static_cast<size_t>(s)]->start();
  }

  if (opts_.balancer) {
    balancers_.resize(static_cast<size_t>(servers));
    for (int s = 0; s < servers; ++s) {
      balancers_[static_cast<size_t>(s)] =
          std::make_unique<Balancer>(hosts_[static_cast<size_t>(s)].get(), opts_.balancer_opts);
      balancers_[static_cast<size_t>(s)]->start();
    }
  }

  if (opts_.admin) {
    admins_.resize(static_cast<size_t>(servers));
    for (int s = 0; s < servers; ++s) {
      RSP_RETURN_IF_ERROR(start_admin(s));
    }
  }
  return Status::ok();
}

Status TcpCluster::start_endpoints() {
  const int servers = opts_.num_servers;
  const int R = reactors_;
  const size_t num_ports = static_cast<size_t>(servers * R + opts_.num_clients);
  // free_ports() releases its reservations before start_node() binds them, so
  // another process can take a port in between. Every server endpoint binds
  // here, before any WAL or host exists, so a raced port (kUnavailable) is
  // retried from scratch with fresh ports; any other error returns at once.
  constexpr int kAttempts = 5;
  Status st;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    endpoints_.clear();
    transport_.reset();
    auto ports = net::TcpTransport::free_ports(num_ports);
    if (ports.size() != num_ports) {
      return Status::unavailable("tcp cluster: could not reserve listen ports");
    }
    // One listen address per *host* = per reactor: server s's reactor r is
    // host s*R + r (its group endpoints collapse onto it via the
    // reactor-aware HostMap{kGroupStride, R}); each client id is its own host.
    std::map<net::HostId, net::PeerAddr> addrs;
    for (int s = 0; s < servers; ++s) {
      for (int r = 0; r < R; ++r) {
        addrs[static_cast<net::HostId>(s * R + r)] =
            net::PeerAddr{"127.0.0.1", ports[static_cast<size_t>(s * R + r)]};
      }
    }
    for (int c = 0; c < opts_.num_clients; ++c) {
      addrs[net::kClientBase + static_cast<NodeId>(c)] =
          net::PeerAddr{"127.0.0.1", ports[static_cast<size_t>(servers * R + c)]};
    }
    net::HostMap hmap{net::kGroupStride};
    hmap.reactors = static_cast<NodeId>(R);
    transport_ = std::make_unique<net::TcpTransport>(std::move(addrs), hmap);

    st = Status::ok();
    for (int s = 0; s < servers && st.is_ok(); ++s) {
      for (uint32_t g = 0; g < opts_.num_groups; ++g) {
        NodeId id = net::endpoint_id(s, static_cast<int>(g));
        auto ep = transport_->start_node(id);
        if (!ep.is_ok()) {
          st = ep.status();
          break;
        }
        endpoints_[id] = ep.value();
      }
    }
    if (st.code() != Code::kUnavailable) return st;
    RSP_WARN << "tcp cluster: " << st.to_string() << " (attempt " << attempt + 1 << " of "
             << kAttempts << ")";
  }
  return st;
}

Status TcpCluster::start_admin(int s) {
  auto admin = std::make_unique<obs::AdminServer>();
  NodeHost* host = hosts_[static_cast<size_t>(s)].get();

  add_shared_admin_routes(admin.get(), host);

  admin->route("/healthz", [host](const obs::AdminRequest&) {
    obs::AdminResponse r;
    r.content_type = "application/json";
    r.body = host->healthz_json();
    if (host->stalled()) r.status = 503;
    return r;
  });

  // /status wants a fresh document, but each reactor's replica state may
  // only be read on that reactor's loop. Post a board refresh to every
  // reactor and wait briefly; a reactor too wedged to answer keeps its last
  // watchdog-published slice — a stalled host must still describe itself.
  std::vector<net::TcpNode*> reps;
  for (uint32_t r = 0; r < host->num_reactors(); ++r) {
    reps.push_back(endpoints_.at(net::endpoint_id(s, static_cast<int>(r))));
  }
  admin->route("/status", [host, reps](const obs::AdminRequest&) {
    std::vector<std::shared_ptr<std::promise<void>>> ps;
    std::vector<std::future<void>> futs;
    for (uint32_t r = 0; r < reps.size(); ++r) {
      auto p = std::make_shared<std::promise<void>>();
      futs.push_back(p->get_future());
      reps[r]->loop().post([host, r, p] {
        host->refresh_board(r);
        p->set_value();
      });
      ps.push_back(std::move(p));
    }
    auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(250);
    for (auto& f : futs) f.wait_until(deadline);
    obs::AdminResponse r;
    r.content_type = "application/json";
    r.body = host->status_snapshot();
    return r;
  });

  obs::AdminServer::Options aopts;
  if (opts_.admin_base_port != 0) {
    aopts.port = static_cast<uint16_t>(opts_.admin_base_port + s);
  }
  RSP_RETURN_IF_ERROR(admin->start(aopts));
  admins_[static_cast<size_t>(s)] = std::move(admin);
  return Status::ok();
}

TcpCluster::~TcpCluster() {
  // Admin servers first: their handlers read hosts and post onto loops.
  // Then detach handlers and join the server loops, and stop the WALs: their
  // completions post into the stopped loops, which drop them, while the
  // transport still owns the nodes they post to. Only afterwards is it safe
  // to destroy servers, WALs and stores (no delivery or completion can be in
  // flight).
  for (auto& a : admins_) {
    if (a) a->stop();
  }
  // Balancer ticks run on reactor-0 loops and touch host state; quiesce them
  // while the loops are still alive (a late-firing timer sees the dead flag).
  for (auto& b : balancers_) {
    if (b) b->stop();
  }
  for (auto& h : hosts_) {
    if (h) h->stop();
  }
  for (auto& [id, ep] : endpoints_) ep->shutdown();
  for (auto& w : wals_) {
    if (w) w->stop();
  }
  transport_.reset();
  balancers_.clear();
  hosts_.clear();
  admins_.clear();
}

net::TcpNode* TcpCluster::endpoint(int s, uint32_t g) {
  auto it = endpoints_.find(net::endpoint_id(s, static_cast<int>(g)));
  return it != endpoints_.end() ? it->second : nullptr;
}

kv::RoutingTable TcpCluster::routing() const {
  return initial_routing(opts_.num_servers, opts_.num_groups, opts_.num_shards);
}

StatusOr<net::TcpNode*> TcpCluster::start_client() {
  if (next_client_ >= opts_.num_clients) {
    return Status::invalid("tcp cluster: all reserved client endpoints claimed");
  }
  return transport_->start_node(net::kClientBase + static_cast<NodeId>(next_client_++));
}

int TcpCluster::leader_server_of(uint32_t g) {
  for (int s = 0; s < opts_.num_servers; ++s) {
    kv::KvServer* srv = server(s, g);
    net::TcpNode* ep = endpoint(s, g);
    if (srv == nullptr || ep == nullptr) continue;
    std::promise<bool> p;
    auto fut = p.get_future();
    ep->loop().post([&] { p.set_value(srv->replica().is_leader()); });
    if (fut.get()) return s;
  }
  return -1;
}

}  // namespace rspaxos::node
