// Repository benchmark: runs ONE workload against a cluster in this process
// (real TCP on loopback, or the deterministic simulator for failover-sim),
// checks every acknowledged write, and prints one JSON line.
//
//   repo_bench --workload put-1k --seed 7 --seconds 20 --trace 0 --data-dir DIR
//
// Load: one client thread (the client endpoint's loop) and one KvClient with
// the default 256-op window, driven open loop from a Poisson schedule that is
// generated up front from --seed. Every latency is measured from the op's
// INTENDED send time (coordinated-omission safe; see load/latency_recorder.h).
// failover-sim runs the same client and schedule in sim time: --seconds is a
// simulated window, and the leader is crashed at 30% of it.
// repo_bench keeps its own schedule rather than load::OpenLoopGen because
// OpenLoopGen writes one shared payload, so it cannot tell which acknowledged
// write a read should return; here every put carries a unique value id.
//
// --trace 0 (end-to-end run): the program runs with its defaults and only
// counters are read, before and after the window.
// --trace 1 (per-layer run): the same window, plus a ledger read from outside
// through public APIs — registry counters and histograms, WAL flush counters,
// KvServer/Replica/KvClient stats, and span trees from obs::Tracer::recent.
// The tracer is toggled in 1 s slices to price its own CPU cost.
//
// Output: an "# env" line (build, host, storage, steal), for --trace 1 a
// per-phase breakdown table, and last a JSON object with the keys correct,
// attempted, failed and metrics.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kv/cluster.h"
#include "node/tcp_cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/io_driver.h"
#include "util/rng.h"

using namespace rspaxos;

namespace {

using SteadyClock = std::chrono::steady_clock;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  int servers;         // rs_mode with f = 1: θ(N-2, N)
  size_t value_bytes;
  int keys;            // working set, preloaded during set-up
  int preload_rounds;  // set-up writes every key this many times
  double put_qps;      // puts, keys uniform
  double get_qps;      // fast gets
  double get_zipf;     // 0 = uniform gets; s > 0 = Zipf(s), rank 0 hottest
  bool sim;            // simulated cluster with a leader crash
};

constexpr Workload kWorkloads[] = {
    // Small-write commit path; EC degenerates to replication at θ(1,3).
    {"put-1k", 3, 1024, 10000, 1, 500, 100, 0.0, false},
    // Leader-local read path with writes beside it.
    {"read-zipf", 3, 1024, 10000, 1, 400, 1600, 0.99, false},
    // Values at the 64 KiB EC-offload threshold: pool + real θ(3,5) encode.
    // Three preload rounds: one (0.27 CPU-s) spread 12-28% across seeds.
    {"put-64k", 5, 64u << 10, 256, 3, 150, 30, 0.0, false},
    // Election and recovery reads (EC decode) after a leader crash, in sim
    // time on the default LAN and SSD models. Eight preload rounds keep the
    // set-up near 0.25 CPU-s.
    {"failover-sim", 5, 16u << 10, 512, 8, 150, 150, 0.0, true},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string source_id = "unknown";
};

struct Op {
  int64_t at_us;  // intended send time, relative to window start
  uint32_t key;
  bool put;
};

std::vector<Op> make_schedule(const Workload& w, uint64_t seed, int seconds) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x7f4a7c15ULL);
  std::vector<double> zipf_cdf;
  if (w.get_zipf > 0) {
    zipf_cdf.resize(static_cast<size_t>(w.keys));
    double sum = 0;
    for (size_t r = 0; r < zipf_cdf.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), w.get_zipf);
      zipf_cdf[r] = sum;
    }
    for (double& c : zipf_cdf) c /= sum;
  }
  double total = w.put_qps + w.get_qps;
  double put_share = w.put_qps / total;
  int64_t end = static_cast<int64_t>(seconds) * kSeconds;
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(total * seconds * 1.1));
  double t = 0;
  while (true) {
    t += rng.exponential(1e6 / total);
    if (t >= static_cast<double>(end)) break;
    // The mix is exact rather than drawn per op: a coin flip per op let the
    // put share, and with it the bytes per op, differ by about 1% between
    // seeds.
    double n = static_cast<double>(ops.size());
    Op op{static_cast<int64_t>(t), 0, std::floor((n + 1) * put_share) > std::floor(n * put_share)};
    if (op.put || zipf_cdf.empty()) {
      op.key = static_cast<uint32_t>(rng.next_below(static_cast<uint64_t>(w.keys)));
    } else {
      auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), rng.next_double());
      if (it == zipf_cdf.end()) --it;
      op.key = static_cast<uint32_t>(it - zipf_cdf.begin());
    }
    ops.push_back(op);
  }
  return ops;
}

std::string key_name(uint32_t k) { return "k-" + std::to_string(k); }

// ------------------------------------------------------- values and checking

/// Every put writes a unique value: a seeded random pattern whose first 8
/// bytes hold the value id. Preload writes ids 1..keys (id = key + 1); window
/// puts continue from keys + 1.
class ValueBook {
 public:
  ValueBook(size_t value_bytes, uint64_t seed) : pattern_(value_bytes) {
    Rng rng(seed ^ 0x5eedULL);
    for (auto& b : pattern_) b = static_cast<uint8_t>(rng.next_u64());
  }

  Bytes make(uint64_t id) const {
    Bytes v(pattern_);
    std::memcpy(v.data(), &id, sizeof(id));
    return v;
  }
  /// Id of a well-formed value, 0 when the body is not one this book writes.
  uint64_t id_of(const Bytes& v) const {
    if (v.size() != pattern_.size()) return 0;
    if (std::memcmp(v.data() + 8, pattern_.data() + 8, v.size() - 8) != 0) return 0;
    uint64_t id = 0;
    std::memcpy(&id, v.data(), sizeof(id));
    return id;
  }

 private:
  Bytes pattern_;
};

/// Per-key write history, pruned to the writes a later read may still
/// return. Once a write is acknowledged, no read after it can return a write
/// that was acknowledged before it was invoked, so those are dropped; a write
/// that fails supersedes nothing. Loop-thread only.
class WriteLog {
 public:
  static constexpr int64_t kPending = -1;

  explicit WriteLog(int keys) : keys_(static_cast<size_t>(keys)) {}

  void invoked(uint32_t key, uint64_t id, int64_t now) { keys_[key].push_back({id, now, kPending}); }
  /// Failed writes stay pending forever: their effect is indeterminate.
  void completed(uint32_t key, uint64_t id, int64_t now, bool ok) {
    if (!ok) return;
    auto& ws = keys_[key];
    int64_t invoked_at = now;
    for (Write& w : ws) {
      if (w.id == id) {
        w.complete = now;
        invoked_at = w.invoked;
      }
    }
    std::erase_if(ws, [invoked_at](const Write& w) {
      return w.complete != kPending && w.complete < invoked_at;
    });
  }
  bool may_read(uint32_t key, uint64_t id) const {
    for (const Write& w : keys_[key]) {
      if (w.id == id) return true;
    }
    return false;
  }

 private:
  struct Write {
    uint64_t id;
    int64_t invoked;
    int64_t complete;
  };
  std::vector<std::vector<Write>> keys_;
};

// ------------------------------------------------------------ host readings

/// Process CPU so far: {user, system} seconds.
std::pair<double, double> cpu_split() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return {s(ru.ru_utime), s(ru.ru_stime)};
}

double cpu_seconds() {
  auto [user, sys] = cpu_split();
  return user + sys;
}

/// Machine-wide CPU steal so far, in seconds, from /proc/stat.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// A "VmHWM:" / "VmRSS:" line of /proc/self/status, in MB.
double status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field, 0) == 0) return std::stod(line.substr(std::strlen(field))) / 1024.0;
  }
  return 0;
}

std::string fs_type(const std::string& path) {
  struct statfs s{};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
  return buf;
}

double percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) + static_cast<double>(v[hi]) * frac;
}

uint64_t counter_sum(const std::string& name) {
  uint64_t sum = 0;
  obs::MetricsRegistry::global().counter_family(name, "").for_each(
      [&sum](const std::vector<std::string>&, const obs::Counter& c) { sum += c.value(); });
  return sum;
}

/// Per-message-class byte counters, summed over nodes.
std::map<std::string, uint64_t> net_bytes_by_msg() {
  std::map<std::string, uint64_t> out;
  auto& fam = obs::MetricsRegistry::global().counter_family("rsp_net_bytes_sent", "",
                                                            {"node", "msg"});
  fam.for_each([&out](const std::vector<std::string>& labels, const obs::Counter& c) {
    if (labels.size() == 2) out[labels[1]] += c.value();
  });
  return out;
}

int64_t max_gauge(const std::string& name) {
  int64_t m = 0;
  obs::MetricsRegistry::global().gauge_family(name, "", {"node"}).for_each(
      [&m](const std::vector<std::string>&, const obs::Gauge& g) { m = std::max(m, g.value()); });
  return m;
}

/// A histogram family merged over its label sets (node, group, ...).
Histogram hist(const char* name) {
  Histogram h;
  obs::MetricsRegistry::global().histogram_family(name, "").for_each(
      [&h](const std::vector<std::string>&, const obs::HistogramMetric& m) {
        h.merge(m.snapshot());
      });
  return h;
}

const char* const kWindowHistograms[] = {
    "rsp_wal_fsync_us",      "rsp_wal_batch_records", "rsp_commit_total_us",
    "rsp_commit_quorum_wait_us", "rsp_commit_apply_us", "rsp_ec_encode_us",
    "rsp_ec_decode_us"};

// ------------------------------------------------------------ span ledger

/// Phases of one put's client_rpc interval. Each instant goes to exactly one
/// phase — the first in this order whose spans cover it — so the phases of a
/// trace add up to its client_rpc duration.
enum Phase {
  kFsyncLeader,
  kFsyncAcceptor,
  kEncode,
  kNetAccept,
  kQuorumWait,
  kApply,
  kCommitSelf,
  kUnattributed,
  kNumPhases
};
const char* const kPhaseMetric[kNumPhases] = {
    "storage.span_fsync_leader_us", "storage.span_fsync_acceptor_us", "ec.span_encode_us",
    "net.span_accept_us",           "consensus.span_quorum_wait_us",  "kv.span_apply_us",
    "consensus.span_commit_self_us", "kv.span_unattributed_us"};

struct TraceBreakdown {
  int64_t total_us = 0;
  int64_t phase_us[kNumPhases] = {};
};

/// Exclusive attribution of a put's span tree; false when the tree is not a
/// complete put (fast reads carry only client_rpc; trees cut by a tracer
/// toggle miss spans).
bool break_down(const obs::CommitTrace& t, TraceBreakdown* out) {
  const obs::TraceSpan* root = nullptr;
  const obs::TraceSpan* commit = nullptr;
  int commits = 0;
  for (const auto& s : t.spans) {
    if (s.parent == 0) root = &s;
  }
  if (root == nullptr || root->name != "client_rpc" || root->open()) return false;
  for (const auto& s : t.spans) {
    if (s.name == "commit" && s.parent == root->id) {
      commit = &s;
      ++commits;
    }
  }
  if (commits != 1 || commit->open()) return false;
  std::set<obs::SpanId> accepts;
  for (const auto& s : t.spans) {
    if (s.parent == commit->id && s.name.rfind("net_accept:", 0) == 0) accepts.insert(s.id);
  }
  std::vector<std::pair<Phase, const obs::TraceSpan*>> parts;
  bool fsync_leader = false, quorum = false;
  for (const auto& s : t.spans) {
    if (s.open()) continue;
    if (s.name == "wal_fsync" && s.parent == commit->id) {
      parts.emplace_back(kFsyncLeader, &s);
      fsync_leader = true;
    } else if (s.name == "wal_fsync" && accepts.count(s.parent) != 0) {
      parts.emplace_back(kFsyncAcceptor, &s);
    } else if (s.name == "ec_encode" && s.parent == commit->id) {
      parts.emplace_back(kEncode, &s);
    } else if (accepts.count(s.id) != 0) {
      parts.emplace_back(kNetAccept, &s);
    } else if (s.name == "quorum_wait" && s.parent == commit->id) {
      parts.emplace_back(kQuorumWait, &s);
      quorum = true;
    } else if (s.name == "apply" && s.parent == commit->id) {
      parts.emplace_back(kApply, &s);
    }
  }
  if (!fsync_leader || !quorum || accepts.empty()) return false;
  parts.emplace_back(kCommitSelf, commit);

  std::vector<int64_t> cuts = {root->start_us, root->end_us};
  for (const auto& [ph, s] : parts) {
    cuts.push_back(std::clamp(s->start_us, root->start_us, root->end_us));
    cuts.push_back(std::clamp(s->end_us, root->start_us, root->end_us));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  *out = TraceBreakdown{};
  out->total_us = root->end_us - root->start_us;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    int64_t a = cuts[i], b = cuts[i + 1];
    Phase best = kUnattributed;
    for (const auto& [ph, s] : parts) {
      if (s->start_us <= a && s->end_us >= b && ph < best) best = ph;
    }
    out->phase_us[best] += b - a;
  }
  return true;
}

// ---------------------------------------------------------------- reporting

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order. Each workload prints all of them;
/// one that does not apply to a row reads 0. Wall-clock times (us) are 0 on
/// failover-sim and sim times (sim_us, sim_ms) are 0 on the TCP rows, so the
/// two clocks never share a metric. ec.encode/decode times are host kernel
/// timings on both.
constexpr MetricDef kPerLayer[] = {
    {"storage.fsync_p50_us", "us"},
    {"storage.fsync_p99_us", "us"},
    {"storage.records_per_flush", "count"},
    {"storage.flushes_per_op", "count"},
    {"consensus.commit_p50_us", "us"},
    {"consensus.quorum_wait_p50_us", "us"},
    {"consensus.apply_p50_us", "us"},
    {"consensus.accepts_per_commit", "count"},
    {"kv.puts_per_batch", "count"},
    {"kv.client_service_p50_us", "us"},
    {"kv.client_retries_per_op", "count"},
    {"kv.admission_shed", "count"},
    {"proc.cpu_us_per_op", "us"},
    {"kv.put_p50_us", "us"},
    {"kv.get_p50_us", "us"},
    {"kv.put_p99_us", "us"},
    {"kv.get_p99_us", "us"},
    {"load.lag_p99_us", "us"},
    {"load.offered_qps", "1/s"},
    {"net.msgs_per_op", "count"},
    {"net.bytes_per_op.ACCEPT", "B"},
    {"net.bytes_per_op.ACCEPTED", "B"},
    {"net.bytes_per_op.COMMIT", "B"},
    {"net.bytes_per_op.CLIENT_REQUEST", "B"},
    {"net.bytes_per_op.CLIENT_REPLY", "B"},
    {"net.bytes_per_op.HEARTBEAT", "B"},
    {"net.bytes_per_op.FETCH_SHARE_REP", "B"},
    {"net.bytes_per_op.CATCHUP_REP", "B"},
    {"net.reconnects", "count"},
    {"ec.encode_p50_us", "us"},
    {"ec.encode_bytes_per_op", "B"},
    {"ec.decode_p50_us", "us"},
    {"ec.repair_bytes_per_op", "B"},
    {"kv.recovery_reads", "count"},
    {"kv.degraded_reads", "count"},
    {"consensus.elections", "count"},
    {"consensus.catchup_bytes_per_op", "B"},
    {"node.loop_lag_p99_us", "us"},
    {"env.steal_s", "s"},
    {"obs.tracer_overhead_pct", "%"},
    {"kv.span_client_rpc_us", "us"},
    {"storage.span_fsync_leader_us", "us"},
    {"storage.span_fsync_acceptor_us", "us"},
    {"ec.span_encode_us", "us"},
    {"net.span_accept_us", "us"},
    {"consensus.span_quorum_wait_us", "us"},
    {"kv.span_apply_us", "us"},
    {"consensus.span_commit_self_us", "us"},
    {"kv.span_unattributed_us", "us"},
    {"sim.put_p50_us", "sim_us"},
    {"sim.put_p99_us", "sim_us"},
    {"sim.get_p50_us", "sim_us"},
    {"sim.get_p99_us", "sim_us"},
    {"sim.commit_p50_us", "sim_us"},
    {"sim.unavail_ms", "sim_ms"},
};

/// Message classes whose bytes per op the ledger breaks out.
const char* const kLedgerMsgs[] = {"ACCEPT",       "ACCEPTED",        "COMMIT",
                                   "CLIENT_REQUEST", "CLIENT_REPLY",  "HEARTBEAT",
                                   "FETCH_SHARE_REP", "CATCHUP_REP"};

const char* const kCounters[] = {
    "rsp_net_bytes_sent",          "rsp_net_msgs_sent",
    "rsp_net_reconnects_total",    "rsp_ec_encode_bytes",
    "rsp_repair_bytes_total",      "rsp_kv_recovery_reads_total",
    "rsp_ec_degraded_reads_total", "rsp_consensus_elections_started_total",
    "rsp_catchup_bytes_sent",      "rsp_consensus_accepts_sent_total",
    "rsp_consensus_commits_total", "rsp_consensus_proposals_total",
    "rsp_kv_puts_total",           "rsp_admission_shed_total"};

/// Registry counters summed over their label sets, read at window start.
struct CounterMark {
  std::map<std::string, uint64_t> ctr;
  std::map<std::string, uint64_t> msg;

  static CounterMark now() {
    CounterMark m;
    for (const char* n : kCounters) m.ctr[n] = counter_sum(n);
    m.msg = net_bytes_by_msg();
    return m;
  }
  /// Counts since this mark.
  CounterMark since() const {
    CounterMark d = now();
    for (auto& [n, v] : d.ctr) v -= ctr.at(n);
    for (auto& [n, v] : d.msg) {
      auto it = msg.find(n);
      if (it != msg.end()) v -= it->second;
    }
    return d;
  }
};

using Ledger = std::map<std::string, double>;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Layer readings both clusters share: registry counters and histograms.
void fill_common_layers(const CounterMark& d, double ops_done, Ledger* L) {
  auto& m = *L;
  auto c = [&d](const char* n) { return static_cast<double>(d.ctr.at(n)); };
  auto h = hist;
  m["storage.records_per_flush"] = h("rsp_wal_batch_records").mean();
  m["net.msgs_per_op"] = ratio(c("rsp_net_msgs_sent"), ops_done);
  for (const char* msg : kLedgerMsgs) {
    auto it = d.msg.find(msg);
    m[std::string("net.bytes_per_op.") + msg] =
        ratio(it == d.msg.end() ? 0.0 : static_cast<double>(it->second), ops_done);
  }
  m["net.reconnects"] = c("rsp_net_reconnects_total");
  m["ec.encode_p50_us"] = static_cast<double>(h("rsp_ec_encode_us").value_at(0.5));
  m["ec.encode_bytes_per_op"] = ratio(c("rsp_ec_encode_bytes"), ops_done);
  m["ec.decode_p50_us"] = static_cast<double>(h("rsp_ec_decode_us").value_at(0.5));
  m["ec.repair_bytes_per_op"] = ratio(c("rsp_repair_bytes_total"), ops_done);
  m["kv.recovery_reads"] = c("rsp_kv_recovery_reads_total");
  m["kv.degraded_reads"] = c("rsp_ec_degraded_reads_total");
  m["consensus.elections"] = c("rsp_consensus_elections_started_total");
  m["consensus.catchup_bytes_per_op"] = ratio(c("rsp_catchup_bytes_sent"), ops_done);
}

/// Mean phase times over the put trees whose client_rpc lies in the p40-p60
/// band, so the phases add up to a client latency near the median. Prints the
/// breakdown with each phase's share; fills the span metrics when `fill`.
void span_report(const char* workload, const char* unit, std::vector<TraceBreakdown> traces,
                 bool fill, Ledger* L) {
  std::sort(traces.begin(), traces.end(),
            [](const TraceBreakdown& x, const TraceBreakdown& y) { return x.total_us < y.total_us; });
  size_t lo = traces.size() * 2 / 5, hi = std::max(lo + 1, traces.size() * 3 / 5);
  double band = 0, phase[kNumPhases] = {};
  for (size_t i = lo; i < hi && i < traces.size(); ++i) {
    band += static_cast<double>(traces[i].total_us);
    for (int p = 0; p < kNumPhases; ++p) phase[p] += static_cast<double>(traces[i].phase_us[p]);
  }
  double n = static_cast<double>(std::min(hi, traces.size()) - std::min(lo, traces.size()));
  if (fill) {
    (*L)["kv.span_client_rpc_us"] = ratio(band, n);
    for (int p = 0; p < kNumPhases; ++p) (*L)[kPhaseMetric[p]] = ratio(phase[p], n);
  }
  std::printf("# span breakdown: %s, %zu put trees, p40-p60 band of %.0f traces, "
              "client_rpc mean %.1f %s\n",
              workload, traces.size(), n, ratio(band, n), unit);
  for (int p = 0; p < kNumPhases; ++p) {
    std::printf("#   %-32s %9.1f %-6s %5.1f%%\n", kPhaseMetric[p], ratio(phase[p], n), unit,
                100 * ratio(phase[p], band));
  }
}

/// Adds the complete put trees of `recent` not seen before and started in
/// [from_us, to_us] to `out`.
void collect_traces(const std::vector<obs::CommitTrace>& recent, int64_t from_us, int64_t to_us,
                    std::set<obs::TraceId>* seen, std::vector<TraceBreakdown>* out) {
  for (const obs::CommitTrace& t : recent) {
    if (!t.done || !seen->insert(t.id).second) continue;
    if (t.start_us < from_us || t.start_us > to_us) continue;
    TraceBreakdown b;
    if (break_down(t, &b)) out->push_back(b);
  }
}

/// The "# env" line: a flat JSON object whose values are already JSON text.
class EnvLine {
 public:
  void num(const char* k, double v) {
    std::ostringstream os;
    os << v;
    add(k, os.str());
  }
  void str(const char* k, const std::string& v) { add(k, "\"" + v + "\""); }
  void list(const char* k, const std::vector<double>& v) {
    std::ostringstream os;
    os << '[';
    for (size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
    os << ']';
    add(k, os.str());
  }
  void add(const char* k, const std::string& json) {
    os_ << (os_.tellp() > 0 ? ", " : "") << '"' << k << "\": " << json;
  }
  std::string str() const { return "{" + os_.str() + "}"; }

 private:
  std::ostringstream os_;
};

/// Everything one run measured.
struct Report {
  bool correct = false;
  size_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> setup_cpu_s, setup_wall_s;
  double net_bytes_per_op = 0, disk_bytes_per_op = 0, peak_rss_mb = 0;
  Ledger layers;  // per-layer metrics, traced run only
  EnvLine env;    // workload-specific stamp fields
};

struct Json {
  std::ostringstream os;
  bool first = true;
  void metric(const std::string& name, double v, const char* unit) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": ";
    if (std::isfinite(v)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", v);
      os << buf;
    } else {
      os << 0;
    }
    os << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
};

void print_report(const Args& a, const Report& r) {
  std::printf("# env %s\n", r.env.str().c_str());
  Json j;
  if (!a.trace) {
    std::vector<double> sorted_setup = r.setup_cpu_s;
    std::sort(sorted_setup.begin(), sorted_setup.end());
    j.metric("setup_s", sorted_setup[sorted_setup.size() / 2], "s");
    j.metric("net_bytes_per_op", r.net_bytes_per_op, "B");
    j.metric("disk_bytes_per_op", r.disk_bytes_per_op, "B");
    j.metric("peak_rss_mb", r.peak_rss_mb, "MB");
  } else {
    for (const MetricDef& m : kPerLayer) {
      auto it = r.layers.find(m.name);
      j.metric(m.name, it == r.layers.end() ? 0.0 : it->second, m.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", r.attempted,
              static_cast<unsigned long long>(r.failed), j.os.str().c_str());
  std::fflush(stdout);
}

/// Stamp fields every workload carries, first in the env line.
void stamp_head(const Args& a, const Workload& w, const std::string& io_backend,
                const std::string& dir_fs, Report* r) {
  r->env.str("workload", w.name);
  r->env.num("seed", static_cast<double>(a.seed));
  r->env.str("source", a.source_id);
  r->env.str("build_type", RSPAXOS_BUILD_TYPE);
  r->env.num("nproc", std::thread::hardware_concurrency());
  r->env.str("io_backend", io_backend);
  r->env.str("data_dir_fs", dir_fs);
  r->env.add("data_dir_tmpfs", dir_fs == "tmpfs" ? "true" : "false");
}

// ---------------------------------------------------------------- the load

/// Set-up writes: every key `rounds` times (value ids 1..rounds*keys, id - 1
/// = round * keys + key), at most kDepth puts in flight: a burst of the whole
/// working set at once (16 MiB for put-64k) made set-up time bimodal.
/// Runs on the client's loop.
struct Preload {
  static constexpr uint32_t kDepth = 32;

  kv::KvClient* client = nullptr;
  NodeContext* node = nullptr;
  WriteLog* log = nullptr;
  const ValueBook* values = nullptr;
  uint32_t keys = 0;
  uint32_t total = 0;
  uint32_t next = 0;
  uint32_t left = 0;
  int failed = 0;
  std::atomic<bool> done{false};

  void pump() {
    while (next < total && next - (total - left) < kDepth) {
      uint32_t k = next % keys;
      uint64_t id = ++next;
      log->invoked(k, id, node->now());
      client->put(key_name(k), values->make(id), [this, k, id](Status s) {
        log->completed(k, id, node->now(), s.is_ok());
        if (!s.is_ok()) ++failed;
        if (--left == 0) {
          done.store(true, std::memory_order_release);
        } else {
          pump();
        }
      });
    }
  }
};

std::unique_ptr<Preload> make_preload(const Workload& w, kv::KvClient* client, NodeContext* node,
                                      WriteLog* log, const ValueBook& values) {
  auto p = std::make_unique<Preload>();
  p->client = client;
  p->node = node;
  p->log = log;
  p->values = &values;
  p->keys = static_cast<uint32_t>(w.keys);
  p->total = p->left = static_cast<uint32_t>(w.keys * w.preload_rounds);
  return p;
}

/// Loop-thread state of the measured window.
struct Window {
  const std::vector<Op>* ops = nullptr;
  const ValueBook* values = nullptr;
  WriteLog* log = nullptr;
  kv::KvClient* client = nullptr;
  NodeContext* node = nullptr;
  uint32_t keys = 0;
  uint64_t first_id = 0;
  int64_t t0 = 0;
  size_t next = 0;
  size_t resolved = 0;
  std::vector<int64_t> put_us, get_us, service_us, lag_us, ok_end_us;
  uint64_t failed = 0;
  uint64_t bad_reads = 0;
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> done{false};

  void start() {
    t0 = node->now();
    pump();
  }

  void pump() {
    int64_t now = node->now();
    while (next < ops->size() && t0 + (*ops)[next].at_us <= now) issue(next++);
    if (next < ops->size()) {
      node->set_timer(t0 + (*ops)[next].at_us - now, [this] { pump(); });
    } else {
      maybe_done();
    }
  }

  void issue(size_t i) {
    const Op& op = (*ops)[i];
    int64_t intended = t0 + op.at_us;
    int64_t actual = node->now();
    lag_us.push_back(actual - intended);
    if (op.put) {
      uint64_t id = first_id + i;
      log->invoked(op.key, id, actual);
      client->put(key_name(op.key), values->make(id), [this, op, id, intended, actual](Status s) {
        int64_t end = node->now();
        log->completed(op.key, id, end, s.is_ok());
        finish(&put_us, intended, actual, end, s.is_ok());
      });
    } else {
      client->get(key_name(op.key), [this, op, intended, actual](StatusOr<Bytes> r) {
        int64_t end = node->now();
        // A fast read must return a value issued for this key (staleness is
        // judged by the consistent reads after the window).
        if (r.is_ok() && !written_to(op.key, values->id_of(r.value()))) ++bad_reads;
        finish(&get_us, intended, actual, end, r.is_ok());
      });
    }
  }

  bool written_to(uint32_t key, uint64_t id) const {
    if (id == 0) return false;
    if (id < first_id) return (id - 1) % keys == key;  // preload
    uint64_t i = id - first_id;
    return i < next && (*ops)[i].put && (*ops)[i].key == key;
  }

  void finish(std::vector<int64_t>* lat, int64_t intended, int64_t actual, int64_t end, bool ok) {
    if (ok) {
      lat->push_back(end - intended);
      service_us.push_back(end - actual);
      ok_end_us.push_back(end);
      completed.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++failed;
    }
    ++resolved;
    maybe_done();
  }

  void maybe_done() {
    if (next == ops->size() && resolved == ops->size()) done.store(true, std::memory_order_release);
  }
};

/// Output check, issued on the client's loop: every key read back with
/// consistent_get must hold a value some not-yet-superseded acknowledged (or
/// indeterminate) write gave it. `bad` counts the keys that do not.
struct KeyCheck {
  std::atomic<bool> done{false};
  int left = 0;
  uint64_t bad = 0;

  void issue(kv::KvClient* client, int keys, const ValueBook& values, const WriteLog& log) {
    left = keys;
    for (uint32_t k = 0; k < static_cast<uint32_t>(keys); ++k) {
      client->consistent_get(key_name(k), [this, k, &values, &log](StatusOr<Bytes> r) {
        if (!r.is_ok() || !log.may_read(k, values.id_of(r.value()))) ++bad;
        if (--left == 0) done.store(true, std::memory_order_release);
      });
    }
  }
};

/// Median of the scheduled set-ups; the runs keep wall times in the env line.
constexpr int kSetups = 5;

/// Runs `set_up(i)` kSetups times, recording process CPU and wall time of
/// each; returns false when one fails. `tear_down` runs before each set-up,
/// outside the timing, and frees the previous cluster. setup_s is the process
/// CPU a boot + election + preload consumes: its wall time tracks host steal
/// (two 10-run sets of identical code had put-1k wall medians of 0.59 s and
/// 0.80 s).
bool timed_set_ups(const std::function<void()>& tear_down, const std::function<bool(int)>& set_up,
                   Report* r) {
  for (int i = 0; i < kSetups; ++i) {
    tear_down();
    double cpu_before = cpu_seconds();
    auto t0 = SteadyClock::now();
    if (!set_up(i)) return false;
    r->setup_wall_s.push_back(std::chrono::duration<double>(SteadyClock::now() - t0).count());
    r->setup_cpu_s.push_back(cpu_seconds() - cpu_before);
  }
  return true;
}

// ------------------------------------------------------------ TCP cluster

struct Cluster {
  std::unique_ptr<node::TcpCluster> cluster;
  net::TcpNode* cnode = nullptr;
  std::unique_ptr<kv::KvClient> client;
  std::string dir;

  /// Waits (at most 2 s) until no WAL has flushed for 50 ms. TcpCluster's
  /// destructor frees the transport's nodes before the WALs, and an append
  /// completing in between posts onto a freed node (a use-after-free in the
  /// program); the replies a client saw can leave the slowest acceptor's
  /// append still in its flusher.
  void wait_for_quiet_wals() {
    auto flushes = [this] {
      uint64_t n = 0;
      for (int s = 0; s < cluster->options().num_servers; ++s) n += cluster->wal(s).flush_ops();
      return n;
    };
    auto deadline = SteadyClock::now() + std::chrono::seconds(2);
    uint64_t last = flushes();
    while (SteadyClock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      uint64_t now = flushes();
      if (now == last) return;
      last = now;
    }
  }

  /// Runs `fn` on the client loop and waits for it.
  void on_loop(std::function<void()> fn) {
    std::promise<void> done;
    auto fut = done.get_future();
    cnode->loop().post([&] {
      fn();
      done.set_value();
    });
    fut.wait();
  }

  ~Cluster() {
    if (cnode != nullptr && client) {
      // Both on the loop: a reply delivered there can then never reach a
      // client this thread is about to free.
      kv::KvClient* c = client.get();
      net::TcpNode* n = cnode;
      on_loop([c, n] {
        c->cancel_all(Status::timeout("benchmark teardown"));
        n->set_handler(nullptr);
      });
    }
    client.reset();
    if (cluster) wait_for_quiet_wals();
    cluster.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

bool wait_until(const std::atomic<bool>& flag, double max_s) {
  auto deadline = SteadyClock::now() + std::chrono::duration<double>(max_s);
  while (!flag.load(std::memory_order_acquire)) {
    if (SteadyClock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

/// Boots the cluster, elects, and preloads every key.
std::unique_ptr<Cluster> set_up(const Workload& w, const std::string& dir,
                                const ValueBook& values, WriteLog* log) {
  auto c = std::make_unique<Cluster>();
  c->dir = dir;
  std::filesystem::remove_all(dir);
  node::TcpClusterOptions opts;
  opts.num_servers = w.servers;
  opts.num_clients = 1;
  opts.data_dir = dir;
  auto started = node::TcpCluster::start(opts);
  if (!started.is_ok()) {
    std::fprintf(stderr, "cluster start failed: %s\n", started.status().to_string().c_str());
    return nullptr;
  }
  c->cluster = std::move(started).value();
  auto deadline = SteadyClock::now() + std::chrono::seconds(30);
  while (c->cluster->leader_server_of(0) < 0) {
    if (SteadyClock::now() > deadline) {
      std::fprintf(stderr, "no leader elected\n");
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto cnode = c->cluster->start_client();
  if (!cnode.is_ok()) return nullptr;
  c->cnode = cnode.value();
  c->client = std::make_unique<kv::KvClient>(c->cnode, c->cluster->routing());
  kv::KvClient* client = c->client.get();
  net::TcpNode* n = c->cnode;
  c->on_loop([n, client] { n->set_handler(client); });

  std::unique_ptr<Preload> pl = make_preload(w, client, n, log, values);
  Preload* p = pl.get();
  c->cnode->loop().post([p] { p->pump(); });
  if (!wait_until(pl->done, 60) || pl->failed != 0) {
    std::fprintf(stderr, "preload did not complete\n");
    c.reset();  // runs the cancelled callbacks while *pl is alive
    return nullptr;
  }
  return c;
}

int run_tcp(const Args& a, const Workload& w, Report* r) {
  std::filesystem::create_directories(a.data_dir);
  const ValueBook values(w.value_bytes, a.seed);
  const std::vector<Op> ops = make_schedule(w, a.seed, a.seconds);
  auto log = std::make_unique<WriteLog>(w.keys);

  // Declared before the cluster: its teardown runs cancelled callbacks.
  Window win;
  KeyCheck check;
  // Set-up, repeated; the last cluster carries the window.
  std::unique_ptr<Cluster> c;
  bool booted = timed_set_ups(
      [&] {
        c.reset();
        // Hand the torn-down cluster's freed heap back to the kernel, so the
        // window's RSS is the last cluster's and not earlier boots' leftovers
        // in other threads' arenas (without it, peak_rss_mb spread 12-13%
        // across seeds on the 1 KiB rows).
        malloc_trim(0);
      },
      [&](int i) {
        log = std::make_unique<WriteLog>(w.keys);
        c = set_up(w, a.data_dir + "/boot" + std::to_string(i), values, log.get());
        return c != nullptr;
      },
      r);
  if (!booted) return 1;
  node::TcpCluster& cl = *c->cluster;

  win.ops = &ops;
  win.values = &values;
  win.log = log.get();
  win.client = c->client.get();
  win.node = c->cnode;
  win.keys = static_cast<uint32_t>(w.keys);
  win.first_id = static_cast<uint64_t>(w.keys) * static_cast<uint64_t>(w.preload_rounds) + 1;

  auto wal_totals = [&] {
    std::pair<uint64_t, uint64_t> t{0, 0};
    for (int s = 0; s < w.servers; ++s) {
      t.first += cl.wal(s).bytes_flushed();
      t.second += cl.wal(s).flush_ops();
    }
    return t;
  };
  auto shed_total = [&] {
    uint64_t n = 0;
    for (int s = 0; s < w.servers; ++s) n += cl.server(s, 0)->stats().admission_shed;
    return n;
  };
  int leader = cl.leader_server_of(0);
  kv::KvServer* lead = cl.server(leader < 0 ? 0 : leader, 0);

  const CounterMark mark = CounterMark::now();
  auto wal0 = wal_totals();
  uint64_t shed0 = shed_total();
  auto rstats0 = lead->replica().stats();
  auto kstats0 = lead->stats();
  auto cstats0 = c->client->stats();
  if (a.trace) {
    for (const char* h : kWindowHistograms) {
      obs::MetricsRegistry::global().histogram_family(h, "").reset();
    }
  }
  double steal0 = steal_seconds();
  auto split0 = cpu_split();
  double cpu0 = split0.first + split0.second;

  Window* wptr = &win;
  const auto drain_deadline = SteadyClock::now() + std::chrono::seconds(a.seconds + 60);
  const int64_t window_start_us = c->cnode->now();
  c->cnode->loop().post([wptr] { wptr->start(); });

  // Traced run: poll span trees and loop lag, toggling the tracer per slice.
  std::vector<TraceBreakdown> traces;
  int64_t loop_lag_max = 0;
  double cpu_on = 0, cpu_off = 0;
  uint64_t ops_on = 0, ops_off = 0;
  if (a.trace) {
    obs::Tracer& tracer = obs::Tracer::global();
    std::set<obs::TraceId> seen;
    const auto slice = std::chrono::seconds(1);
    const int64_t guard_us = 200 * kMillis;  // skip trees near a toggle
    bool on = true;
    tracer.set_enabled(true);
    auto slice_start = SteadyClock::now();
    int64_t slice_end_us = c->cnode->now() + 1 * kSeconds;
    double slice_cpu = cpu_seconds();
    uint64_t slice_ops = 0;
    auto close_slice = [&] {
      double cpu = cpu_seconds();
      uint64_t done_ops = win.completed.load(std::memory_order_relaxed);
      (on ? cpu_on : cpu_off) += cpu - slice_cpu;
      (on ? ops_on : ops_off) += done_ops - slice_ops;
      slice_cpu = cpu;
      slice_ops = done_ops;
    };
    while (!win.done.load(std::memory_order_acquire) && SteadyClock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      loop_lag_max = std::max(loop_lag_max, max_gauge("rsp_health_loop_lag_p99_us"));
      // Polled in both slices, so the poll's own cost does not count as
      // tracer overhead.
      std::vector<obs::CommitTrace> recent = tracer.recent(512);
      if (on) collect_traces(recent, window_start_us, slice_end_us - guard_us, &seen, &traces);
      if (SteadyClock::now() - slice_start >= slice) {
        close_slice();
        on = !on;
        tracer.set_enabled(on);
        slice_start = SteadyClock::now();
        slice_end_us = c->cnode->now() + 1 * kSeconds;
      }
    }
    close_slice();
    tracer.set_enabled(true);
  }
  while (!win.done.load(std::memory_order_acquire) && SteadyClock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!win.done.load(std::memory_order_acquire)) {
    c->on_loop([&] { win.client->cancel_all(Status::timeout("window drain deadline")); });
    std::fprintf(stderr, "window did not drain\n");
    return 1;
  }
  auto split1 = cpu_split();
  double cpu1 = split1.first + split1.second;
  double steal1 = steal_seconds();
  auto wal1 = wal_totals();
  const CounterMark d = mark.since();
  uint64_t shed = shed_total() - shed0;
  auto rstats1 = lead->replica().stats();
  auto kstats1 = lead->stats();
  auto cstats1 = c->client->stats();

  double rss = status_mb("VmHWM:");
  double rss_now = status_mb("VmRSS:");
  kv::KvClient* client = c->client.get();
  c->cnode->loop().post([&] { check.issue(client, w.keys, values, *log); });
  uint64_t bad_keys = wait_until(check.done, 60) ? check.bad : static_cast<uint64_t>(w.keys);

  // Window vectors are final once done is set (loop thread wrote them before
  // the release store); read them after another loop round trip anyway.
  c->on_loop([] {});
  double ops_done = static_cast<double>(win.completed.load());
  double lag_p99 = percentile(win.lag_us, 0.99);
  r->correct = bad_keys == 0 && win.bad_reads == 0;
  r->attempted = ops.size();
  r->failed = win.failed;
  r->net_bytes_per_op = ratio(static_cast<double>(d.ctr.at("rsp_net_bytes_sent")), ops_done);
  r->disk_bytes_per_op = ratio(static_cast<double>(wal1.first - wal0.first), ops_done);
  r->peak_rss_mb = rss;

  std::string dir_fs = fs_type(a.data_dir);
  stamp_head(a, w, util::requested_io_backend() == util::IoBackend::kUring ? "uring" : "epoll",
             dir_fs, r);
  EnvLine& env = r->env;
  env.num("env.steal_s", steal1 - steal0);
  env.num("load.lag_p99_us", lag_p99);
  env.num("put_p50_us", percentile(win.put_us, 0.5));
  env.num("get_p50_us", percentile(win.get_us, 0.5));
  env.list("setup_wall_s", r->setup_wall_s);
  env.list("setup_cpu_s", r->setup_cpu_s);
  env.num("cpu_user_s", split1.first - split0.first);
  env.num("cpu_sys_s", split1.second - split0.second);
  env.num("rss_end_mb", rss_now);
  env.num("ops", static_cast<double>(ops.size()));
  env.num("bad_keys", static_cast<double>(bad_keys));
  env.num("bad_reads", static_cast<double>(win.bad_reads));

  if (a.trace) {
    Ledger& m = r->layers;
    fill_common_layers(d, ops_done, &m);
    auto h = hist;
    const Histogram fsync = h("rsp_wal_fsync_us");
    m["storage.fsync_p50_us"] = static_cast<double>(fsync.value_at(0.5));
    m["storage.fsync_p99_us"] = static_cast<double>(fsync.value_at(0.99));
    m["storage.flushes_per_op"] = ratio(static_cast<double>(wal1.second - wal0.second), ops_done);
    m["consensus.commit_p50_us"] = static_cast<double>(h("rsp_commit_total_us").value_at(0.5));
    m["consensus.quorum_wait_p50_us"] =
        static_cast<double>(h("rsp_commit_quorum_wait_us").value_at(0.5));
    m["consensus.apply_p50_us"] = static_cast<double>(h("rsp_commit_apply_us").value_at(0.5));
    m["consensus.accepts_per_commit"] =
        ratio(static_cast<double>(rstats1.accepts_sent - rstats0.accepts_sent),
              static_cast<double>(rstats1.commits - rstats0.commits));
    m["kv.puts_per_batch"] = ratio(static_cast<double>(kstats1.puts - kstats0.puts),
                                   static_cast<double>(rstats1.proposals - rstats0.proposals));
    m["kv.client_service_p50_us"] = percentile(win.service_us, 0.5);
    m["kv.client_retries_per_op"] =
        ratio(static_cast<double>((cstats1.timeouts - cstats0.timeouts) +
                                  (cstats1.overload_backoffs - cstats0.overload_backoffs) +
                                  (cstats1.wrong_shard - cstats0.wrong_shard)),
              ops_done);
    m["kv.admission_shed"] = static_cast<double>(shed);
    m["proc.cpu_us_per_op"] = ratio((cpu1 - cpu0) * 1e6, ops_done);
    m["kv.put_p50_us"] = percentile(win.put_us, 0.5);
    m["kv.get_p50_us"] = percentile(win.get_us, 0.5);
    m["kv.put_p99_us"] = percentile(win.put_us, 0.99);
    m["kv.get_p99_us"] = percentile(win.get_us, 0.99);
    m["load.lag_p99_us"] = lag_p99;
    m["load.offered_qps"] = static_cast<double>(ops.size()) / a.seconds;
    m["node.loop_lag_p99_us"] = static_cast<double>(loop_lag_max);
    m["env.steal_s"] = steal1 - steal0;
    double per_on = ratio(cpu_on, static_cast<double>(ops_on));
    double per_off = ratio(cpu_off, static_cast<double>(ops_off));
    m["obs.tracer_overhead_pct"] = per_off > 0 ? (per_on / per_off - 1) * 100 : 0;
    span_report(w.name, "us", std::move(traces), true, &m);
  }
  return 0;
}

// ------------------------------------------------------------ sim cluster

/// A simulated cluster with the program's defaults (θ(3,5), LAN and SSD
/// models, retained WALs) and one client. Single-threaded: everything runs
/// inside world->run_*.
struct SimRig {
  std::unique_ptr<sim::SimWorld> world;
  std::unique_ptr<kv::SimCluster> cluster;
  std::unique_ptr<kv::KvClient> client;
  NodeContext* cnode = nullptr;

  /// Advances sim time in 1 ms steps until `done()`; false after `max`.
  bool run_until(const std::function<bool()>& done, DurationMicros max) {
    TimeMicros deadline = world->now() + max;
    while (!done()) {
      if (world->now() >= deadline || world->idle()) return false;
      world->run_for(1 * kMillis);
    }
    return true;
  }

  ~SimRig() {
    if (client) client->cancel_all(Status::timeout("benchmark teardown"));
  }
};

std::unique_ptr<SimRig> sim_set_up(const Workload& w, uint64_t seed, const ValueBook& values,
                                   WriteLog* log) {
  auto r = std::make_unique<SimRig>();
  r->world = std::make_unique<sim::SimWorld>(seed);
  kv::SimClusterOptions opts;
  opts.num_servers = w.servers;
  r->cluster = std::make_unique<kv::SimCluster>(r->world.get(), opts);
  r->cluster->wait_for_leaders();
  if (r->cluster->leader_server_of(0) < 0) {
    std::fprintf(stderr, "no leader elected\n");
    return nullptr;
  }
  r->client = r->cluster->make_client(0);
  r->cnode = r->cluster->network().node(kv::kClientBase);
  std::unique_ptr<Preload> pl = make_preload(w, r->client.get(), r->cnode, log, values);
  pl->pump();
  if (!r->run_until([&] { return pl->done.load(); }, 120 * kSeconds) || pl->failed != 0) {
    std::fprintf(stderr, "preload did not complete\n");
    r.reset();  // runs the cancelled callbacks while *pl is alive
    return nullptr;
  }
  return r;
}

/// Longest gap between successful completions from `from` on, the first
/// measured from `from` itself.
int64_t longest_gap(std::vector<int64_t> ends, int64_t from) {
  std::sort(ends.begin(), ends.end());
  int64_t prev = from, gap = 0;
  for (int64_t t : ends) {
    if (t < from) continue;
    gap = std::max(gap, t - prev);
    prev = t;
  }
  return gap;
}

int run_sim(const Args& a, const Workload& w, Report* r) {
  const ValueBook values(w.value_bytes, a.seed);
  const std::vector<Op> ops = make_schedule(w, a.seed, a.seconds);
  auto log = std::make_unique<WriteLog>(w.keys);

  // Declared before the rig: its teardown runs cancelled callbacks.
  Window win;
  KeyCheck check;
  // Every set-up is the same deterministic boot; the last carries the window.
  std::unique_ptr<SimRig> rig;
  // No malloc_trim between set-ups: on one thread each boot reuses the heap
  // the last one freed, and peak RSS is the same either way. Trimmed, every
  // boot re-faulted ~52k pages, up to half its CPU, and that cost followed
  // the host's memory state: set medians of 0.23 and 0.31 CPU-s.
  bool booted = timed_set_ups(
      [&] { rig.reset(); },
      [&](int) {
        log = std::make_unique<WriteLog>(w.keys);
        rig = sim_set_up(w, a.seed, values, log.get());
        return rig != nullptr;
      },
      r);
  if (!booted) return 1;
  sim::SimWorld& world = *rig->world;
  kv::SimCluster& cl = *rig->cluster;

  win.ops = &ops;
  win.values = &values;
  win.log = log.get();
  win.client = rig->client.get();
  win.node = rig->cnode;
  win.keys = static_cast<uint32_t>(w.keys);
  win.first_id = static_cast<uint64_t>(w.keys) * static_cast<uint64_t>(w.preload_rounds) + 1;

  const CounterMark mark = CounterMark::now();
  const uint64_t net0 = cl.total_network_bytes();
  const uint64_t disk0 = cl.total_flushed_bytes();
  const uint64_t flushes0 = cl.total_flush_ops();
  const auto cstats0 = rig->client->stats();
  if (a.trace) {
    for (const char* h : kWindowHistograms) {
      obs::MetricsRegistry::global().histogram_family(h, "").reset();
    }
  }
  double steal0 = steal_seconds();
  auto split0 = cpu_split();

  win.start();
  const TimeMicros t0 = win.t0;
  const TimeMicros window_us = static_cast<TimeMicros>(a.seconds) * kSeconds;
  const TimeMicros crash_at = t0 + window_us * 3 / 10;
  const TimeMicros deadline = t0 + window_us + 60 * kSeconds;
  int victim = -1;

  // Traced run: tracer toggled per simulated second; span trees polled every
  // 100 ms of sim time in both slices.
  obs::Tracer& tracer = obs::Tracer::global();
  std::set<obs::TraceId> seen;
  std::vector<TraceBreakdown> traces;
  bool on = true;
  TimeMicros slice_end = t0 + 1 * kSeconds;
  double slice_cpu = cpu_seconds(), cpu_on = 0, cpu_off = 0;
  uint64_t slice_ops = 0, ops_on = 0, ops_off = 0;
  if (a.trace) tracer.set_enabled(true);

  while (!win.done.load() && world.now() < deadline && !world.idle()) {
    TimeMicros step = world.now() + 100 * kMillis;
    if (victim < 0) step = std::min(step, crash_at);
    if (a.trace) step = std::min(step, slice_end);
    world.run_until(step);
    TimeMicros now = world.now();
    if (victim < 0 && now >= crash_at) {
      victim = cl.leader_server_of(0);
      if (victim < 0) {
        std::fprintf(stderr, "no leader to crash\n");
        return 1;
      }
      cl.crash_server(victim);
    }
    if (a.trace) {
      std::vector<obs::CommitTrace> recent = tracer.recent(512);
      if (on) collect_traces(recent, t0, slice_end - 200 * kMillis, &seen, &traces);
      if (now >= slice_end) {
        double cpu = cpu_seconds();
        uint64_t done_ops = win.completed.load();
        (on ? cpu_on : cpu_off) += cpu - slice_cpu;
        (on ? ops_on : ops_off) += done_ops - slice_ops;
        slice_cpu = cpu;
        slice_ops = done_ops;
        on = !on;
        tracer.set_enabled(on);
        slice_end = now + 1 * kSeconds;
      }
    }
  }
  tracer.set_enabled(true);
  if (!win.done.load() || victim < 0) {
    std::fprintf(stderr, "window did not drain\n");
    return 1;
  }
  auto split1 = cpu_split();
  double steal1 = steal_seconds();
  const CounterMark d = mark.since();
  const uint64_t net1 = cl.total_network_bytes();
  const uint64_t disk1 = cl.total_flushed_bytes();
  const uint64_t flushes1 = cl.total_flush_ops();
  const auto cstats1 = rig->client->stats();
  double rss = status_mb("VmHWM:");
  double rss_now = status_mb("VmRSS:");

  // Output check: no acknowledged write lost across the crash, and every
  // surviving server applies everything the new leader has committed.
  check.issue(rig->client.get(), w.keys, values, *log);
  uint64_t bad_keys = rig->run_until([&] { return check.done.load(); }, 60 * kSeconds)
                          ? check.bad
                          : static_cast<uint64_t>(w.keys);
  const int leader = cl.leader_server_of(0);
  const consensus::Slot committed =
      leader < 0 ? 0 : cl.server(leader, 0)->replica().commit_index();
  bool caught_up = leader >= 0 && rig->run_until(
                                      [&] {
                                        for (int s = 0; s < w.servers; ++s) {
                                          if (s != victim &&
                                              cl.server(s, 0)->replica().last_applied() <
                                                  committed) {
                                            return false;
                                          }
                                        }
                                        return true;
                                      },
                                      10 * kSeconds);

  double ops_done = static_cast<double>(win.completed.load());
  r->correct = bad_keys == 0 && win.bad_reads == 0 && caught_up;
  r->attempted = ops.size();
  r->failed = win.failed;
  r->net_bytes_per_op = ratio(static_cast<double>(net1 - net0), ops_done);
  r->disk_bytes_per_op = ratio(static_cast<double>(disk1 - disk0), ops_done);
  r->peak_rss_mb = rss;
  double unavail_ms = static_cast<double>(longest_gap(win.ok_end_us, crash_at)) / 1000.0;

  stamp_head(a, w, "sim", "sim", r);
  EnvLine& env = r->env;
  env.num("env.steal_s", steal1 - steal0);
  env.num("crashed_server", victim);
  env.num("sim.unavail_ms", unavail_ms);
  env.list("setup_wall_s", r->setup_wall_s);
  env.list("setup_cpu_s", r->setup_cpu_s);
  env.num("cpu_user_s", split1.first - split0.first);
  env.num("cpu_sys_s", split1.second - split0.second);
  env.num("rss_end_mb", rss_now);
  env.num("ops", static_cast<double>(ops.size()));
  env.num("bad_keys", static_cast<double>(bad_keys));
  env.num("bad_reads", static_cast<double>(win.bad_reads));
  env.add("survivors_caught_up", caught_up ? "true" : "false");

  if (a.trace) {
    Ledger& m = r->layers;
    fill_common_layers(d, ops_done, &m);
    auto c = [&d](const char* n) { return static_cast<double>(d.ctr.at(n)); };
    m["storage.flushes_per_op"] = ratio(static_cast<double>(flushes1 - flushes0), ops_done);
    m["consensus.accepts_per_commit"] =
        ratio(c("rsp_consensus_accepts_sent_total"), c("rsp_consensus_commits_total"));
    m["kv.puts_per_batch"] = ratio(c("rsp_kv_puts_total"), c("rsp_consensus_proposals_total"));
    m["kv.client_retries_per_op"] =
        ratio(static_cast<double>((cstats1.timeouts - cstats0.timeouts) +
                                  (cstats1.overload_backoffs - cstats0.overload_backoffs) +
                                  (cstats1.wrong_shard - cstats0.wrong_shard)),
              ops_done);
    m["kv.admission_shed"] = c("rsp_admission_shed_total");
    m["proc.cpu_us_per_op"] =
        ratio((split1.first + split1.second - split0.first - split0.second) * 1e6, ops_done);
    m["load.offered_qps"] = static_cast<double>(ops.size()) / a.seconds;
    m["env.steal_s"] = steal1 - steal0;
    double per_on = ratio(cpu_on, static_cast<double>(ops_on));
    double per_off = ratio(cpu_off, static_cast<double>(ops_off));
    m["obs.tracer_overhead_pct"] = per_off > 0 ? (per_on / per_off - 1) * 100 : 0;
    m["sim.put_p50_us"] = percentile(win.put_us, 0.5);
    m["sim.put_p99_us"] = percentile(win.put_us, 0.99);
    m["sim.get_p50_us"] = percentile(win.get_us, 0.5);
    m["sim.get_p99_us"] = percentile(win.get_us, 0.99);
    m["sim.commit_p50_us"] = static_cast<double>(hist("rsp_commit_total_us").value_at(0.5));
    m["sim.unavail_ms"] = unavail_ms;
    span_report(w.name, "sim_us", std::move(traces), false, &m);
  }
  return 0;
}

int run(const Args& a) {
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  Report r;
  int rc = w->sim ? run_sim(a, *w, &r) : run_tcp(a, *w, &r);
  if (rc != 0) return rc;
  print_report(a, r);
  std::filesystem::remove_all(a.data_dir);
  return 0;
}

bool parse(int argc, char** argv, Args* a) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::stoull(v);
    else if (k == "--seconds") a->seconds = std::stoi(v);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--data-dir") a->data_dir = v;
    else if (k == "--source-id") a->source_id = v;
    else return false;
  }
  return !a->workload.empty() && !a->data_dir.empty() && a->seconds > 0;
} catch (const std::exception&) {
  return false;  // non-numeric --seed / --seconds
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (argc % 2 == 0 || !parse(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: repo_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--data-dir DIR [--source-id ID]\n");
    return 2;
  }
  return run(a);
}
