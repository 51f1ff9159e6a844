// Tests for the observability subsystem: registry semantics and thread
// safety, exporter golden output, metric-name sanitization, CounterView delta
// snapshots, histogram quantile interpolation, and span tracing (unit-level
// and end-to-end over the simulated cluster).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "kv/cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sim_network.h"
#include "sim/sim_world.h"

namespace rspaxos {
namespace {

using obs::Counter;
using obs::CounterView;
using obs::MetricsRegistry;
using obs::SpanContext;
using obs::Tracer;

// --- registry semantics ---

TEST(Metrics, FamilyHandlesAreStable) {
  MetricsRegistry reg;
  auto& fam = reg.counter_family("rsp_test_ops_total", "ops", {"node"});
  Counter& a = fam.with({"1"});
  Counter& b = fam.with({"1"});
  EXPECT_EQ(&a, &b);  // cached handles stay valid
  Counter& other = fam.with({"2"});
  EXPECT_NE(&a, &other);
  // Re-requesting the family returns the same object too.
  EXPECT_EQ(&fam, &reg.counter_family("rsp_test_ops_total", "ops", {"node"}));
}

TEST(Metrics, ResetZeroesButKeepsHandles) {
  MetricsRegistry reg;
  Counter& c = reg.counter("rsp_test_total", "t");
  auto& h = reg.histogram("rsp_test_us", "t");
  c.inc(5);
  h.observe(100);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);  // same handle, zeroed
  EXPECT_EQ(h.count(), 0u);
  c.inc(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, NamesAreSanitizedToConvention) {
  MetricsRegistry reg;
  // Missing prefix and illegal characters both repair to rsp_ + [a-zA-Z0-9_];
  // the sanitized and literal spellings resolve to the same family.
  Counter& a = reg.counter("test_legacy_total", "t");
  Counter& b = reg.counter("rsp_test_legacy_total", "t");
  EXPECT_EQ(&a, &b);
  reg.counter("rsp_bad name-chars", "t").inc();
  std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("rsp_test_legacy_total"), std::string::npos) << prom;
  // The unsanitized spelling must not surface as its own family.
  EXPECT_EQ(prom.find("# HELP test_legacy_total"), std::string::npos) << prom;
  EXPECT_NE(prom.find("rsp_bad_name_chars 1"), std::string::npos) << prom;
}

TEST(Metrics, CounterViewReportsOnlyOwnContribution) {
  Counter shared;
  shared.inc(5);  // prior owner's traffic
  CounterView view(&shared);
  EXPECT_EQ(view.value(), 0u);
  view.inc(2);
  view.inc();
  EXPECT_EQ(view.value(), 3u);
  EXPECT_EQ(shared.value(), 8u);  // global total keeps everything
  CounterView later(&shared);
  EXPECT_EQ(later.value(), 0u);  // a new owner starts from zero again
  CounterView null_view;
  null_view.inc(7);  // no backing counter: inert, not a crash
  EXPECT_EQ(null_view.value(), 0u);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  auto& fam = reg.counter_family("rsp_test_hammer_total", "t", {"node"});
  auto& hist = reg.histogram("rsp_test_hammer_us", "t");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fam, &hist, t] {
      // Each thread resolves the child itself: with() must be safe to race.
      Counter& c = fam.with({"7"});
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        hist.observe((t + 1) * 10);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(fam.with({"7"}).value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kPerThread);
}

// --- exporter golden output (private registry => fully deterministic) ---

MetricsRegistry& golden_registry(MetricsRegistry& reg) {
  auto& ops = reg.counter_family("rsp_test_ops_total", "operations", {"node"});
  ops.with({"1"}).inc(3);
  ops.with({"0"}).inc(1);
  reg.gauge("rsp_test_depth", "queue depth").set(-2);
  auto& lat = reg.histogram("rsp_test_lat_us", "latency");
  // Three identical samples make every quantile exactly 7.
  for (int i = 0; i < 3; ++i) lat.observe(7);
  return reg;
}

TEST(Metrics, PrometheusGoldenOutput) {
  MetricsRegistry reg;
  const char* want =
      "# HELP rsp_test_ops_total operations\n"
      "# TYPE rsp_test_ops_total counter\n"
      "rsp_test_ops_total{node=\"0\"} 1\n"
      "rsp_test_ops_total{node=\"1\"} 3\n"
      "# HELP rsp_test_depth queue depth\n"
      "# TYPE rsp_test_depth gauge\n"
      "rsp_test_depth -2\n"
      "# HELP rsp_test_lat_us latency\n"
      "# TYPE rsp_test_lat_us summary\n"
      "rsp_test_lat_us{quantile=\"0.5\"} 7\n"
      "rsp_test_lat_us{quantile=\"0.9\"} 7\n"
      "rsp_test_lat_us{quantile=\"0.99\"} 7\n"
      "rsp_test_lat_us_sum 21\n"
      "rsp_test_lat_us_count 3\n";
  EXPECT_EQ(golden_registry(reg).to_prometheus(), want);
}

TEST(Metrics, JsonGoldenOutput) {
  MetricsRegistry reg;
  const char* want =
      "{\"counters\":{\"rsp_test_ops_total\":["
      "{\"labels\":{\"node\":\"0\"},\"value\":1},"
      "{\"labels\":{\"node\":\"1\"},\"value\":3}]},"
      "\"gauges\":{\"rsp_test_depth\":[{\"labels\":{},\"value\":-2}]},"
      "\"histograms\":{\"rsp_test_lat_us\":[{\"labels\":{},\"count\":3,"
      "\"sum\":21,\"min\":7,\"max\":7,\"mean\":7,\"p50\":7,\"p90\":7,"
      "\"p99\":7}]}}";
  EXPECT_EQ(golden_registry(reg).to_json(), want);
}

TEST(Metrics, LabelValuesAreEscaped) {
  MetricsRegistry reg;
  reg.counter_family("rsp_test_esc_total", "t", {"k"}).with({"a\"b\\c\nd"}).inc();
  std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("rsp_test_esc_total{k=\"a\\\"b\\\\c\\nd\"} 1"),
            std::string::npos)
      << prom;
}

TEST(Metrics, HelpTextIsEscaped) {
  MetricsRegistry reg;
  reg.counter("rsp_test_help_total", "line one\nand a \\ slash").inc();
  std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# HELP rsp_test_help_total line one\\nand a \\\\ slash\n"),
            std::string::npos)
      << prom;
}

TEST(Metrics, HealthAndAdmissionSeriesCarryReactorLabel) {
  // A 2-reactor host registers its health gauges once per reactor and its
  // admission series once per group, each stamped with the owning reactor —
  // group 1 lives on reactor 1 under the g % R placement.
  sim::SimWorld world(7);
  kv::SimClusterOptions opts;
  opts.num_groups = 2;
  opts.reactors = 2;
  kv::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();
  std::string prom = MetricsRegistry::global().to_prometheus();
  EXPECT_NE(prom.find("rsp_health_loop_lag_p99_us{server=\"0\",reactor=\"0\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("rsp_health_loop_lag_p99_us{server=\"0\",reactor=\"1\"}"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("rsp_health_stalled{server=\"0\",reactor=\"1\"}"),
            std::string::npos)
      << prom;
  // Admission series: {node, group, reactor}; group 1 -> reactor 1.
  size_t fam = prom.find("# TYPE rsp_admission_inflight gauge");
  ASSERT_NE(fam, std::string::npos) << prom;
  EXPECT_NE(prom.find("group=\"1\",reactor=\"1\"", fam), std::string::npos) << prom;
  EXPECT_NE(prom.find("group=\"0\",reactor=\"0\"", fam), std::string::npos) << prom;
}

TEST(Metrics, HistogramMergeFoldsExternalWindow) {
  MetricsRegistry reg;
  auto& hm = reg.histogram("rsp_test_merge_us", "t");
  hm.observe(10);
  Histogram side;
  side.record(30);
  side.record(50);
  hm.merge(side);
  Histogram all = hm.snapshot();
  EXPECT_EQ(all.count(), 3u);
  EXPECT_EQ(all.min(), 10);
  EXPECT_EQ(all.max(), 50);
}

// --- histogram quantile interpolation ---

TEST(HistogramQuantiles, InterpolatesWithinBuckets) {
  Histogram h;
  // 1..100 exact (sub-bucket range): quantiles should track ranks closely,
  // not jump to bucket midpoints.
  for (int v = 1; v <= 100; ++v) h.record(v);
  EXPECT_NEAR(static_cast<double>(h.value_at(0.5)), 50.0, 1.0);
  EXPECT_NEAR(static_cast<double>(h.value_at(0.9)), 90.0, 1.0);
  EXPECT_EQ(h.value_at(0.0), 1);
  EXPECT_EQ(h.value_at(1.0), 100);
}

TEST(HistogramQuantiles, OverflowBucketEdgeUsesObservedMax) {
  Histogram h;
  // Far beyond the last bucket's nominal range: the terminal bucket's upper
  // edge must be the observed max, never an overflowed shift.
  int64_t huge = std::numeric_limits<int64_t>::max() - 3;
  h.record(huge);
  h.record(huge);
  EXPECT_EQ(h.value_at(0.99), huge);
  EXPECT_EQ(h.max(), huge);
  EXPECT_LE(h.value_at(0.5), huge);
  EXPECT_GT(h.value_at(0.5), 0);
}

// --- tracer unit tests (private instances, span model) ---

TEST(Trace, BeginTraceMintsDistinctRoots) {
  Tracer tr(8);
  SpanContext a = tr.begin_trace("op", 1, 100);
  SpanContext b = tr.begin_trace("op", 1, 100);
  SpanContext c = tr.begin_trace("op", 2, 100);
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_NE(b.trace_id, c.trace_id);
  EXPECT_NE(a.span_id, 0u);
  EXPECT_EQ(tr.active_count(), 3u);
}

TEST(Trace, SpanTreeLifecycle) {
  Tracer tr(8);
  SpanContext root = tr.begin_trace("commit", /*node=*/1, /*t_us=*/100);
  tr.set_slot(root.trace_id, 5);
  SpanContext enc = tr.start_span(root, "ec_encode", 1, 101);
  SpanContext net = tr.start_span(root, "net_accept:2", 1, 102);
  SpanContext fsync = tr.start_span(net, "wal_fsync", 2, 110);
  // Ends arrive out of order (follower acks race the leader).
  tr.end_span(fsync, 118);
  tr.end_span(enc, 104);
  tr.end_span(net, 120);
  EXPECT_EQ(tr.active_count(), 1u);
  tr.end_span(root, 150);
  EXPECT_EQ(tr.active_count(), 0u);
  ASSERT_EQ(tr.completed_count(), 1u);

  auto traces = tr.recent(1);
  ASSERT_EQ(traces.size(), 1u);
  const auto& t = traces[0];
  EXPECT_TRUE(t.done);
  EXPECT_EQ(t.slot, 5u);
  EXPECT_EQ(t.duration_us(), 50);
  ASSERT_EQ(t.spans.size(), 4u);
  // Spans come back sorted by start time regardless of completion order.
  for (size_t i = 1; i < t.spans.size(); ++i) {
    EXPECT_LE(t.spans[i - 1].start_us, t.spans[i].start_us);
  }
  // Tree shape: root <- {ec_encode, net_accept:2 <- wal_fsync}.
  const obs::TraceSpan* rs = t.find("commit");
  const obs::TraceSpan* es = t.find("ec_encode");
  const obs::TraceSpan* ns = t.find("net_accept:2");
  const obs::TraceSpan* fs = t.find("wal_fsync");
  ASSERT_TRUE(rs && es && ns && fs);
  EXPECT_EQ(rs->parent, 0u);
  EXPECT_EQ(es->parent, rs->id);
  EXPECT_EQ(ns->parent, rs->id);
  EXPECT_EQ(fs->parent, ns->id);
  EXPECT_EQ(fs->node, 2u);
  EXPECT_EQ(es->duration_us(), 3);
}

TEST(Trace, ParentWithZeroSpanAttachesToRoot) {
  Tracer tr(8);
  SpanContext root = tr.begin_trace("commit", 1, 0);
  // A receiver that only knows the trace id (no parent span survived the
  // hop) still lands its span under the root.
  SpanContext child = tr.start_span(SpanContext{root.trace_id, 0}, "late", 3, 10);
  ASSERT_TRUE(child.valid());
  tr.end_span(child, 12);
  tr.end_span(root, 20);
  auto traces = tr.recent(1);
  ASSERT_EQ(traces.size(), 1u);
  const obs::TraceSpan* late = traces[0].find("late");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->parent, traces[0].root);
}

TEST(Trace, UnknownAndInvalidContextsAreIgnored) {
  Tracer tr(8);
  EXPECT_FALSE(tr.start_span(SpanContext{}, "x", 1, 10).valid());
  EXPECT_FALSE(tr.start_span(SpanContext{12345, 1}, "x", 1, 10).valid());
  tr.end_span(SpanContext{}, 10);
  tr.end_span(SpanContext{12345, 1}, 10);
  EXPECT_EQ(tr.active_count(), 0u);
  EXPECT_EQ(tr.completed_count(), 0u);
}

TEST(Trace, RingEvictsOldestCompleted) {
  Tracer tr(2);
  struct Spec {
    uint64_t slot;
    int64_t dur;
  };
  for (Spec s : {Spec{1, 10}, Spec{2, 30}, Spec{3, 20}}) {
    SpanContext root = tr.begin_trace("op", 1, 0);
    tr.set_slot(root.trace_id, s.slot);
    tr.end_span(root, s.dur);
  }
  EXPECT_EQ(tr.completed_count(), 2u);  // slot 1 evicted
  auto traces = tr.slowest(10);
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_EQ(traces[0].slot, 2u);  // slowest first (30us)
  EXPECT_EQ(traces[1].slot, 3u);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tr(8);
  tr.set_enabled(false);
  SpanContext root = tr.begin_trace("op", 1, 0);
  EXPECT_FALSE(root.valid());
  tr.end_span(root, 10);
  EXPECT_EQ(tr.active_count(), 0u);
  EXPECT_EQ(tr.completed_count(), 0u);
}

TEST(Trace, SlowOpsLandInSlowRing) {
  Tracer tr(8);
  tr.set_slow_threshold_us(100);
  SpanContext fast = tr.begin_trace("op", 1, 0);
  tr.end_span(fast, 50);
  SpanContext slow = tr.begin_trace("op", 1, 0);
  tr.set_slot(slow.trace_id, 7);
  tr.end_span(slow, 500);
  EXPECT_EQ(tr.completed_count(), 2u);
  EXPECT_EQ(tr.slow_count(), 1u);
  auto slows = tr.slow_recent(4);
  ASSERT_EQ(slows.size(), 1u);
  EXPECT_EQ(slows[0].slot, 7u);
  EXPECT_NE(tr.slow_json(4).find("\"slot\":7"), std::string::npos);
}

TEST(Trace, JsonShape) {
  Tracer tr(8);
  SpanContext root = tr.begin_trace("commit", 3, 100);
  tr.set_slot(root.trace_id, 9);
  SpanContext child = tr.start_span(root, "quorum_wait", 3, 120);
  tr.end_span(child, 200);
  tr.end_span(root, 250);
  std::string json = tr.recent_json(4);
  EXPECT_NE(json.find("{\"traces\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"slot\":9"), std::string::npos) << json;
  EXPECT_NE(json.find("\"duration_us\":150"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"commit\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"quorum_wait\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"parent\":"), std::string::npos) << json;
}

TEST(Trace, AmbientSpanScopeRestores) {
  EXPECT_FALSE(obs::current_span().valid());
  {
    obs::SpanScope outer(SpanContext{11, 22});
    EXPECT_EQ(obs::current_span().trace_id, 11u);
    {
      obs::SpanScope inner(SpanContext{33, 44});
      EXPECT_EQ(obs::current_span().trace_id, 33u);
    }
    EXPECT_EQ(obs::current_span().trace_id, 11u);
    EXPECT_EQ(obs::current_span().span_id, 22u);
  }
  EXPECT_FALSE(obs::current_span().valid());
}

// --- end-to-end: a commit through the simulated cluster leaves one
// connected span tree covering client, leader and acceptors ---

TEST(TraceE2E, CommittedPutHasConnectedSpanTree) {
  sim::SimWorld world(42);
  kv::SimClusterOptions opts;
  opts.replica.heartbeat_interval = 20 * kMillis;
  opts.replica.election_timeout_min = 150 * kMillis;
  opts.replica.election_timeout_max = 300 * kMillis;
  opts.replica.lease_duration = 100 * kMillis;
  opts.replica.max_clock_drift = 10 * kMillis;
  kv::SimCluster cluster(&world, opts);
  cluster.wait_for_leaders();
  auto client = cluster.make_client(0);

  // Only the put below should mint traces from here on.
  Tracer::global().clear();
  Tracer::global().set_enabled(true);

  bool done = false;
  Status st = Status::ok();
  client->put("traced-key", to_bytes("traced-value"), [&](Status s) {
    st = s;
    done = true;
  });
  TimeMicros deadline = world.now() + 30 * kSeconds;
  while (!done && world.now() < deadline) world.run_for(5 * kMillis);
  ASSERT_TRUE(done);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  ASSERT_GE(Tracer::global().completed_count(), 1u);

  auto traces = Tracer::global().slowest(8);
  ASSERT_FALSE(traces.empty());
  bool found_full = false;
  for (const auto& t : traces) {
    EXPECT_TRUE(t.done);
    EXPECT_GE(t.duration_us(), 0);
    // Connectedness: every non-root span's parent exists in the same tree.
    for (const auto& s : t.spans) {
      if (s.id == t.root) {
        EXPECT_EQ(s.parent, 0u);
        continue;
      }
      bool parent_known =
          std::any_of(t.spans.begin(), t.spans.end(),
                      [&s](const obs::TraceSpan& p) { return p.id == s.parent; });
      EXPECT_TRUE(parent_known) << "orphan span " << s.name;
    }
    auto has = [&t](const std::string& name) { return t.find(name) != nullptr; };
    bool has_net = std::any_of(t.spans.begin(), t.spans.end(),
                               [](const obs::TraceSpan& s) {
                                 return s.name.rfind("net_accept:", 0) == 0;
                               });
    if (has("client_rpc") && has("commit") && has("ec_encode") && has("wal_fsync") &&
        has_net && has("quorum_wait") && has("apply")) {
      found_full = true;
      // Acceptance: the sequential leader phases account for the commit
      // (net/fsync spans nest inside quorum_wait and are not re-added).
      const obs::TraceSpan* commit = t.find("commit");
      int64_t chain = t.find("ec_encode")->duration_us() +
                      t.find("quorum_wait")->duration_us() +
                      t.find("apply")->duration_us();
      ASSERT_GT(commit->duration_us(), 0);
      double ratio = static_cast<double>(chain) /
                     static_cast<double>(commit->duration_us());
      EXPECT_GE(ratio, 0.9) << Tracer::global().slowest_json(8);
      EXPECT_LE(ratio, 1.1) << Tracer::global().slowest_json(8);
    }
  }
  EXPECT_TRUE(found_full)
      << "no trace contained the full client+leader+acceptor span set; dump: "
      << Tracer::global().slowest_json(8);
}

}  // namespace
}  // namespace rspaxos
