// Tests for the observability subsystem: registry semantics and thread
// safety, exporter golden output, metric-name sanitization, CounterView delta
// snapshots, histogram quantile interpolation, and span tracing (unit-level
// and end-to-end over the simulated cluster).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
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

TEST(Trace, LateAndOrphanSpansStayOutOfTheTree) {
  Tracer tr(8);
  SpanContext root = tr.begin_trace("client_rpc", 1, 100);
  SpanContext slow = tr.start_span(root, "wal_fsync", 2, 120);
  tr.end_span(root, 150);
  SpanContext late = tr.start_span(root, "apply", 1, 160);
  tr.end_span(late, 170);
  tr.end_span(slow, 200);
  // A span under a parent the tree never got is left out too.
  SpanContext orphan = tr.start_span(SpanContext{root.trace_id, 999999}, "quorum_wait", 1, 130);
  tr.end_span(orphan, 140);
  auto traces = tr.recent(1);
  ASSERT_EQ(traces.size(), 1u);
  const auto& t = traces[0];
  EXPECT_EQ(t.spans.size(), 2u);
  EXPECT_EQ(t.find("quorum_wait"), nullptr);
  EXPECT_EQ(t.find("apply"), nullptr);  // started after the trace completed
  ASSERT_NE(t.find("wal_fsync"), nullptr);
  EXPECT_TRUE(t.find("wal_fsync")->open());  // ended after it
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
  // Recording cannot tell an unknown trace id at write time; the span is
  // kept but never surfaces, because no reader finds its trace's root.
  tr.start_span(SpanContext{12345, 1}, "x", 1, 10);
  tr.end_span(SpanContext{}, 10);
  tr.end_span(SpanContext{12345, 1}, 10);
  EXPECT_TRUE(tr.recent(8).empty());
  EXPECT_EQ(tr.active_count(), 0u);
  EXPECT_EQ(tr.completed_count(), 0u);
}

TEST(Trace, AbandonedTracesAgeOutByAgeNotNodeId) {
  // Trace ids carry the node in their high bits. Abandoned traces age out
  // by age, so many older abandoned traces of a higher node cannot push out
  // a newer node-0 trace.
  Tracer tr(8);
  for (int i = 0; i < 100; ++i) tr.begin_trace("op", /*node=*/0xFFFF, 10 + i);
  SpanContext root = tr.begin_trace("commit", /*node=*/0, 500);
  tr.set_slot(root.trace_id, 42);
  SpanContext child = tr.start_span(root, "apply", 0, 510);
  tr.end_span(child, 520);
  tr.end_span(root, 530);
  auto traces = tr.recent(8);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].slot, 42u);
  ASSERT_NE(traces[0].find("commit"), nullptr);
  EXPECT_EQ(traces[0].find("commit")->node, 0u);
  EXPECT_EQ(traces[0].spans.size(), 2u);
}

TEST(Trace, SpansEndedOnAnotherThreadJoinTheirTree) {
  // Each thread begins traces and hands them to the next thread, which
  // closes them and adds a span under the handed-over parent.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  Tracer tr(kThreads * kPerThread);
  struct Handoff {
    SpanContext root, a, b;
    int64_t t;
  };
  struct Inbox {
    std::mutex mu;
    std::vector<Handoff> items;
  };
  std::vector<Inbox> inbox(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tr, &inbox, i] {
      const uint32_t node = static_cast<uint32_t>(i);
      Inbox& out = inbox[static_cast<size_t>((i + 1) % kThreads)];
      Inbox& in = inbox[static_cast<size_t>(i)];
      int produced = 0, consumed = 0;
      while (produced < kPerThread || consumed < kPerThread) {
        if (produced < kPerThread) {
          int64_t t = 1000 + 10 * produced;
          Handoff h;
          h.t = t;
          h.root = tr.begin_trace("op", node, t);
          h.a = tr.start_span(h.root, {"net_accept", node}, node, t + 1);
          h.b = tr.start_span(h.a, "wal_fsync", node, t + 2);
          ++produced;
          std::lock_guard<std::mutex> lk(out.mu);
          out.items.push_back(h);
        }
        std::vector<Handoff> got;
        {
          std::lock_guard<std::mutex> lk(in.mu);
          got.swap(in.items);
        }
        for (const Handoff& h : got) {
          SpanContext c = tr.start_span(h.a, "apply", node, h.t + 3);
          tr.end_span(c, h.t + 4);
          tr.end_span(h.b, h.t + 5);
          tr.end_span(h.a, h.t + 6);
          tr.end_span(h.root, h.t + 7);
          ++consumed;
        }
        if (got.empty()) std::this_thread::yield();
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(tr.active_count(), 0u);
  EXPECT_EQ(tr.completed_count(), static_cast<size_t>(kThreads * kPerThread));
  auto traces = tr.recent(kThreads * kPerThread);
  ASSERT_EQ(traces.size(), static_cast<size_t>(kThreads * kPerThread));
  std::set<obs::TraceId> ids;
  for (const auto& t : traces) {
    ids.insert(t.id);
    EXPECT_TRUE(t.done);
    EXPECT_EQ(t.duration_us(), 7);
    ASSERT_EQ(t.spans.size(), 4u);
    for (const auto& s : t.spans) {
      EXPECT_FALSE(s.open()) << s.name;
      if (s.id == t.root) continue;
      bool parent_known = std::any_of(t.spans.begin(), t.spans.end(),
                                      [&s](const obs::TraceSpan& p) { return p.id == s.parent; });
      EXPECT_TRUE(parent_known) << "orphan span " << s.name;
    }
    const obs::TraceSpan* a = t.find("net_accept:" + std::to_string(t.spans[0].node));
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(t.find("apply")->parent, a->id);
    EXPECT_EQ(t.find("wal_fsync")->parent, a->id);
  }
  EXPECT_EQ(ids.size(), traces.size());
}

TEST(Trace, RingOverflowReturnsWholeTreesOnly) {
  // One thread records far more than a ring holds. Each trace's events are
  // spread over several steps, so the overwritten prefix cuts some traces
  // in half; those must not come back at all.
  Tracer tr(Tracer::kRingEvents);
  struct Open {
    SpanContext root, child, grandchild;
  };
  std::vector<Open> open;
  constexpr int kSteps = 3000;
  for (int i = 0; i < kSteps; ++i) {
    const int64_t t = 100 + 10 * i;
    Open o;
    o.root = tr.begin_trace("op", 1, t);
    o.child = tr.start_span(o.root, "commit", 1, t + 1);
    open.push_back(o);
    if (i >= 1) {
      Open& prev = open[static_cast<size_t>(i - 1)];
      prev.grandchild = tr.start_span(prev.child, "wal_fsync", 2, t + 2);
    }
    if (i >= 3) {
      const Open& old = open[static_cast<size_t>(i - 3)];
      tr.end_span(old.grandchild, t + 3);
      tr.end_span(old.child, t + 4);
      tr.end_span(old.root, t + 5);
    }
  }
  ASSERT_GT(kSteps * 6, static_cast<int>(Tracer::kRingEvents) * 2);
  auto traces = tr.recent(Tracer::kRingEvents);
  // About kRingEvents / 6 steps survive; the oldest are gone.
  EXPECT_GT(traces.size(), Tracer::kRingEvents / 8);
  EXPECT_LT(traces.size(), static_cast<size_t>(kSteps));
  for (const auto& t : traces) {
    ASSERT_EQ(t.spans.size(), 3u) << "trace " << t.id;
    const obs::TraceSpan* root = t.find("op");
    const obs::TraceSpan* child = t.find("commit");
    const obs::TraceSpan* grandchild = t.find("wal_fsync");
    ASSERT_TRUE(root && child && grandchild);
    EXPECT_EQ(root->parent, 0u);
    EXPECT_EQ(child->parent, root->id);
    EXPECT_EQ(grandchild->parent, child->id);
    EXPECT_FALSE(child->open());
    EXPECT_FALSE(grandchild->open());
  }
}

TEST(Trace, TraceWithSpansInAWrappedRingIsHidden) {
  // The root lives in this thread's ring; its grandchild in a second
  // thread's ring, which then wraps. The tree would come back without the
  // grandchild, so it must not come back at all.
  Tracer tr(64);
  SpanContext root = tr.begin_trace("op", 1, 100);
  SpanContext child = tr.start_span(root, "commit", 1, 101);
  std::thread flood([&tr, child] {
    SpanContext g = tr.start_span(child, "wal_fsync", 2, 102);
    tr.end_span(g, 103);
    for (int64_t i = 0; i < 2 * static_cast<int64_t>(Tracer::kRingEvents); ++i) {
      SpanContext other = tr.begin_trace("other", 2, 200 + i);
      tr.end_span(other, 200 + i);
    }
  });
  flood.join();
  // Ends last, so it would be the newest tree returned.
  tr.end_span(child, 100000);
  tr.end_span(root, 100001);
  auto traces = tr.recent(64);
  ASSERT_EQ(traces.size(), 64u);
  for (const auto& t : traces) {
    EXPECT_NE(t.id, root.trace_id);
    ASSERT_EQ(t.spans.size(), 1u);
    EXPECT_EQ(t.spans[0].name, "other");
  }
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
