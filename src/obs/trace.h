// Span-based distributed tracing for the commit pipeline.
//
// A trace is a tree of spans (Dapper-style): each span has a (trace_id,
// span_id, parent) triple plus a name, the recording node and start/end
// timestamps. The SpanContext pair travels in the frame header (format v3),
// so a commit's tree spans the client, the leader and every acceptor:
//
//   client_rpc                         (client)
//   └─ commit                          (leader)
//      ├─ ec_encode                    (leader: θ(X,N) Reed-Solomon encode)
//      ├─ wal_fsync                    (leader's own durability)
//      ├─ net_accept:<id> ...          (per-acceptor network + queue time;
//      │   └─ wal_fsync                 started by the sender's thread, ended
//      │                                by the receiver's; the two halves
//      │                                meet when a reader assembles trees)
//      ├─ quorum_wait                  (accepts sent -> QW durable acks)
//      └─ apply                        (commit -> state machine applied)
//
// Ambient propagation: the current span is a thread-local (obs::current_span);
// transports capture it at send time, stamp it into the frame, and deliver
// handlers under a SpanScope carrying the sender's context, so protocol code
// only ever talks to the ambient context.
//
// Recording takes no shared lock and allocates nothing: begin_trace,
// start_span, end_span and set_slot each append one fixed-size event to the
// calling thread's ring (kRingEvents events, overwritten oldest first). The
// readers (recent, slowest, the counts, the JSON dumps) copy every ring and
// group the events into CommitTrace trees. A trace is returned once its root
// has ended, and only while no ring has overwritten an event it may own.
//
// Timestamps are supplied by the caller's NodeContext clock, so under the
// simulator traces are sim-time and fully deterministic.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rspaxos::obs {

using TraceId = uint64_t;
using SpanId = uint64_t;
/// Zero means "not traced"; untraced operations skip all tracer work.
constexpr TraceId kNoTrace = 0;

/// The propagated pair: which trace, and which span is the current parent.
/// span_id == 0 with a valid trace_id means "parent unknown" — children
/// attach to the trace's root span.
struct SpanContext {
  TraceId trace_id = kNoTrace;
  SpanId span_id = 0;

  bool valid() const { return trace_id != kNoTrace; }
};

/// A span's name as recorded: a string with static storage duration (a
/// literal) plus an optional numeric suffix, rendered "<base>:<arg>" by the
/// readers ({"net_accept", 3} -> "net_accept:3"). Only the pointer is stored.
struct SpanName {
  SpanName(const char* base) : base(base) {}  // NOLINT: literals convert implicitly
  SpanName(const char* base, uint32_t arg) : base(base), arg(arg), has_arg(true) {}

  const char* base;
  uint32_t arg = 0;
  bool has_arg = false;
};

/// One timed phase within a trace.
struct TraceSpan {
  SpanId id = 0;
  SpanId parent = 0;  // 0 only for the root span
  std::string name;
  uint32_t node = 0;
  int64_t start_us = 0;
  int64_t end_us = 0;  // 0 while still open

  bool open() const { return end_us == 0 && start_us != 0; }
  int64_t duration_us() const { return open() ? 0 : end_us - start_us; }
};

/// The full span tree of one traced operation (one committed slot).
struct CommitTrace {
  TraceId id = kNoTrace;
  uint64_t slot = 0;
  SpanId root = 0;
  std::vector<TraceSpan> spans;
  bool done = false;
  int64_t start_us = 0;
  int64_t end_us = 0;

  int64_t duration_us() const { return end_us - start_us; }
  const TraceSpan* find(const std::string& name) const;
};

namespace detail {
struct SpanRing;
struct Snapshot;
}  // namespace detail

/// Span recorder with per-thread single-writer rings. All methods are
/// thread-safe. Memory is bounded by one ring per live recording thread: a
/// thread's ring goes back to the tracer when the thread exits and the next
/// new recording thread reuses it. Abandoned traces (lost leadership, dropped
/// frame) age out as their thread's ring wraps.
class Tracer {
 public:
  /// Events per thread ring (48 bytes each).
  static constexpr size_t kRingEvents = 4096;

  /// `capacity` bounds the completed traces the readers return: the
  /// `capacity` most recently completed ones still in the rings.
  explicit Tracer(size_t capacity = 512);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Process-wide tracer (leaked singleton, same rationale as the registry).
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Mints a fresh trace with its root span open; returns the root context.
  /// Invalid context when the tracer is disabled.
  SpanContext begin_trace(SpanName root_name, uint32_t node, int64_t t_us);

  /// Opens a child span under `parent`; an invalid parent yields an invalid
  /// context (all subsequent calls no-op). A parent with span_id 0 attaches
  /// the child to the trace's root span. A span under a trace that is unknown
  /// or has aged out is recorded but never surfaces in a reader.
  SpanContext start_span(SpanContext parent, SpanName name, uint32_t node, int64_t t_us);

  /// Closes a span (re-ending keeps the earliest end time). Ending the root
  /// span completes the trace: its tree holds the spans started and the ends
  /// recorded by the root's end time; later ones are left out (still open).
  void end_span(SpanContext span, int64_t t_us);

  /// Tags the trace with the consensus slot it committed (set at propose).
  void set_slot(TraceId id, uint64_t slot);

  size_t completed_count() const;
  size_t active_count() const;

  /// The K most recently completed traces (by root end time), newest first;
  /// spans in start order.
  std::vector<CommitTrace> recent(size_t k) const;
  /// The K slowest completed traces (by root span wall time), slowest first.
  std::vector<CommitTrace> slowest(size_t k) const;

  /// JSON documents: {"traces":[{trace_id,slot,duration_us,spans:[...]}]}.
  std::string recent_json(size_t k) const;
  std::string slowest_json(size_t k) const;

  /// Forgets everything recorded so far.
  void clear();

 private:
  detail::SpanRing* ring();  // the calling thread's ring, acquired on first use
  detail::SpanRing* acquire_ring();
  detail::Snapshot snapshot() const;
  static std::string to_json(const std::vector<CommitTrace>& traces);

  const uint64_t uid_;  // tells this tracer's rings apart in a thread's list
  const size_t capacity_;
  std::atomic<bool> enabled_{true};

  mutable std::mutex rings_mu_;  // registration, readers and clear; never per event
  std::vector<std::shared_ptr<detail::SpanRing>> rings_;
};

/// The ambient span of the calling thread (invalid when none). Transports
/// stamp it into outgoing frames; receivers run handlers under a SpanScope.
SpanContext current_span();

/// RAII: installs `ctx` as the thread's ambient span, restoring the previous
/// one on destruction. Installing an invalid context clears the ambient span.
class SpanScope {
 public:
  explicit SpanScope(SpanContext ctx);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanContext prev_;
};

}  // namespace rspaxos::obs
