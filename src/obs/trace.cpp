#include "obs/trace.h"

#include <algorithm>
#include <charconv>
#include <limits>

namespace rspaxos::obs {

namespace {
thread_local SpanContext g_ambient_span;
}  // namespace

SpanContext current_span() { return g_ambient_span; }

SpanScope::SpanScope(SpanContext ctx) : prev_(g_ambient_span) { g_ambient_span = ctx; }
SpanScope::~SpanScope() { g_ambient_span = prev_; }

const TraceSpan* CommitTrace::find(const std::string& name) const {
  for (const TraceSpan& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

namespace detail {

// One event is six words:
//   w0 trace id
//   w1 span id (the slot for kSlot)
//   w2 kind << 62 | has_arg << 61 | parent span id (0: the trace's root)
//   w3 t_us
//   w4 name pointer
//   w5 node << 32 | name arg
enum Kind : uint64_t { kBegin = 0, kStart = 1, kEnd = 2, kSlot = 3 };
constexpr size_t kWords = 6;
constexpr uint64_t kMask = Tracer::kRingEvents - 1;
constexpr uint64_t kParentMask = (uint64_t{1} << 61) - 1;
static_assert((Tracer::kRingEvents & kMask) == 0, "ring size must be a power of two");

inline uint64_t pack_meta(Kind kind, bool has_arg, SpanId parent) {
  return static_cast<uint64_t>(kind) << 62 | static_cast<uint64_t>(has_arg) << 61 |
         (parent & kParentMask);
}

namespace {
/// Span ids (and the low half of trace ids) come from one process-wide
/// sequence, which a ring claims a block at a time.
constexpr uint64_t kIdBlock = 1024;
std::atomic<uint64_t> g_next_id_block{1};
}  // namespace

/// One thread's events. Only the owning thread appends; readers copy. Every
/// word is atomic: the writer stores with release and readers load with
/// acquire, so a reader that sees any word of a newer event also sees the
/// head that preceded it and can tell the slot was reused under it.
struct SpanRing {
  uint64_t mint() {
    if (next_id == id_end) {
      next_id = g_next_id_block.fetch_add(kIdBlock, std::memory_order_relaxed);
      id_end = next_id + kIdBlock;
    }
    return next_id++;
  }

  void append(uint64_t trace, uint64_t span, uint64_t meta, int64_t t_us, const char* name,
              uint64_t node_arg) {
    const uint64_t h = head.load(std::memory_order_relaxed);
    std::atomic<uint64_t>* w = &words[(h & kMask) * kWords];
    w[0].store(trace, std::memory_order_release);
    w[1].store(span, std::memory_order_release);
    w[2].store(meta, std::memory_order_release);
    w[3].store(static_cast<uint64_t>(t_us), std::memory_order_release);
    w[4].store(reinterpret_cast<uintptr_t>(name), std::memory_order_release);
    w[5].store(node_arg, std::memory_order_release);
    head.store(h + 1, std::memory_order_release);
  }

  uint64_t next_id = 0;  // owning thread only, like id_end
  uint64_t id_end = 0;
  std::unique_ptr<std::atomic<uint64_t>[]> words =
      std::make_unique<std::atomic<uint64_t>[]>(Tracer::kRingEvents * kWords);
  std::atomic<uint64_t> head{0};        // events ever appended
  std::atomic<uint64_t> floor{0};       // clear(): readers skip events below
  std::atomic<bool> in_use{false};      // held by a live thread
  std::atomic<bool> orphaned{false};    // its tracer is gone
};

/// A reader's copy of one event.
struct Event {
  uint64_t w[kWords];
  uint32_t ring;
  uint64_t index;

  Kind kind() const { return static_cast<Kind>(w[2] >> 62); }
  TraceId trace() const { return w[0]; }
  SpanId span() const { return w[1]; }
  SpanId parent() const { return w[2] & kParentMask; }
  int64_t t_us() const { return static_cast<int64_t>(w[3]); }
  std::string name() const {
    std::string s = reinterpret_cast<const char*>(static_cast<uintptr_t>(w[4]));
    if ((w[2] >> 61 & 1) != 0) {
      char digits[16];
      char* end = std::to_chars(digits, digits + sizeof(digits), static_cast<uint32_t>(w[5])).ptr;
      s += ':';
      s.append(digits, end);
    }
    return s;
  }
  uint32_t node() const { return static_cast<uint32_t>(w[5] >> 32); }
};

/// Every ring's events grouped by trace.
struct Snapshot {
  struct Root {
    TraceId trace;
    SpanId span;
    int64_t start_us;
    int64_t end_us = 0;
    uint64_t slot = 0;
    const Event* end = nullptr;  // earliest root end inside the cut
  };

  std::vector<Event> events;
  std::vector<Root> roots;        // in event order
  std::vector<uint32_t> grouped;  // event indices, root after root
  std::vector<uint32_t> offset;   // root r owns grouped[offset[r], offset[r + 1])
  std::vector<uint32_t> done;     // completed roots kept for readers, newest first
  size_t active = 0;

  /// The trees of roots `which`, in that order.
  std::vector<CommitTrace> trees(const std::vector<uint32_t>& which) const;
};

std::vector<CommitTrace> Snapshot::trees(const std::vector<uint32_t>& which) const {
  struct Span {
    SpanId id;
    SpanId parent;
    int64_t start_us;
    int64_t end_us;
    const Event* start;
    uint32_t pos;  // event order, so equal starts keep it
    bool reached;
  };
  std::vector<Span> spans;
  std::vector<std::pair<SpanId, uint32_t>> by_id;  // span id -> index in spans
  std::vector<CommitTrace> out;
  out.reserve(which.size());
  for (uint32_t ri : which) {
    const Root& r = roots[ri];
    spans.clear();
    by_id.clear();
    for (uint32_t k = offset[ri]; k < offset[ri + 1]; ++k) {
      const Event& e = events[grouped[k]];
      if (e.kind() != kBegin && e.kind() != kStart) continue;
      if (e.t_us() > r.end_us) continue;  // started after the trace completed
      SpanId parent = e.kind() == kBegin ? 0 : e.parent() != 0 ? e.parent() : r.span;
      by_id.emplace_back(e.span(), static_cast<uint32_t>(spans.size()));
      spans.push_back(Span{e.span(), parent, e.t_us(), e.kind() == kBegin ? r.end_us : 0, &e,
                           static_cast<uint32_t>(spans.size()), false});
    }
    std::sort(by_id.begin(), by_id.end());
    auto index_of = [&by_id](SpanId id) -> int64_t {
      auto it = std::lower_bound(by_id.begin(), by_id.end(), std::make_pair(id, uint32_t{0}));
      return it != by_id.end() && it->first == id ? static_cast<int64_t>(it->second) : -1;
    };
    for (uint32_t k = offset[ri]; k < offset[ri + 1]; ++k) {
      const Event& e = events[grouped[k]];
      if (e.kind() != kEnd || e.span() == r.span || e.t_us() > r.end_us) continue;
      int64_t i = index_of(e.span());
      if (i < 0) continue;
      Span& s = spans[static_cast<size_t>(i)];
      if (s.end_us == 0 || e.t_us() < s.end_us) s.end_us = e.t_us();
    }
    // Keep only what the root reaches: a span that started before the root
    // ended without causally preceding it (a slow follower's fsync) may hang
    // under a parent whose event was appended after that ring was copied.
    for (bool grew = true; grew;) {
      grew = false;
      for (Span& s : spans) {
        if (s.reached) continue;
        const int64_t p = index_of(s.parent);
        if (s.id == r.span || (p >= 0 && spans[static_cast<size_t>(p)].reached)) {
          s.reached = true;
          grew = true;
        }
      }
    }
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.start_us != b.start_us ? a.start_us < b.start_us : a.pos < b.pos;
    });

    CommitTrace& t = out.emplace_back();
    t.id = r.trace;
    t.slot = r.slot;
    t.root = r.span;
    t.done = true;
    t.start_us = r.start_us;
    t.end_us = r.end_us;
    t.spans.reserve(spans.size());
    for (const Span& s : spans) {
      if (!s.reached) continue;
      TraceSpan& ts = t.spans.emplace_back();
      ts.id = s.id;
      ts.parent = s.parent;
      ts.name = s.start->name();
      ts.node = s.start->node();
      ts.start_us = s.start_us;
      ts.end_us = s.end_us;
    }
  }
  return out;
}

}  // namespace detail

using detail::Event;
using detail::SpanRing;
using detail::Snapshot;

namespace {

std::atomic<uint64_t> g_next_tracer_uid{1};

/// The rings the calling thread writes, one per tracer it has recorded into.
/// Destroyed at thread exit, which hands every ring back for reuse.
struct HeldRing {
  uint64_t tracer;
  std::shared_ptr<SpanRing> ring;
};
thread_local bool t_rings_gone = false;
struct ThreadRings {
  std::vector<HeldRing> held;
  ~ThreadRings() {
    for (HeldRing& h : held) h.ring->in_use.store(false, std::memory_order_release);
    t_rings_gone = true;
  }
};
thread_local ThreadRings t_rings;

}  // namespace

Tracer::Tracer(size_t capacity)
    : uid_(g_next_tracer_uid.fetch_add(1, std::memory_order_relaxed)), capacity_(capacity) {}

Tracer::~Tracer() {
  for (const auto& r : rings_) r->orphaned.store(true, std::memory_order_relaxed);
}

Tracer& Tracer::global() {
  static Tracer* t = new Tracer();
  return *t;
}

SpanRing* Tracer::ring() {
  if (t_rings_gone) return nullptr;  // recording from a thread_local destructor
  for (const HeldRing& h : t_rings.held) {
    if (h.tracer == uid_) return h.ring.get();
  }
  return acquire_ring();
}

SpanRing* Tracer::acquire_ring() {
  std::vector<HeldRing>& held = t_rings.held;
  held.erase(std::remove_if(held.begin(), held.end(),
                            [](const HeldRing& h) {
                              return h.ring->orphaned.load(std::memory_order_relaxed);
                            }),
             held.end());
  std::shared_ptr<SpanRing> ring;
  {
    std::lock_guard<std::mutex> lk(rings_mu_);
    for (const auto& r : rings_) {
      if (!r->in_use.load(std::memory_order_acquire)) {
        ring = r;
        break;
      }
    }
    if (ring == nullptr) {
      ring = std::make_shared<SpanRing>();
      rings_.push_back(ring);
    }
    ring->in_use.store(true, std::memory_order_relaxed);
  }
  held.push_back(HeldRing{uid_, ring});
  return ring.get();
}

SpanContext Tracer::begin_trace(SpanName root_name, uint32_t node, int64_t t_us) {
  if (!enabled()) return {};
  SpanRing* r = ring();
  if (r == nullptr) return {};
  // The node in the high half keeps ids (a varint in accept messages) as
  // wide as they have always been.
  TraceId id = (static_cast<uint64_t>(node) << 32) ^ r->mint();
  if (id == kNoTrace) id = 1;
  const SpanId root = r->mint();
  r->append(id, root, detail::pack_meta(detail::kBegin, root_name.has_arg, 0), t_us,
            root_name.base, static_cast<uint64_t>(node) << 32 | root_name.arg);
  return {id, root};
}

SpanContext Tracer::start_span(SpanContext parent, SpanName name, uint32_t node, int64_t t_us) {
  if (!parent.valid() || !enabled()) return {};
  SpanRing* r = ring();
  if (r == nullptr) return {};
  const SpanId id = r->mint();
  r->append(parent.trace_id, id, detail::pack_meta(detail::kStart, name.has_arg, parent.span_id),
            t_us, name.base, static_cast<uint64_t>(node) << 32 | name.arg);
  return {parent.trace_id, id};
}

void Tracer::end_span(SpanContext span, int64_t t_us) {
  if (!span.valid() || span.span_id == 0 || !enabled()) return;
  SpanRing* r = ring();
  if (r == nullptr) return;
  r->append(span.trace_id, span.span_id, detail::pack_meta(detail::kEnd, false, 0), t_us,
            nullptr, 0);
}

void Tracer::set_slot(TraceId id, uint64_t slot) {
  if (id == kNoTrace || !enabled()) return;
  SpanRing* r = ring();
  if (r == nullptr) return;
  r->append(id, slot, detail::pack_meta(detail::kSlot, false, 0), 0, nullptr, 0);
}

Snapshot Tracer::snapshot() const {
  std::vector<std::shared_ptr<SpanRing>> rings;
  {
    std::lock_guard<std::mutex> lk(rings_mu_);
    rings = rings_;
  }
  Snapshot s;
  // The cut: a root end counts only if it was appended before these heads
  // were read. Every event it causally follows, on any thread, was appended
  // before that too, so the copies taken below contain it.
  std::vector<uint64_t> cut(rings.size());
  for (size_t i = 0; i < rings.size(); ++i) {
    cut[i] = rings[i]->head.load(std::memory_order_acquire);
  }
  // A ring that wrapped lost events up to its oldest survivor's time; a trace
  // that began by then may be missing spans, so it is not returned.
  int64_t horizon = std::numeric_limits<int64_t>::min();
  s.events.reserve(rings.size() * kRingEvents);
  for (size_t i = 0; i < rings.size(); ++i) {
    const SpanRing& r = *rings[i];
    const uint64_t floor = r.floor.load(std::memory_order_acquire);
    const uint64_t h1 = r.head.load(std::memory_order_acquire);
    uint64_t lo = std::max(floor, h1 > kRingEvents ? h1 - kRingEvents : 0);
    const size_t base = s.events.size();
    for (uint64_t idx = lo; idx < h1; ++idx) {
      Event e;
      const std::atomic<uint64_t>* w = &r.words[(idx & detail::kMask) * detail::kWords];
      for (size_t k = 0; k < detail::kWords; ++k) e.w[k] = w[k].load(std::memory_order_acquire);
      e.ring = static_cast<uint32_t>(i);
      e.index = idx;
      s.events.push_back(e);
    }
    // Slots the writer reached while they were being copied are discarded:
    // at head h2 it may be overwriting the event kRingEvents before h2.
    const uint64_t h2 = r.head.load(std::memory_order_acquire);
    const uint64_t safe = h2 >= kRingEvents ? h2 - kRingEvents + 1 : 0;
    if (safe > lo) {
      const size_t drop = static_cast<size_t>(std::min<uint64_t>(safe - lo, h1 - lo));
      s.events.erase(s.events.begin() + static_cast<std::ptrdiff_t>(base),
                     s.events.begin() + static_cast<std::ptrdiff_t>(base + drop));
      lo = safe;
    }
    if (lo > floor) {
      horizon = std::max(horizon, s.events.size() > base ? s.events[base].t_us()
                                                         : std::numeric_limits<int64_t>::max());
    }
  }

  // Roots, and an open-addressing index from trace id to root.
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  for (const Event& e : s.events) {
    if (e.kind() == detail::kBegin) s.roots.push_back(Snapshot::Root{e.trace(), e.span(), e.t_us()});
  }
  int bits = 4;
  while ((size_t{1} << bits) < 2 * s.roots.size()) ++bits;
  const uint64_t table_mask = (uint64_t{1} << bits) - 1;
  auto home = [bits](TraceId id) { return (id * 0x9E3779B97F4A7C15ull) >> (64 - bits); };
  std::vector<uint32_t> table(table_mask + 1, kNone);
  for (uint32_t r = 0; r < s.roots.size(); ++r) {
    uint64_t h = home(s.roots[r].trace);
    while (table[h] != kNone) h = (h + 1) & table_mask;
    table[h] = r;
  }
  auto find_root = [&](TraceId id) {
    for (uint64_t h = home(id);; h = (h + 1) & table_mask) {
      if (table[h] == kNone || s.roots[table[h]].trace == id) return table[h];
    }
  };

  std::vector<uint32_t> owner(s.events.size(), kNone);
  s.offset.assign(s.roots.size() + 1, 0);
  for (size_t i = 0; i < s.events.size(); ++i) {
    const Event& e = s.events[i];
    const uint32_t ri = find_root(e.trace());
    if (ri == kNone) continue;
    owner[i] = ri;
    ++s.offset[ri + 1];
    Snapshot::Root& root = s.roots[ri];
    if (e.kind() == detail::kEnd && e.span() == root.span && e.index < cut[e.ring] &&
        (root.end == nullptr || e.t_us() < root.end_us)) {
      root.end = &e;
      root.end_us = e.t_us();
    } else if (e.kind() == detail::kSlot) {
      root.slot = e.span();
    }
  }
  for (size_t r = 0; r < s.roots.size(); ++r) s.offset[r + 1] += s.offset[r];
  s.grouped.resize(s.offset.back());
  std::vector<uint32_t> fill(s.offset.begin(), s.offset.end() - 1);
  for (size_t i = 0; i < s.events.size(); ++i) {
    if (owner[i] != kNone) s.grouped[fill[owner[i]]++] = static_cast<uint32_t>(i);
  }

  for (size_t r = 0; r < s.roots.size(); ++r) {
    const Snapshot::Root& root = s.roots[r];
    if (root.end == nullptr) {
      ++s.active;
    } else if (root.start_us > horizon) {
      s.done.push_back(static_cast<uint32_t>(r));
    }
  }
  // Newest first: by root end time, then by position in the recording ring.
  auto newer = [&s](uint32_t a, uint32_t b) {
    const Event& ea = *s.roots[a].end;
    const Event& eb = *s.roots[b].end;
    if (ea.t_us() != eb.t_us()) return ea.t_us() > eb.t_us();
    if (ea.ring != eb.ring) return ea.ring > eb.ring;
    return ea.index > eb.index;
  };
  if (s.done.size() > capacity_) {
    std::nth_element(s.done.begin(), s.done.begin() + static_cast<std::ptrdiff_t>(capacity_),
                     s.done.end(), newer);
    s.done.resize(capacity_);
  }
  std::sort(s.done.begin(), s.done.end(), newer);
  return s;
}

size_t Tracer::completed_count() const { return snapshot().done.size(); }

size_t Tracer::active_count() const { return snapshot().active; }

std::vector<CommitTrace> Tracer::recent(size_t k) const {
  Snapshot s = snapshot();
  if (s.done.size() > k) s.done.resize(k);
  return s.trees(s.done);
}

std::vector<CommitTrace> Tracer::slowest(size_t k) const {
  const Snapshot s = snapshot();
  // Oldest first, so equal durations keep completion order.
  std::vector<uint32_t> order(s.done.rbegin(), s.done.rend());
  std::stable_sort(order.begin(), order.end(), [&s](uint32_t a, uint32_t b) {
    return s.roots[a].end_us - s.roots[a].start_us > s.roots[b].end_us - s.roots[b].start_us;
  });
  if (order.size() > k) order.resize(k);
  return s.trees(order);
}

std::string Tracer::to_json(const std::vector<CommitTrace>& traces) {
  std::string out = "{\"traces\":[";
  bool first_t = true;
  for (const CommitTrace& t : traces) {
    if (!first_t) out += ',';
    first_t = false;
    out += "{\"trace_id\":" + std::to_string(t.id) + ",\"slot\":" + std::to_string(t.slot) +
           ",\"duration_us\":" + std::to_string(t.duration_us()) + ",\"spans\":[";
    bool first_s = true;
    for (const TraceSpan& s : t.spans) {
      if (!first_s) out += ',';
      first_s = false;
      out += "{\"id\":" + std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent) +
             ",\"name\":\"" + s.name + "\",\"node\":" + std::to_string(s.node) +
             ",\"start_us\":" + std::to_string(s.start_us) +
             ",\"end_us\":" + std::to_string(s.end_us) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string Tracer::recent_json(size_t k) const { return to_json(recent(k)); }
std::string Tracer::slowest_json(size_t k) const { return to_json(slowest(k)); }

void Tracer::clear() {
  std::lock_guard<std::mutex> lk(rings_mu_);
  for (const auto& r : rings_) {
    r->floor.store(r->head.load(std::memory_order_acquire), std::memory_order_release);
  }
}

}  // namespace rspaxos::obs
