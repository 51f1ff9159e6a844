#include "obs/health.h"

#include <algorithm>
#include <chrono>

namespace rspaxos::obs {

// ---------------------------------------------------------------------------
// SlidingHistogram

SlidingHistogram::SlidingHistogram(int64_t window_us)
    : window_us_(window_us),
      slice_us_(std::max<int64_t>(1, window_us / kSlices)),
      // One extra slot so a full window of sealed slices coexists with the
      // slice currently filling.
      ring_(static_cast<size_t>(kSlices + 1)) {}

SlidingHistogram::Slice& SlidingHistogram::slot(int64_t now_us) const {
  int64_t seq = now_us / slice_us_;
  Slice& s = ring_[static_cast<size_t>(seq) % ring_.size()];
  int64_t start = seq * slice_us_;
  if (s.start_us != start) {  // slot last used a full ring ago: recycle
    s.start_us = start;
    s.h.clear();
  }
  return s;
}

void SlidingHistogram::record(int64_t value, int64_t now_us) {
  std::lock_guard<std::mutex> lk(mu_);
  slot(now_us).h.record(value);
}

Histogram SlidingHistogram::window(int64_t now_us) const {
  Histogram out;
  std::lock_guard<std::mutex> lk(mu_);
  for (const Slice& s : ring_) {
    if (s.start_us < 0) continue;
    if (s.start_us + slice_us_ <= now_us - window_us_) continue;  // aged out
    if (s.start_us > now_us) continue;                            // stale future slot
    out.merge(s.h);
  }
  return out;
}

void SlidingHistogram::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  for (Slice& s : ring_) {
    s.start_us = -1;
    s.h.clear();
  }
}

// ---------------------------------------------------------------------------
// HealthMonitor

HealthMonitor::HealthMonitor(uint32_t server, HealthOptions opts)
    : server_(server),
      opts_(opts),
      loop_lag_(static_cast<int64_t>(kWindow)),
      fsync_(static_cast<int64_t>(kWindow)),
      queue_depth_(static_cast<int64_t>(kWindow)) {
  auto& reg = MetricsRegistry::global();
  std::string s = std::to_string(server_);
  lag_p99_gauge_ = &reg.gauge_family("rsp_health_loop_lag_p99_us",
                                     "Event-loop lag p99 over the sliding window",
                                     {"server"})
                        .with({s});
  fsync_p99_gauge_ = &reg.gauge_family("rsp_health_fsync_p99_us",
                                       "WAL fsync latency p99 over the sliding window",
                                       {"server"})
                          .with({s});
  stalled_gauge_ = &reg.gauge_family("rsp_health_stalled",
                                     "1 while the host's event loop is stalled",
                                     {"server"})
                        .with({s});
  overloaded_gauge_ =
      &reg.gauge_family("rsp_health_overloaded",
                        "1 while a watermark (loop lag / fsync p99) is tripped "
                        "and admission control sheds load",
                        {"server"})
           .with({s});
}

int64_t HealthMonitor::wall_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void HealthMonitor::start(NodeContext* ctx) {
  ctx_ = ctx;
  running_.store(true, std::memory_order_release);
  expected_at_node_us_.store(static_cast<int64_t>(ctx_->now()) +
                                 static_cast<int64_t>(opts_.probe_interval),
                             std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(timer_mu_);
  timer_ = ctx_->set_timer(opts_.probe_interval, [this] { probe(); });
}

void HealthMonitor::stop() {
  running_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lk(timer_mu_);
  if (ctx_ != nullptr && timer_ != 0) {
    ctx_->cancel_timer(timer_);
    timer_ = 0;
  }
}

void HealthMonitor::probe() {
  if (!running_.load(std::memory_order_acquire)) return;
  // The whole body runs under timer_mu_: stop() acquires it after flipping
  // running_, so stop() returning guarantees no probe is mid-flight — the
  // owner may tear down whatever on_probe_ reads.
  std::lock_guard<std::mutex> lk(timer_mu_);
  if (!running_.load(std::memory_order_acquire)) return;
  int64_t node_now = static_cast<int64_t>(ctx_->now());
  int64_t wall = wall_now_us();
  int64_t lag = std::max<int64_t>(
      0, node_now - expected_at_node_us_.load(std::memory_order_relaxed));
  loop_lag_.record(lag, wall);
  if (queue_sampler_) queue_depth_.record(queue_sampler_(), wall);
  last_probe_node_us_.store(node_now, std::memory_order_relaxed);
  last_lag_us_.store(lag, std::memory_order_relaxed);

  int64_t lag_p99 = loop_lag_.window(wall).value_at(0.99);
  int64_t fsync_p99 = fsync_.window(wall).value_at(0.99);
  lag_p99_gauge_->set(lag_p99);
  fsync_p99_gauge_->set(fsync_p99);
  stalled_gauge_->set(stalled(node_now) ? 1 : 0);

  // Overload watermark (admission control feed): trip at the watermark,
  // clear below half of it — hysteresis stops probe-to-probe flapping.
  if (opts_.overload_lag_p99 > 0) {
    int64_t mark = static_cast<int64_t>(opts_.overload_lag_p99);
    bool now_over = lag_p99 >= (overloaded_.load(std::memory_order_relaxed) ? mark / 2 : mark);
    overloaded_.store(now_over, std::memory_order_relaxed);
    overloaded_gauge_->set(now_over ? 1 : 0);
  }

  if (on_probe_) on_probe_();

  expected_at_node_us_.store(node_now + static_cast<int64_t>(opts_.probe_interval),
                             std::memory_order_relaxed);
  timer_ = ctx_->set_timer(opts_.probe_interval, [this] { probe(); });
}

void HealthMonitor::record_fsync(int64_t lat_us) { fsync_.record(lat_us, wall_now_us()); }

bool HealthMonitor::stalled(int64_t now_us) const {
  int64_t last = last_probe_node_us_.load(std::memory_order_relaxed);
  if (last == 0) return false;  // no probe yet: not enough signal
  int64_t overdue = now_us - last;
  if (overdue > static_cast<int64_t>(opts_.probe_interval) +
                    static_cast<int64_t>(kStallThreshold)) {
    return true;
  }
  return loop_lag_window().value_at(0.99) > static_cast<int64_t>(kStallThreshold);
}

namespace {
std::string hist_json(const Histogram& h) {
  return "{\"count\":" + std::to_string(h.count()) +
         ",\"p50\":" + std::to_string(h.value_at(0.5)) +
         ",\"p99\":" + std::to_string(h.value_at(0.99)) +
         ",\"max\":" + std::to_string(h.max()) + "}";
}
}  // namespace

std::string HealthMonitor::healthz_json(int64_t now_us) const {
  bool bad = stalled(now_us);
  std::string out = "{";
  out += "\"server\":" + std::to_string(server_);
  out += ",\"status\":\"" + std::string(bad ? "stalled" : "ok") + "\"";
  out += ",\"now_us\":" + std::to_string(now_us);
  out += ",\"last_probe_us\":" + std::to_string(last_probe_node_us_.load());
  out += ",\"last_loop_lag_us\":" + std::to_string(last_lag_us_.load());
  out += ",\"probe_interval_us\":" + std::to_string(opts_.probe_interval);
  out += ",\"loop_lag_us\":" + hist_json(loop_lag_window());
  out += ",\"fsync_us\":" + hist_json(fsync_window());
  out += ",\"peer_queue_depth\":" + hist_json(queue_depth_window());
  out += "}";
  return out;
}

Histogram HealthMonitor::loop_lag_window() const { return loop_lag_.window(wall_now_us()); }
Histogram HealthMonitor::fsync_window() const { return fsync_.window(wall_now_us()); }
Histogram HealthMonitor::queue_depth_window() const {
  return queue_depth_.window(wall_now_us());
}

}  // namespace rspaxos::obs
