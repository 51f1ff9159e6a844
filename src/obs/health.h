// Event-loop & WAL health watchdog (live, windowed — not process-lifetime).
//
// A HealthMonitor runs a periodic self-scheduled probe on its host's event
// loop: the gap between when the probe was due and when it actually ran is
// the loop lag (a wedged or overloaded loop shows up immediately). Each probe
// also samples peer send-queue occupancy; WAL flusher threads push fsync
// latencies in from the side. All three series land in sliding-window
// histograms, so /healthz and the gauges report p50/p99 over the last N
// seconds instead of a lifetime average that buries incidents.
//
// Stall detection: the host is "stalled" when probes stop landing (the loop
// is not running its timers) or the windowed loop-lag p99 exceeds the
// threshold. Surfaced by stalled()/healthz_json() and the
// rsp_health_stalled{server} gauge.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "net/transport.h"
#include "obs/metrics.h"
#include "util/histogram.h"

namespace rspaxos::obs {

/// A histogram over the trailing `window_us`: values land in kSlices rotating
/// time slices; a query merges the slices still inside the window.
/// Thread-safe.
class SlidingHistogram {
 public:
  static constexpr int kSlices = 10;

  explicit SlidingHistogram(int64_t window_us);

  void record(int64_t value, int64_t now_us);
  /// Merged copy of every slice inside [now - window, now].
  Histogram window(int64_t now_us) const;
  void clear();

 private:
  struct Slice {
    int64_t start_us = -1;  // -1: never used
    Histogram h;
  };

  /// Points the ring slot for `now_us` at the current slice, clearing stale
  /// contents. mu_ held.
  Slice& slot(int64_t now_us) const;

  int64_t window_us_;
  int64_t slice_us_;
  mutable std::mutex mu_;
  mutable std::vector<Slice> ring_;
};

struct HealthOptions {
  DurationMicros probe_interval = 100 * kMillis;
  /// Overload watermark feeding KvServer admission control (0 = disabled).
  /// The flag trips when the windowed loop-lag p99 crosses it and clears with
  /// hysteresis once the p99 falls below half of it, so admission does not
  /// flap probe-to-probe.
  DurationMicros overload_lag_p99 = 0;
};

class HealthMonitor {
 public:
  /// Width of the sliding windows behind the live percentiles.
  static constexpr DurationMicros kWindow = 10 * kSeconds;
  /// Loop-lag p99 above this — or probes overdue by more than
  /// probe_interval + this — flips the host to "stalled".
  static constexpr DurationMicros kStallThreshold = 1 * kSeconds;

  explicit HealthMonitor(uint32_t server, HealthOptions opts = {});

  /// Runs after every probe on the loop thread (NodeHost publishes its
  /// status snapshot here). Set before start().
  void set_on_probe(std::function<void()> fn) { on_probe_ = std::move(fn); }
  /// Samples the worst peer send-queue depth each probe. Set before start().
  void set_queue_sampler(std::function<int64_t()> fn) { queue_sampler_ = std::move(fn); }

  /// Schedules the first probe. Call on `ctx`'s loop thread.
  void start(NodeContext* ctx);
  /// Cancels the pending probe and drains an in-flight one (probe bodies run
  /// under timer_mu_; stop() acquires it after flipping running_), so on
  /// return no probe is executing and none will fire again — the owner may
  /// tear down whatever on_probe_/queue_sampler_ read. Idempotent, callable
  /// from any thread (teardown runs on the assembly thread while the loop
  /// still spins).
  void stop();

  /// WAL flusher hook — any thread.
  void record_fsync(int64_t lat_us);

  /// Overload verdict, recomputed once per probe from the watermark in
  /// HealthOptions (any thread; cheap). Always false while it is disabled.
  bool overloaded() const { return overloaded_.load(std::memory_order_relaxed); }

  /// `now_us` is the host's node-clock time (NodeContext::now()); probes
  /// stamp the same clock, so staleness works across sim and real time.
  bool stalled(int64_t now_us) const;
  std::string healthz_json(int64_t now_us) const;

  Histogram loop_lag_window() const;
  Histogram fsync_window() const;
  Histogram queue_depth_window() const;
  int64_t last_probe_us() const { return last_probe_node_us_.load(std::memory_order_relaxed); }
  const HealthOptions& options() const { return opts_; }

 private:
  static int64_t wall_now_us();
  void probe();

  uint32_t server_;
  HealthOptions opts_;
  NodeContext* ctx_ = nullptr;
  std::mutex timer_mu_;  // serializes whole probe bodies against stop()
  NodeContext::TimerId timer_ = 0;
  std::atomic<bool> running_{false};

  std::atomic<int64_t> last_probe_node_us_{0};
  std::atomic<int64_t> expected_at_node_us_{0};
  std::atomic<int64_t> last_lag_us_{0};
  std::atomic<bool> overloaded_{false};

  // Sliced on the steady wall clock (flusher threads have no node clock);
  // recorded *values* use the caller's clock, so sim lags stay deterministic.
  SlidingHistogram loop_lag_;
  SlidingHistogram fsync_;
  SlidingHistogram queue_depth_;

  std::function<void()> on_probe_;
  std::function<int64_t()> queue_sampler_;

  Gauge* lag_p99_gauge_;
  Gauge* fsync_p99_gauge_;
  Gauge* stalled_gauge_;
  Gauge* overloaded_gauge_;
};

}  // namespace rspaxos::obs
