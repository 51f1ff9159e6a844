#include "load/open_loop.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rspaxos::load {

OpenLoopGen::OpenLoopGen(NodeContext* ctx, kv::KvClient* client, OpenLoopSpec spec)
    : ctx_(ctx), client_(client), spec_(spec), rng_(spec.seed), value_(spec.value_size) {
  rng_.fill(value_.data(), std::min<size_t>(value_.size(), 4096));
  if (spec_.zipf_s > 0 && spec_.key_space > 1) {
    // Zipf(s) over ranks: P(rank r) ∝ 1/(r+1)^s. Precompute the normalized
    // CDF once; each draw is then one uniform + one binary search, keeping
    // the per-op cost flat no matter how large the key space is.
    zipf_cdf_.resize(static_cast<size_t>(spec_.key_space));
    double sum = 0;
    for (size_t r = 0; r < zipf_cdf_.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), spec_.zipf_s);
      zipf_cdf_[r] = sum;
    }
    for (auto& c : zipf_cdf_) c /= sum;
  }
}

uint64_t OpenLoopGen::pick_key() {
  if (zipf_cdf_.empty()) {
    return rng_.next_below(static_cast<uint64_t>(spec_.key_space));
  }
  auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng_.next_double());
  if (it == zipf_cdf_.end()) --it;  // guard the p == 1.0 edge
  return static_cast<uint64_t>(it - zipf_cdf_.begin());
}

void OpenLoopGen::start(std::function<void()> on_done) {
  // The generator shares its client's single-loop contract: arrivals, timer
  // pumps and completions all run on ctx_'s loop. Starting it from another
  // thread would race every counter here — fail loudly.
  assert(ctx_->on_context_thread());
  on_done_ = std::move(on_done);
  start_us_ = static_cast<int64_t>(ctx_->now());
  end_arrivals_us_ = start_us_ + static_cast<int64_t>(spec_.duration);
  // The first arrival is itself exponentially spaced from t0 — starting all
  // generators with an op at exactly t0 would synchronize their phases.
  next_arrival_us_ =
      start_us_ + static_cast<int64_t>(rng_.exponential(1e6 / spec_.qps));
  pump();
}

void OpenLoopGen::stop() {
  if (pump_timer_ != 0) {
    ctx_->cancel_timer(pump_timer_);
    pump_timer_ = 0;
  }
  if (drain_timer_ != 0) {
    ctx_->cancel_timer(drain_timer_);
    drain_timer_ = 0;
  }
  done_ = true;  // suppress any in-flight completion from firing on_done_
}

void OpenLoopGen::arm(DurationMicros delay) {
  pump_timer_ = ctx_->set_timer(delay > 0 ? delay : 1, [this] {
    pump_timer_ = 0;
    pump();
  });
}

void OpenLoopGen::pump() {
  int64_t now = static_cast<int64_t>(ctx_->now());
  // Issue every arrival whose scheduled time has passed. Intended timestamps
  // are the SCHEDULED times, not `now`: if the loop lagged, that lag is real
  // latency the user would have seen.
  while (next_arrival_us_ <= now && next_arrival_us_ < end_arrivals_us_) {
    issue(next_arrival_us_);
    next_arrival_us_ +=
        static_cast<int64_t>(rng_.exponential(1e6 / spec_.qps)) + 1;
  }
  if (next_arrival_us_ >= end_arrivals_us_) {
    arrivals_done_ = true;
    if (resolved_ < issued_ && spec_.drain_timeout > 0) {
      drain_timer_ = ctx_->set_timer(spec_.drain_timeout, [this] {
        drain_timer_ = 0;
        // Stragglers past the drain deadline: fail them all. cancel_all runs
        // their callbacks inline, which advances resolved_ to issued_.
        draining_cancelled_ = true;
        client_->cancel_all(Status::timeout("open-loop drain deadline"));
      });
    }
    maybe_finish();
    return;
  }
  arm(static_cast<DurationMicros>(next_arrival_us_ - now));
}

void OpenLoopGen::issue(int64_t intended_us) {
  ++issued_;
  int64_t actual_us = static_cast<int64_t>(ctx_->now());
  if (spec_.max_client_queue > 0 && client_->queued() >= spec_.max_client_queue) {
    // Bounded client queue: this arrival would wait behind max_client_queue
    // others already — shed it here rather than hoard memory. It still counts
    // as offered (it arrived) but fails instantly.
    ++client_shed_;
    on_op_done(intended_us, actual_us, false);
    return;
  }
  std::string key = "k-" + std::to_string(pick_key());
  if (spec_.read_ratio > 0 && rng_.next_double() < spec_.read_ratio) {
    client_->get(key, [this, intended_us, actual_us](StatusOr<Bytes> r) {
      on_op_done(intended_us, actual_us, r.is_ok());
    });
  } else {
    client_->put(key, value_, [this, intended_us, actual_us](Status s) {
      on_op_done(intended_us, actual_us, s.is_ok());
    });
  }
}

void OpenLoopGen::on_op_done(int64_t intended_us, int64_t actual_us, bool ok) {
  int64_t now = static_cast<int64_t>(ctx_->now());
  recorder_.record(intended_us, actual_us, now, ok);
  ++resolved_;
  if (now > last_resolve_us_) last_resolve_us_ = now;
  maybe_finish();
}

void OpenLoopGen::maybe_finish() {
  if (done_ || !arrivals_done_ || resolved_ < issued_) return;
  done_ = true;
  if (drain_timer_ != 0) {
    ctx_->cancel_timer(drain_timer_);
    drain_timer_ = 0;
  }
  if (on_done_) on_done_();
}

double OpenLoopGen::achieved_qps() const {
  // Elapsed = arrival window plus any drain the stragglers actually used.
  int64_t elapsed = static_cast<int64_t>(spec_.duration);
  if (last_resolve_us_ > start_us_ + elapsed) elapsed = last_resolve_us_ - start_us_;
  if (elapsed <= 0) return 0;
  return static_cast<double>(recorder_.ok()) * 1e6 / static_cast<double>(elapsed);
}

double OpenLoopGen::offered_qps() const {
  if (spec_.duration <= 0) return 0;
  return static_cast<double>(issued_) * 1e6 / static_cast<double>(spec_.duration);
}

}  // namespace rspaxos::load
