// Single-threaded real-time event loop and I/O reactor.
//
// Each host in real (non-simulated) execution is driven by one EventLoop
// thread. That thread blocks in the loop's own epoll instance on three kinds
// of source: the sockets its owner registers with watch(), a timerfd armed at
// the earliest timer deadline (microsecond resolution — epoll_wait's own
// timeout is whole milliseconds), and an eventfd that other threads write to
// hand it work. Socket callbacks, timers and posted tasks all run on this one
// thread, which is what lets protocol code stay lock-free (the same property
// the discrete-event simulator provides in simulated runs).
//
// One cycle: wait for readiness → socket callbacks → due timers → the tasks
// queued so far → the cycle-end hook (the TCP transport flushes the frames
// the cycle sent). post()/schedule() from the loop thread never writes the
// eventfd: the loop recomputes its wait before parking. From any other thread
// they write it only while the loop is parked, and then only once.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "util/clock.h"

namespace rspaxos {

/// Runs socket callbacks, timers and posted tasks on a dedicated thread
/// until stopped.
class EventLoop final : public Clock {
 public:
  using Task = std::function<void()>;
  using TimerId = uint64_t;

  /// Readiness callback for an fd registered with watch(). Runs on the loop
  /// thread; `events` are the EPOLL* bits epoll_wait reported.
  class IoHandler {
   public:
    virtual void on_io(uint32_t events) = 0;

   protected:
    ~IoHandler() = default;
  };

  /// Starts the loop thread and returns once its id is published, so
  /// on_loop_thread() is well-defined from the first post() on.
  EventLoop();
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// False when the epoll instance, eventfd or timerfd could not be created
  /// (fd exhaustion). A dead loop starts no thread and drops every task.
  bool ok() const { return ok_; }

  /// Enqueues a task to run on the loop thread (thread-safe). Dropped once
  /// stop() has begun.
  void post(Task task);

  /// Schedules a task after `delay_us`; returns an id usable with cancel().
  /// A timer never fires before its deadline. Thread-safe.
  TimerId schedule(DurationMicros delay_us, Task task);

  /// Cancels a pending timer. Returns false if already fired or unknown.
  bool cancel(TimerId id);

  /// Blocks until all currently queued tasks have run (test helper). Returns
  /// at once on a stopped loop. Never call it on the loop thread.
  void drain();

  /// Requests shutdown and joins the loop thread. Tasks queued before the
  /// call still run; pending timers do not. Idempotent; not from the loop
  /// thread.
  void stop();

  bool on_loop_thread() const { return std::this_thread::get_id() == tid_; }

  TimeMicros now() const override;

  // Reactor surface: loop thread only. `events` are EPOLL* bits; epoll is
  // level-triggered, so a handler that leaves bytes unread is called again.
  // A handler that unwatches (and closes) its own fd inside on_io gets no
  // further call.
  bool watch(int fd, uint32_t events, IoHandler* h);
  bool rewatch(int fd, uint32_t events, IoHandler* h);
  void unwatch(int fd);
  /// Runs `fn` at the end of every cycle, after that cycle's tasks.
  void set_cycle_end(Task fn) { cycle_end_ = std::move(fn); }

 private:
  struct Timer {
    TimeMicros deadline;
    TimerId id;
    bool operator>(const Timer& o) const {
      return deadline != o.deadline ? deadline > o.deadline : id > o.id;
    }
  };
  static constexpr TimeMicros kNoDeadline = INT64_MAX;

  void run();
  /// Pops cancelled heap entries; returns the earliest live deadline or
  /// kNoDeadline. mu_ held.
  TimeMicros next_deadline_locked();
  /// Writes the eventfd if the loop is parked (at most one writer per park).
  /// mu_ held, so the write never races the fd's close in the destructor.
  void wake_locked();
  void arm_timer(TimeMicros deadline);

  int epfd_ = -1;
  int wake_fd_ = -1;
  int timer_fd_ = -1;
  bool ok_ = false;

  // Loop-thread private.
  TimeMicros timer_armed_ = kNoDeadline;
  Task cycle_end_;

  std::mutex mu_;
  std::vector<Task> tasks_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::map<TimerId, Task> timer_tasks_;
  TimerId next_timer_id_ = 1;
  bool stopping_ = false;
  // Set under mu_ just before the loop blocks with nothing queued; cleared
  // by the loop on waking and by the one poster that writes the eventfd.
  std::atomic<bool> parked_{false};

  SteadyClock clock_;
  std::thread::id tid_;
  std::thread thread_;
};

}  // namespace rspaxos
