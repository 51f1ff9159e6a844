#include "util/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <future>
#include <memory>

#include "util/logging.h"

namespace rspaxos {
namespace {

constexpr int kMaxEvents = 64;

bool ctl(int epfd, int op, int fd, uint32_t events, void* tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.ptr = tag;
  return ::epoll_ctl(epfd, op, fd, &ev) == 0;
}

}  // namespace

EventLoop::EventLoop()
    : epfd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)),
      timer_fd_(::timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK)) {
  ok_ = epfd_ >= 0 && wake_fd_ >= 0 && timer_fd_ >= 0 &&
        ctl(epfd_, EPOLL_CTL_ADD, wake_fd_, EPOLLIN, &wake_fd_) &&
        ctl(epfd_, EPOLL_CTL_ADD, timer_fd_, EPOLLIN, &timer_fd_);
  if (!ok_) {
    RSP_ERROR << "event loop: epoll/eventfd/timerfd setup failed; loop is dead";
    return;
  }
  std::promise<void> started;
  thread_ = std::thread([this, &started] {
    tid_ = std::this_thread::get_id();
    started.set_value();
    run();
  });
  started.get_future().wait();
}

EventLoop::~EventLoop() {
  stop();
  if (epfd_ >= 0) ::close(epfd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (timer_fd_ >= 0) ::close(timer_fd_);
}

bool EventLoop::watch(int fd, uint32_t events, IoHandler* h) {
  return ctl(epfd_, EPOLL_CTL_ADD, fd, events, h);
}

bool EventLoop::rewatch(int fd, uint32_t events, IoHandler* h) {
  return ctl(epfd_, EPOLL_CTL_MOD, fd, events, h);
}

void EventLoop::unwatch(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

void EventLoop::wake_locked() {
  if (!parked_.exchange(false)) return;
  uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::post(Task task) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_ || !ok_) return;
  tasks_.push_back(std::move(task));
  wake_locked();
}

EventLoop::TimerId EventLoop::schedule(DurationMicros delay_us, Task task) {
  std::lock_guard<std::mutex> lk(mu_);
  if (stopping_ || !ok_) return 0;
  TimerId id = next_timer_id_++;
  TimeMicros deadline = clock_.now() + delay_us;
  // Only a new earliest deadline can need the parked loop to re-arm.
  bool earliest = timers_.empty() || deadline < timers_.top().deadline;
  timers_.push(Timer{deadline, id});
  timer_tasks_.emplace(id, std::move(task));
  if (earliest) wake_locked();
  return id;
}

bool EventLoop::cancel(TimerId id) {
  std::lock_guard<std::mutex> lk(mu_);
  return timer_tasks_.erase(id) > 0;  // stale heap entry is skipped on pop
}

void EventLoop::drain() {
  // A task dropped by a stopping loop breaks the promise, which also wakes
  // the waiter.
  auto done = std::make_shared<std::promise<void>>();
  auto fut = done->get_future();
  post([done = std::move(done)] { done->set_value(); });
  fut.wait();
}

void EventLoop::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
    wake_locked();
  }
  if (thread_.joinable()) thread_.join();
}

TimeMicros EventLoop::now() const { return clock_.now(); }

TimeMicros EventLoop::next_deadline_locked() {
  while (!timers_.empty() && timer_tasks_.count(timers_.top().id) == 0) timers_.pop();
  return timers_.empty() ? kNoDeadline : timers_.top().deadline;
}

void EventLoop::arm_timer(TimeMicros deadline) {
  // The steady clock is CLOCK_MONOTONIC, so the deadline arms the timerfd
  // as an absolute time; the kernel fires it at or after that instant, and
  // the fired timer then reads now() >= deadline.
  itimerspec its{};
  its.it_value.tv_sec = deadline / kSeconds;
  its.it_value.tv_nsec = (deadline % kSeconds) * 1000;
  if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) its.it_value.tv_nsec = 1;
  ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
  timer_armed_ = deadline;
}

void EventLoop::run() {
  epoll_event evs[kMaxEvents];
  std::vector<Task> tasks;
  while (true) {
    // Park only when nothing is runnable; a poster that sees parked_ writes
    // the eventfd.
    int timeout_ms = 0;
    TimeMicros deadline;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_ && tasks_.empty()) break;
      deadline = next_deadline_locked();
      if (tasks_.empty() && deadline > clock_.now()) {
        timeout_ms = -1;
        parked_.store(true);
      }
    }
    // Re-arm only when the earliest deadline moved earlier: a later-than-
    // needed arming just costs one spurious wake.
    if (timeout_ms != 0 && deadline < timer_armed_) arm_timer(deadline);
    int n = ::epoll_wait(epfd_, evs, kMaxEvents, timeout_ms);
    parked_.store(false);
    for (int i = 0; i < n; ++i) {
      void* tag = evs[i].data.ptr;
      uint64_t v;
      if (tag == &wake_fd_) {
        while (::read(wake_fd_, &v, sizeof(v)) > 0) {
        }
      } else if (tag == &timer_fd_) {
        while (::read(timer_fd_, &v, sizeof(v)) > 0) {
        }
        timer_armed_ = kNoDeadline;
      } else {
        static_cast<IoHandler*>(tag)->on_io(evs[i].events);
      }
    }

    // Timers due at this instant fire one at a time, so one may still cancel
    // another; a timer they schedule for "now" waits for the next cycle.
    TimeMicros now = clock_.now();
    std::unique_lock<std::mutex> lk(mu_);
    while (next_deadline_locked() <= now) {
      auto it = timer_tasks_.find(timers_.top().id);
      Task t = std::move(it->second);
      timer_tasks_.erase(it);
      timers_.pop();
      lk.unlock();
      t();
      lk.lock();
    }
    tasks.swap(tasks_);
    lk.unlock();
    for (Task& t : tasks) t();
    tasks.clear();
    if (cycle_end_) cycle_end_();
  }
}

}  // namespace rspaxos
