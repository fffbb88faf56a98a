#include "rpc/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <vector>

namespace idem::rpc {

namespace {

std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

std::int64_t realtime_anchor_ns(std::chrono::steady_clock::time_point epoch) {
  auto realtime_now = std::chrono::system_clock::now().time_since_epoch();
  auto since_epoch = std::chrono::steady_clock::now() - epoch;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(realtime_now).count() -
         std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch).count();
}

EventLoop::EventLoop(std::uint64_t seed, Epoch epoch) : seed_(seed), start_(epoch) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    throw std::runtime_error(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error(std::string("eventfd: ") + std::strerror(errno));
  }
  // Registered directly (not via watch()) so watchers_ stays loop-private:
  // the wakeup is the one fd a foreign thread may poke.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

Time EventLoop::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

sim::EventId EventLoop::schedule_after(Duration delay, sim::EventQueue::Callback fn) {
  if (delay < 0) delay = 0;
  return timers_.push(now() + delay, std::move(fn));
}

sim::EventId EventLoop::schedule_at(Time at, sim::EventQueue::Callback fn) {
  Time current = now();
  if (at < current) at = current;
  return timers_.push(at, std::move(fn));
}

bool EventLoop::cancel(sim::EventId id) { return timers_.cancel(id); }

Rng& EventLoop::rng(std::string_view name) {
  std::uint64_t key = hash_name(name);
  auto it = rngs_.find(key);
  if (it == rngs_.end()) {
    it = rngs_.emplace(key, std::make_unique<Rng>(seed_, key)).first;
  }
  return *it->second;
}

void EventLoop::watch(int fd, std::uint32_t events, IoCallback callback) {
  auto shared = std::make_shared<IoCallback>(std::move(callback));
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  int op = watchers_.contains(fd) ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (::epoll_ctl(epoll_fd_, op, fd, &ev) < 0) {
    throw std::runtime_error(std::string("epoll_ctl: ") + std::strerror(errno));
  }
  watchers_[fd] = Watcher{std::move(shared), events};
}

void EventLoop::modify(int fd, std::uint32_t events) {
  // Transports re-arm after every flush; most of those leave the mask as
  // it was, and the kernel already has it.
  if (auto it = watchers_.find(fd); it != watchers_.end()) {
    if (it->second.events == events) return;
    it->second.events = events;
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EventLoop::unwatch(int fd) {
  if (watchers_.erase(fd) > 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

void EventLoop::post(Task task) {
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    posted_.push_back(std::move(task));
  }
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::stop() {
  stopped_.store(true, std::memory_order_release);
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_posted() {
  std::uint64_t count = 0;
  while (::read(wake_fd_, &count, sizeof(count)) > 0) {
  }
  std::vector<Task> tasks;
  {
    std::lock_guard<std::mutex> lock(posted_mutex_);
    tasks.swap(posted_);
  }
  for (Task& task : tasks) task();
}

void EventLoop::defer(Task task) { deferred_.push_back(std::move(task)); }

void EventLoop::run_deferred() {
  // Tasks deferred by a deferred task run in the next iteration; the swap
  // keeps iteration safe under such re-entrant defer() calls and hands its
  // capacity back to deferred_, so steady state never allocates.
  if (deferred_.empty()) return;
  deferred_swap_.clear();
  deferred_swap_.swap(deferred_);
  for (Task& task : deferred_swap_) task();
}

void EventLoop::fire_due_timers() {
  // Re-read the clock as we drain: handlers routinely schedule follow-up
  // work "at now" (node service queues dispatch exactly one message per
  // timer), and deferring it to the next epoll round trip would cap
  // dispatch at one message per poll — the real-mode overload collapse.
  // The burst budget keeps a busy node from starving I/O forever; due
  // timers left over make the next epoll_wait time out immediately.
  constexpr int kTimerBurst = 1024;
  for (int burst = 0; burst < kTimerBurst; ++burst) {
    if (timers_.empty() || timers_.next_time() > now()) return;
    auto event = timers_.pop();
    event.fn();
  }
}

void EventLoop::poll_once(Duration max_wait) {
  // Clamp the wait so due timers never starve behind a long epoll sleep.
  Duration until_timer = timers_.empty() ? max_wait : timers_.next_time() - now();
  Duration wait = std::min(max_wait, std::max<Duration>(0, until_timer));
  int timeout_ms = static_cast<int>((wait + kMillisecond - 1) / kMillisecond);
  if (!deferred_.empty()) timeout_ms = 0;

  epoll_event events[64];
  int ready = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  for (int i = 0; i < ready; ++i) {
    if (events[i].data.fd == wake_fd_) {
      drain_posted();
      continue;
    }
    auto it = watchers_.find(events[i].data.fd);
    if (it == watchers_.end()) continue;
    // Hold a reference: the callback may unwatch (and erase) itself.
    auto callback = it->second.callback;
    (*callback)(events[i].events);
  }
  fire_due_timers();
  run_deferred();
}

void EventLoop::run() {
  stopped_.store(false, std::memory_order_release);
  while (!stopped_.load(std::memory_order_acquire)) {
    poll_once(100 * kMillisecond);
  }
}

void EventLoop::run_for(Duration span) {
  stopped_.store(false, std::memory_order_release);
  Time deadline = now() + span;
  while (!stopped_.load(std::memory_order_acquire) && now() < deadline) {
    poll_once(std::min<Duration>(deadline - now(), 50 * kMillisecond));
  }
}

}  // namespace idem::rpc
