// Real-time event loop: epoll-driven I/O plus a timer wheel, implementing
// sim::Runtime against the steady clock. The same protocol code that runs
// in the deterministic simulator runs here over real sockets.
//
// Single-threaded by design: protocol nodes are not thread-safe, and the
// paper's replicas are single event loops too. All I/O callbacks and
// timers fire on the thread that calls run()/run_for().
//
// Multi-loop deployments (src/real) run one EventLoop per thread. The only
// thread-safe entry points are post() — which enqueues a task for the loop
// thread and wakes it through an eventfd — and stop(). Everything else
// (watch, schedule_*, transports, protocol nodes) must either happen on
// the loop thread or before the loop thread starts running.
#pragma once

#include <chrono>
#include <cstdint>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/event_queue.hpp"
#include "sim/runtime.hpp"

namespace idem::rpc {

/// CLOCK_REALTIME (ns since the Unix epoch) at the moment a loop epoch's
/// trace time 0 occurred: realtime-now minus how far the steady clock has
/// advanced past `epoch`. Each process stamps this into its trace export
/// so tools/trace_merge can stitch independently started processes onto
/// one wall-clock timeline (accurate to the clocks' mutual drift, which
/// on one host is negligible over a run).
std::int64_t realtime_anchor_ns(std::chrono::steady_clock::time_point epoch);

class EventLoop final : public sim::Runtime {
 public:
  using IoCallback = std::function<void(std::uint32_t epoll_events)>;
  using Task = std::function<void()>;
  using Epoch = std::chrono::steady_clock::time_point;

  /// `epoch` anchors now() == 0. Loops that share an epoch (real clusters
  /// hosting several loops in one process) produce mutually comparable
  /// timestamps, so per-thread trace rings merge into one coherent timeline.
  explicit EventLoop(std::uint64_t seed = 1, Epoch epoch = std::chrono::steady_clock::now());
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- sim::Runtime ---
  Time now() const override;
  sim::EventId schedule_after(Duration delay, sim::EventQueue::Callback fn) override;
  sim::EventId schedule_at(Time at, sim::EventQueue::Callback fn) override;
  bool cancel(sim::EventId id) override;
  Rng& rng(std::string_view name) override;
  std::uint64_t seed() const override { return seed_; }

  // --- I/O ---
  /// Registers interest in `events` (EPOLLIN/EPOLLOUT/...) on `fd`.
  /// Replaces any previous registration for the fd.
  void watch(int fd, std::uint32_t events, IoCallback callback);
  /// Updates the event mask of an already-watched fd (no syscall when the
  /// mask is unchanged).
  void modify(int fd, std::uint32_t events);
  void unwatch(int fd);

  // --- cross-thread ---
  /// Enqueues `task` to run on the loop thread and wakes the loop if it is
  /// blocked in epoll_wait. Safe to call from any thread; tasks run in
  /// post order. May also be called before run() — queued tasks execute as
  /// soon as the loop starts polling.
  void post(Task task);

  // --- same-thread deferral ---
  /// Runs `task` at the end of the current poll iteration, after I/O
  /// handlers and due timers but before the next epoll_wait. Loop-thread
  /// only (no locking); tasks deferred while the loop is idle run on the
  /// next iteration. This is the transport's write-coalescing hook: every
  /// send during one iteration queues frames, one deferred flush per
  /// connection writes them with a single syscall.
  void defer(Task task);

  // --- driving ---
  /// Processes I/O and timers until stop() is called.
  void run();
  /// Processes I/O and timers for (roughly) `span` of wall-clock time.
  void run_for(Duration span);
  /// Requests the loop to return from run()/run_for(). Safe from any
  /// thread; cross-thread stops wake a sleeping loop promptly.
  void stop();

 private:
  void poll_once(Duration max_wait);
  void fire_due_timers();
  void drain_posted();
  void run_deferred();

  std::uint64_t seed_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: written by post()/stop(), drained by the loop
  std::atomic<bool> stopped_{false};
  Epoch start_;
  sim::EventQueue timers_;
  struct Watcher {
    std::shared_ptr<IoCallback> callback;
    std::uint32_t events;  ///< mask last handed to epoll_ctl
  };
  std::unordered_map<int, Watcher> watchers_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Rng>> rngs_;
  std::mutex posted_mutex_;
  std::vector<Task> posted_;
  std::vector<Task> deferred_;       ///< loop-thread-only end-of-iteration tasks
  std::vector<Task> deferred_swap_;  ///< reused scratch so run_deferred never allocates
};

}  // namespace idem::rpc
