// Leader-side request batching with a size- or time-based cut.
//
// All four protocols queue proposal candidates (request ids or full
// requests) and cut batches of at most batch_max off the head. This class
// owns the queue and the cut policy; the protocol supplies a per-item
// verdict when cutting:
//   Take  — include in the current batch (counts toward batch_max)
//   Drop  — discard (already executed or proposed)
//   Defer — keep queued behind the current tail (body not yet available)
//
// The time-based cut is the batching feature on top: with batch_min > 1 a
// leader holds the cut until batch_min items are queued or the oldest one
// has waited flush_delay, trading a bounded latency add for fewer, fuller
// consensus instances. The defaults (batch_min = 1, flush_delay = 0)
// reproduce the legacy opportunistic cut exactly: every nonempty queue is
// ready immediately and the timestamps are never consulted.
#pragma once

#include <cstddef>
#include <deque>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace idem::core {

template <typename Item>
class BatchPipeline {
 public:
  struct Policy {
    std::size_t batch_max = 32;
    std::size_t batch_min = 1;  ///< cut as soon as this many items queued...
    Duration flush_delay = 0;   ///< ...or the oldest item waited this long
  };

  void configure(const Policy& policy) { policy_ = policy; }
  const Policy& policy() const { return policy_; }

  void push(Item item, Time now) {
    queue_.push_back(std::move(item));
    enqueued_.push_back(now);
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  void clear() {
    queue_.clear();
    enqueued_.clear();
  }

  /// True when a batch may be cut now.
  bool ready(Time now) const {
    if (queue_.empty()) return false;
    if (queue_.size() >= policy_.batch_min) return true;
    return now - enqueued_.front() >= policy_.flush_delay;
  }

  /// Time until the queued items become ready by flush delay alone (for
  /// arming a flush timer). Only meaningful when ready() is false.
  Duration delay_until_ready(Time now) const {
    if (queue_.empty() || ready(now)) return 0;
    return policy_.flush_delay - (now - enqueued_.front());
  }

  enum class Verdict { Take, Drop, Defer };

  /// Cuts one batch off the queue head: pops items until batch_max have
  /// been taken or the queue is empty, invoking `verdict` on each. Taken
  /// items are typically moved out by the verdict callback itself;
  /// deferred items are re-queued behind the tail in their original
  /// relative order. Returns the number taken.
  template <typename F>
  std::size_t cut(F&& verdict) {
    std::size_t taken = 0;
    // A vector, unlike a deque, allocates nothing until an item is deferred.
    std::vector<std::pair<Item, Time>> deferred;
    while (!queue_.empty() && taken < policy_.batch_max) {
      Item item = std::move(queue_.front());
      Time at = enqueued_.front();
      queue_.pop_front();
      enqueued_.pop_front();
      switch (verdict(item)) {
        case Verdict::Take:
          ++taken;
          break;
        case Verdict::Drop:
          break;
        case Verdict::Defer:
          deferred.emplace_back(std::move(item), at);
          break;
      }
    }
    for (auto& [item, at] : deferred) {
      queue_.push_back(std::move(item));
      enqueued_.push_back(at);
    }
    return taken;
  }

 private:
  Policy policy_;
  std::deque<Item> queue_;
  std::deque<Time> enqueued_;  ///< parallel enqueue timestamps
};

}  // namespace idem::core
