// The ordered log every protocol agrees on: a slot table keyed by
// sequence number, an execution cursor, and a window low watermark for
// garbage collection.
//
// The slot payload is protocol-specific (IDEM slots carry request ids and
// commit votes, Paxos/SMaRt slots carry full requests and their own vote
// sets), so the log is templated over it. Slots embed SlotBase for the
// lifecycle flags every protocol shares. The log owns structure and
// cursor motion; quorum policy and execution stay with the protocol.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <map>
#include <type_traits>
#include <utility>

namespace idem::core {

/// Lifecycle flags common to every protocol's consensus slot.
struct SlotBase {
  bool has_binding = false;  ///< a proposal has bound requests to this slot
  bool executed = false;     ///< applied to the state machine (immutable now)
  bool quorum_traced = false;  ///< decision-quorum trace event emitted once
};

/// Slots by sequence number, with the lookup interface of a std::map.
///
/// The live slots of a log are nearly contiguous, so they sit in a window
/// indexed by `sqn - base`: finding, creating and collecting a slot is O(1)
/// and allocates no node per slot. The window is a deque, so slot
/// references stay valid while it grows at either end. A slot more than
/// kMaxSpan sequence numbers away from the window (a far-behind replica's
/// COMMIT, a corrupt sequence number) goes to a sparse overflow map
/// instead, so one message cannot make the window span an arbitrary range.
/// Iteration merges both, in sequence-number order.
template <typename Slot>
class SlotTable {
  struct Entry {
    bool present = false;
    Slot slot{};
  };

 public:
  static constexpr std::uint64_t kMaxSpan = 1u << 16;

  template <bool Const>
  class Iter {
    using Table = std::conditional_t<Const, const SlotTable, SlotTable>;
    using Far = std::conditional_t<Const, typename std::map<std::uint64_t, Slot>::const_iterator,
                                   typename std::map<std::uint64_t, Slot>::iterator>;
    using SlotRef = std::conditional_t<Const, const Slot&, Slot&>;

   public:
    using value_type = std::pair<const std::uint64_t, SlotRef>;
    using reference = value_type;
    using pointer = void;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    /// What `it->first` / `it->second` read through.
    struct Arrow {
      value_type pair;
      value_type* operator->() { return &pair; }
    };

    Iter() = default;
    Iter(Table* table, std::uint64_t window_sqn, Far far)
        : table_(table), sqn_(window_sqn), far_(far) {
      skip_absent();
    }

    value_type operator*() const {
      if (on_window()) return {sqn_, table_->entry(sqn_).slot};
      return {far_->first, far_->second};
    }
    Arrow operator->() const { return Arrow{**this}; }

    Iter& operator++() {
      if (on_window()) {
        ++sqn_;
        skip_absent();
      } else {
        ++far_;
      }
      return *this;
    }

    bool operator==(const Iter& other) const { return sqn_ == other.sqn_ && far_ == other.far_; }

   private:
    /// The current slot is the window's when the window cursor is ahead of
    /// the overflow cursor (or the overflow is exhausted).
    bool on_window() const {
      if (sqn_ == table_->window_end()) return false;
      return far_ == table_->far_.end() || sqn_ < far_->first;
    }
    void skip_absent() {
      while (sqn_ < table_->window_end() && !table_->entry(sqn_).present) ++sqn_;
    }

    Table* table_ = nullptr;
    std::uint64_t sqn_ = 0;  ///< window cursor; window_end() when exhausted
    Far far_{};
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return lower_bound(0); }
  iterator end() { return iterator(this, window_end(), far_.end()); }
  const_iterator begin() const { return lower_bound(0); }
  const_iterator end() const { return const_iterator(this, window_end(), far_.end()); }

  /// First slot with a sequence number >= `sqn`.
  iterator lower_bound(std::uint64_t sqn) {
    return iterator(this, window_cursor(sqn), far_.lower_bound(sqn));
  }
  const_iterator lower_bound(std::uint64_t sqn) const {
    return const_iterator(this, window_cursor(sqn), far_.lower_bound(sqn));
  }
  iterator upper_bound(std::uint64_t sqn) {
    return sqn == std::numeric_limits<std::uint64_t>::max() ? end() : lower_bound(sqn + 1);
  }

  iterator find(std::uint64_t sqn) {
    iterator it = lower_bound(sqn);
    return it != end() && (*it).first == sqn ? it : end();
  }

  Slot* get(std::uint64_t sqn) {
    if (in_window(sqn) && entry(sqn).present) return &entry(sqn).slot;
    if (far_.empty()) return nullptr;
    auto it = far_.find(sqn);
    return it == far_.end() ? nullptr : &it->second;
  }
  const Slot* get(std::uint64_t sqn) const { return const_cast<SlotTable*>(this)->get(sqn); }
  bool contains(std::uint64_t sqn) const { return get(sqn) != nullptr; }

  /// The slot for `sqn`, created on first touch.
  Slot& operator[](std::uint64_t sqn) {
    if (Slot* slot = get(sqn)) return *slot;
    if (window_.empty()) {
      base_ = sqn;
      window_.emplace_back();
    } else if (sqn < base_) {
      if (window_end() - sqn > kMaxSpan) return far_[sqn];
      window_.insert(window_.begin(), base_ - sqn, Entry{});
      base_ = sqn;
    } else if (sqn >= window_end()) {
      if (sqn - base_ >= kMaxSpan) return far_[sqn];
      window_.resize(sqn - base_ + 1);
    }
    Entry& e = entry(sqn);
    e.present = true;
    return e.slot;
  }

  /// Drops every slot below `bound` in sequence-number order, handing each
  /// to `fn` first.
  template <typename F>
  void erase_below(std::uint64_t bound, F&& fn) {
    for (;;) {
      const bool window = !window_.empty() && base_ < bound;
      const bool far = !far_.empty() && far_.begin()->first < bound;
      if (!window && !far) return;
      if (window && (!far || base_ < far_.begin()->first)) {
        if (window_.front().present) fn(window_.front().slot);
        window_.pop_front();
        ++base_;
      } else {
        fn(far_.begin()->second);
        far_.erase(far_.begin());
      }
    }
  }

 private:
  std::uint64_t window_end() const { return base_ + window_.size(); }
  bool in_window(std::uint64_t sqn) const { return sqn >= base_ && sqn < window_end(); }
  /// Window cursor for lower_bound(sqn): clamped into [base_, window_end()].
  std::uint64_t window_cursor(std::uint64_t sqn) const {
    if (sqn < base_) return base_;
    return sqn < window_end() ? sqn : window_end();
  }
  Entry& entry(std::uint64_t sqn) { return window_[sqn - base_]; }
  const Entry& entry(std::uint64_t sqn) const { return window_[sqn - base_]; }

  std::deque<Entry> window_;  ///< slots base_ .. base_ + size - 1 (absent or not)
  std::uint64_t base_ = 0;
  std::map<std::uint64_t, Slot> far_;  ///< slots beyond kMaxSpan of the window
};

template <typename Slot>
class OrderedLog {
 public:
  using Map = SlotTable<Slot>;

  /// The slot for `sqn`, created on first touch.
  Slot& at(std::uint64_t sqn) { return slots_[sqn]; }

  Slot* find(std::uint64_t sqn) { return slots_.get(sqn); }
  const Slot* find(std::uint64_t sqn) const { return slots_.get(sqn); }
  bool contains(std::uint64_t sqn) const { return slots_.contains(sqn); }

  /// Raw slot table, for protocol-specific scans (fetch prefetch,
  /// view-change window assembly, gap analysis).
  Map& slots() { return slots_; }
  const Map& slots() const { return slots_; }

  /// Next sequence number to execute.
  std::uint64_t next_exec() const { return next_exec_; }
  void set_next_exec(std::uint64_t sqn) { next_exec_ = sqn; }
  void advance_head() { ++next_exec_; }

  /// Start of the consensus window (instances below are collected).
  std::uint64_t low() const { return low_; }

  /// The slot at the execution cursor, or null.
  Slot* head() { return find(next_exec_); }

  /// First sequence number >= `sqn` without a binding — new proposals must
  /// skip slots taken over from an earlier view.
  std::uint64_t skip_bound(std::uint64_t sqn) const {
    for (;;) {
      const Slot* slot = find(sqn);
      if (slot == nullptr || !slot->has_binding) return sqn;
      ++sqn;
    }
  }

  /// One past the highest slot matching `pred`, but at least `floor` — the
  /// first free sequence number a new leader may propose into.
  template <typename P>
  std::uint64_t high_watermark(std::uint64_t floor, P&& pred) const {
    std::uint64_t high = floor;
    for (const auto& [sqn, slot] : slots_) {
      if (pred(slot) && sqn + 1 > high) high = sqn + 1;
    }
    return high;
  }

  /// Advances the window: drops every slot below `new_low`, invoking
  /// `on_executed(slot)` for executed ones first (so the protocol can
  /// release per-request state).
  template <typename F>
  void advance_low(std::uint64_t new_low, F&& on_executed) {
    slots_.erase_below(new_low, [&](Slot& slot) {
      if (slot.executed) on_executed(slot);
    });
    low_ = new_low;
  }

  /// Baseline-style GC: keep the trailing 2 * `window_size` executed slots
  /// (enough to answer retransmitted proposals), drop everything older.
  void gc_executed(std::uint64_t window_size) {
    if (next_exec_ >= 2 * window_size) {
      slots_.erase_below(next_exec_ - 2 * window_size, [](Slot&) {});
    }
  }

 private:
  Map slots_;
  std::uint64_t next_exec_ = 0;
  std::uint64_t low_ = 0;
};

}  // namespace idem::core
