// Checkpoints: frozen application state plus duplicate-detection metadata
// (paper Section 4.4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "app/state_machine.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"

namespace idem::consensus {

/// State of the replicated service after executing every sequence number
/// up to and including `upto`.
struct Checkpoint {
  SeqNum upto;
  /// The application state as of `upto`; serialized only when a lagging
  /// replica asks for it (state transfer).
  std::shared_ptr<const app::FrozenState> state;
  /// Highest executed operation number per client — used to suppress
  /// duplicate execution after state transfer.
  std::map<std::uint64_t, std::uint64_t> last_executed;
};

/// Keeps the most recent checkpoint; creation interval is the caller's
/// policy (IDEM checkpoints periodically by sequence number).
class CheckpointStore {
 public:
  explicit CheckpointStore(std::uint64_t interval = 256) : interval_(interval ? interval : 1) {}

  /// True when executing `sqn` should trigger a new checkpoint.
  bool due(SeqNum sqn) const { return (sqn.value + 1) % interval_ == 0; }

  void store(Checkpoint checkpoint) {
    if (!latest_ || checkpoint.upto > latest_->upto) latest_ = std::move(checkpoint);
  }

  /// Drops the latest checkpoint, releasing its frozen state.
  void clear() { latest_.reset(); }

  const std::optional<Checkpoint>& latest() const { return latest_; }
  std::uint64_t interval() const { return interval_; }

 private:
  std::uint64_t interval_;
  std::optional<Checkpoint> latest_;
};

}  // namespace idem::consensus
