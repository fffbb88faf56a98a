// Deterministic state-machine interface executed by every replica.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/time.hpp"

namespace idem::app {

/// The application state frozen at one StateMachine::checkpoint() call.
/// Later execution on the state machine does not change what it holds.
class FrozenState {
 public:
  FrozenState() = default;
  virtual ~FrozenState() = default;
  FrozenState(const FrozenState&) = delete;
  FrozenState& operator=(const FrozenState&) = delete;

  /// Exact length of bytes(), known without building them.
  virtual std::size_t size() const = 0;

  /// The snapshot as of the checkpoint: byte-for-byte what snapshot()
  /// returned then. May be built on first use (then cached), so the
  /// caller must not run it concurrently with the state machine.
  virtual const std::vector<std::byte>& bytes() const = 0;
};

/// A FrozenState serialized up front.
class EagerFrozenState final : public FrozenState {
 public:
  explicit EagerFrozenState(std::vector<std::byte> bytes) : bytes_(std::move(bytes)) {}
  std::size_t size() const override { return bytes_.size(); }
  const std::vector<std::byte>& bytes() const override { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
};

/// The replicated application. Implementations must be deterministic:
/// the same command sequence applied to the same initial state yields the
/// same outputs and the same snapshot on every replica.
class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Applies one command and returns its result (the bytes sent back to
  /// the client in a REPLY).
  virtual std::vector<std::byte> execute(std::span<const std::byte> command) = 0;

  /// Serializes the complete application state (for checkpoints).
  virtual std::vector<std::byte> snapshot() const = 0;

  /// Freezes the current state for a checkpoint. The default serializes
  /// eagerly; a large state machine can instead defer the work to
  /// FrozenState::bytes(), which a replica only calls for state transfer.
  virtual std::unique_ptr<FrozenState> checkpoint() {
    return std::make_unique<EagerFrozenState>(snapshot());
  }

  /// Replaces the state with a previously produced snapshot. May throw
  /// (e.g. CodecError) on a malformed snapshot, in which case the call
  /// must be strongly exception-safe: the existing state stays untouched
  /// (decode into fresh storage, then swap).
  virtual void restore(std::span<const std::byte> snapshot) = 0;

  /// Simulated CPU cost of executing `command`; drives the replica's
  /// service-queue model. Defaults to a small constant.
  virtual Duration execution_cost(std::span<const std::byte> command) const {
    (void)command;
    return 5 * kMicrosecond;
  }
};

}  // namespace idem::app
