// In-memory key-value store used as the replicated application
// (the paper evaluates with YCSB against a replicated key-value store).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/state_machine.hpp"
#include "common/codec.hpp"
#include "common/time.hpp"

namespace idem::app {

/// Wire format of KV commands and results.
enum class KvOp : std::uint8_t { Get = 1, Put = 2, Delete = 3, Scan = 4 };

struct KvCommand {
  KvOp op = KvOp::Get;
  std::string key;
  std::string value;        ///< Put only
  std::uint32_t scan_len = 0;  ///< Scan only

  std::vector<std::byte> encode() const;
  static KvCommand decode(std::span<const std::byte> data);
};

struct KvResult {
  enum class Status : std::uint8_t { Ok = 0, NotFound = 1, BadRequest = 2 };
  Status status = Status::Ok;
  std::vector<std::string> values;

  std::vector<std::byte> encode() const;
  static KvResult decode(std::span<const std::byte> data);
  bool ok() const { return status == Status::Ok; }
};

/// Ordered-map-backed store; ordering makes Scan meaningful and snapshots
/// canonical (byte-identical across replicas with equal contents).
///
/// Checkpoints are copy-on-write: checkpoint() only notes the encoded size
/// (kept current on every write), and while the returned handle is alive
/// the store keeps the pre-image of each key the first time it is written.
/// The handle's bytes() merges the live map with those pre-images, so a
/// checkpoint costs O(keys written since) until someone asks for the bytes.
/// A handle still tracked when tracking has to stop (a newer checkpoint,
/// restore(), destruction of the store) is materialized first.
class KvStore final : public StateMachine {
 public:
  struct Costs {
    /// Fixed per-op cost. The default is calibrated so a 3-replica cluster
    /// (execution on every replica dominating the per-request budget)
    /// saturates around the paper's ~43k requests/s.
    Duration base = 13 * kMicrosecond;
    double ns_per_value_byte = 2.0;  ///< marginal cost of value bytes
    Duration per_scan_entry = 1 * kMicrosecond;
  };

  KvStore() = default;
  explicit KvStore(Costs costs) : costs_(costs) {}
  ~KvStore() override;
  /// The tracked checkpoint handle points back at this store.
  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  std::vector<std::byte> execute(std::span<const std::byte> command) override;
  std::vector<std::byte> snapshot() const override;
  std::unique_ptr<FrozenState> checkpoint() override;
  void restore(std::span<const std::byte> snapshot) override;
  Duration execution_cost(std::span<const std::byte> command) const override;

  // Direct (non-replicated) accessors for tests and examples.
  std::optional<std::string> get(std::string_view key) const;
  void put(std::string key, std::string value);
  std::size_t size() const { return data_.size(); }
  /// Exact length of snapshot(), without building it.
  std::size_t snapshot_size() const { return varint_size(data_.size()) + entry_bytes_; }
  /// Full contents, ordered — shard-range extraction walks this to carve
  /// the migrating keys out of a quiesced source replica.
  const std::map<std::string, std::string, std::less<>>& entries() const { return data_; }

 private:
  class Frozen;

  /// Every write goes through put() or erase(), so the encoded size and
  /// the tracked checkpoint's pre-images stay exact.
  bool erase(std::string_view key);
  /// Materializes the tracked handle, if any, and stops tracking.
  void stop_tracking();

  std::map<std::string, std::string, std::less<>> data_;
  /// Encoded bytes of all entries: snapshot_size() minus the count varint.
  std::size_t entry_bytes_ = 0;
  /// Handle of the latest checkpoint while it still needs pre-images.
  Frozen* tracked_ = nullptr;
  Costs costs_;
};

}  // namespace idem::app
