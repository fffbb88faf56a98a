#include "app/kv_store.hpp"

#include <cassert>

namespace idem::app {

namespace {

/// Encoded length of one ByteWriter::str field.
std::size_t str_size(std::string_view s) { return varint_size(s.size()) + s.size(); }

}  // namespace

/// Checkpoint handle: the store's size at checkpoint time plus, while
/// tracked, the pre-image of every key written since (nullopt = the key
/// did not exist then). Untracked means materialized: bytes_ is final.
class KvStore::Frozen final : public FrozenState {
 public:
  explicit Frozen(KvStore& owner)
      : owner_(&owner), count_(owner.data_.size()), size_(owner.snapshot_size()) {}

  ~Frozen() override {
    if (owner_ != nullptr) owner_->tracked_ = nullptr;
  }

  std::size_t size() const override { return size_; }

  const std::vector<std::byte>& bytes() const override {
    materialize();
    return bytes_;
  }

  /// Called before the store overwrites or erases `key`; `live` is its
  /// current value (moved from on the first write), or null if absent.
  void remember(std::string_view key, std::string* live) {
    auto it = pre_.lower_bound(key);
    if (it != pre_.end() && it->first == key) return;  // pre-image already kept
    std::optional<std::string> old;
    if (live != nullptr) old = std::move(*live);
    pre_.emplace_hint(it, std::string(key), std::move(old));
  }

  /// Builds the snapshot as of the checkpoint and detaches from the store:
  /// the live map in key order, with every written key replaced by its
  /// pre-image.
  void materialize() const {
    if (owner_ == nullptr) return;
    ByteWriter w;
    w.reserve(size_);
    w.varint(count_);
    const auto& live = owner_->data_;
    auto cur = live.begin();
    auto old = pre_.begin();
    while (cur != live.end() || old != pre_.end()) {
      if (old == pre_.end() || (cur != live.end() && cur->first < old->first)) {
        w.str(cur->first);  // untouched since the checkpoint
        w.str(cur->second);
        ++cur;
        continue;
      }
      if (cur != live.end() && cur->first == old->first) ++cur;  // written since
      if (old->second) {
        w.str(old->first);
        w.str(*old->second);
      }
      ++old;
    }
    assert(w.size() == size_);
    bytes_ = w.take();
    owner_->tracked_ = nullptr;
    owner_ = nullptr;
    pre_ = {};
  }

 private:
  mutable KvStore* owner_;
  std::size_t count_;
  std::size_t size_;
  mutable std::map<std::string, std::optional<std::string>, std::less<>> pre_;
  mutable std::vector<std::byte> bytes_;
};

KvStore::~KvStore() { stop_tracking(); }

std::vector<std::byte> KvCommand::encode() const {
  ByteWriter w;
  w.reserve(key.size() + value.size() + 16);
  w.u8(static_cast<std::uint8_t>(op));
  w.str(key);
  switch (op) {
    case KvOp::Put:
      w.str(value);
      break;
    case KvOp::Scan:
      w.varint(scan_len);
      break;
    case KvOp::Get:
    case KvOp::Delete:
      break;
  }
  return w.take();
}

KvCommand KvCommand::decode(std::span<const std::byte> data) {
  ByteReader r(data);
  KvCommand cmd;
  cmd.op = static_cast<KvOp>(r.u8());
  cmd.key = r.str();
  switch (cmd.op) {
    case KvOp::Put:
      cmd.value = r.str();
      break;
    case KvOp::Scan:
      cmd.scan_len = static_cast<std::uint32_t>(r.varint());
      break;
    case KvOp::Get:
    case KvOp::Delete:
      break;
  }
  return cmd;
}

std::vector<std::byte> KvResult::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(status));
  w.varint(values.size());
  for (const auto& v : values) w.str(v);
  return w.take();
}

KvResult KvResult::decode(std::span<const std::byte> data) {
  ByteReader r(data);
  KvResult res;
  res.status = static_cast<Status>(r.u8());
  auto n = r.varint();
  res.values.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) res.values.push_back(r.str());
  return res;
}

std::vector<std::byte> KvStore::execute(std::span<const std::byte> command) {
  KvCommand cmd;
  try {
    cmd = KvCommand::decode(command);
  } catch (const CodecError&) {
    KvResult bad;
    bad.status = KvResult::Status::BadRequest;
    return bad.encode();
  }

  KvResult res;
  switch (cmd.op) {
    case KvOp::Get: {
      auto it = data_.find(cmd.key);
      if (it == data_.end()) {
        res.status = KvResult::Status::NotFound;
      } else {
        res.values.push_back(it->second);
      }
      break;
    }
    case KvOp::Put:
      put(std::move(cmd.key), std::move(cmd.value));
      break;
    case KvOp::Delete:
      if (!erase(cmd.key)) res.status = KvResult::Status::NotFound;
      break;
    case KvOp::Scan: {
      auto it = data_.lower_bound(cmd.key);
      for (std::uint32_t i = 0; i < cmd.scan_len && it != data_.end(); ++i, ++it) {
        res.values.push_back(it->second);
      }
      break;
    }
    default:
      res.status = KvResult::Status::BadRequest;
  }
  return res.encode();
}

std::vector<std::byte> KvStore::snapshot() const {
  ByteWriter w;
  w.reserve(snapshot_size());
  w.varint(data_.size());
  // std::map iteration is key-ordered, so equal states serialize equally.
  for (const auto& [key, value] : data_) {
    w.str(key);
    w.str(value);
  }
  return w.take();
}

std::unique_ptr<FrozenState> KvStore::checkpoint() {
  stop_tracking();
  auto frozen = std::make_unique<Frozen>(*this);
  tracked_ = frozen.get();
  return frozen;
}

void KvStore::restore(std::span<const std::byte> snapshot) {
  // Single pass: snapshots are key-ordered, so every insert lands at the
  // end hint, and the encoded size is summed over the keys kept (of
  // duplicate keys in a malformed snapshot, the first wins).
  ByteReader r(snapshot);
  std::map<std::string, std::string, std::less<>> fresh;
  std::size_t entry_bytes = 0;
  auto n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    auto key = r.str();
    auto value = r.str();
    const std::size_t entry = str_size(key) + str_size(value);
    const std::size_t before = fresh.size();
    fresh.emplace_hint(fresh.end(), std::move(key), std::move(value));
    if (fresh.size() != before) entry_bytes += entry;
  }
  stop_tracking();
  data_ = std::move(fresh);
  entry_bytes_ = entry_bytes;
}

Duration KvStore::execution_cost(std::span<const std::byte> command) const {
  Duration cost = costs_.base;
  try {
    KvCommand cmd = KvCommand::decode(command);
    if (cmd.op == KvOp::Put) {
      cost += static_cast<Duration>(costs_.ns_per_value_byte *
                                    static_cast<double>(cmd.value.size()));
    } else if (cmd.op == KvOp::Scan) {
      cost += static_cast<Duration>(cmd.scan_len) * costs_.per_scan_entry;
    }
  } catch (const CodecError&) {
    // Malformed commands still pay the base cost.
  }
  return cost;
}

std::optional<std::string> KvStore::get(std::string_view key) const {
  auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void KvStore::put(std::string key, std::string value) {
  auto it = data_.lower_bound(key);
  if (it != data_.end() && it->first == key) {
    entry_bytes_ = entry_bytes_ - str_size(it->second) + str_size(value);
    if (tracked_ != nullptr) tracked_->remember(it->first, &it->second);
    it->second = std::move(value);
    return;
  }
  entry_bytes_ += str_size(key) + str_size(value);
  if (tracked_ != nullptr) tracked_->remember(key, nullptr);
  data_.emplace_hint(it, std::move(key), std::move(value));
}

bool KvStore::erase(std::string_view key) {
  auto it = data_.find(key);
  if (it == data_.end()) return false;
  entry_bytes_ -= str_size(it->first) + str_size(it->second);
  if (tracked_ != nullptr) tracked_->remember(it->first, &it->second);
  data_.erase(it);
  return true;
}

void KvStore::stop_tracking() {
  if (tracked_ != nullptr) tracked_->materialize();
}

}  // namespace idem::app
