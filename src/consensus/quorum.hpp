// Small helpers for counting votes from distinct replicas.
//
// Votes are counted on every replica for every request and every slot, so
// neither container allocates per vote: a slot's voters sit in an inline
// array, a request's REQUIRE voters in one bitmask.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/ids.hpp"

namespace idem::consensus {

/// Largest replica group the vote containers hold: replica ids are
/// 0 .. n-1, and a vote from an id at or past this bound is ignored.
inline constexpr std::size_t kMaxReplicas = 15;

/// Throws std::invalid_argument unless a group of `n` replicas fits the
/// vote containers. Every replica checks its configured n with it.
inline void check_group_size(std::size_t n) {
  if (n == 0 || n > kMaxReplicas) {
    throw std::invalid_argument("replica group size " + std::to_string(n) +
                                " outside 1.." + std::to_string(kMaxReplicas));
  }
}

/// The distinct replicas that voted for one slot, stored inline.
///
/// Iteration yields the most recent insert first; a re-vote keeps its
/// original place. Callers that pick a peer from the voters (FETCH and
/// state-transfer targets) depend on that order, so it is part of the
/// simulated trajectory.
class VoteSet {
 public:
  /// Adds `voter`; returns false for a re-vote or an id past kMaxReplicas.
  bool insert(std::uint32_t voter) {
    if (voter >= kMaxReplicas || contains(voter)) return false;
    ids_[size_++] = static_cast<std::uint8_t>(voter);
    return true;
  }

  bool contains(std::uint32_t voter) const {
    return std::find(ids_.begin(), ids_.begin() + size_, voter) != ids_.begin() + size_;
  }

  std::size_t size() const { return size_; }
  void clear() { size_ = 0; }

  /// Voters, most recent insert first.
  auto begin() const { return std::make_reverse_iterator(ids_.begin() + size_); }
  auto end() const { return std::make_reverse_iterator(ids_.begin()); }

 private:
  std::array<std::uint8_t, kMaxReplicas> ids_{};
  std::uint8_t size_ = 0;
};

/// Counts distinct replica votes per key (e.g. REQUIREs per request id).
/// Double votes from the same replica are idempotent. Voters are kept as a
/// bitmask and counted with popcount; they are never iterated.
template <typename Key>
class QuorumTracker {
 public:
  /// Registers a vote; returns the number of distinct voters for `key`
  /// after the insertion (an id past kMaxReplicas does not count).
  std::size_t vote(const Key& key, ReplicaId voter) {
    auto& voters = votes_[key];
    if (voter.value < kMaxReplicas) voters |= Mask{1} << voter.value;
    return static_cast<std::size_t>(std::popcount(voters));
  }

  std::size_t count(const Key& key) const {
    auto it = votes_.find(key);
    return it == votes_.end() ? 0 : static_cast<std::size_t>(std::popcount(it->second));
  }

  bool reached(const Key& key, std::size_t quorum) const { return count(key) >= quorum; }

  void erase(const Key& key) { votes_.erase(key); }
  void clear() { votes_.clear(); }
  std::size_t keys() const { return votes_.size(); }

 private:
  using Mask = std::uint16_t;
  static_assert(sizeof(Mask) * 8 >= kMaxReplicas);

  std::unordered_map<Key, Mask> votes_;
};

}  // namespace idem::consensus
