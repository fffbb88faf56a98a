// Unit tests for the application substrate: KV store state machine,
// command codec, snapshots, and the YCSB workload generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "app/counter.hpp"
#include "app/kv_store.hpp"
#include "app/ycsb.hpp"
#include "common/rng.hpp"

namespace idem::app {
namespace {

// ---------------------------------------------------------------------------
// KvCommand / KvResult codec
// ---------------------------------------------------------------------------

TEST(KvCodec, PutRoundTrip) {
  KvCommand cmd;
  cmd.op = KvOp::Put;
  cmd.key = "user42";
  cmd.value = std::string(100, 'v');
  KvCommand back = KvCommand::decode(cmd.encode());
  EXPECT_EQ(back.op, KvOp::Put);
  EXPECT_EQ(back.key, cmd.key);
  EXPECT_EQ(back.value, cmd.value);
}

TEST(KvCodec, GetRoundTrip) {
  KvCommand cmd;
  cmd.op = KvOp::Get;
  cmd.key = "k";
  KvCommand back = KvCommand::decode(cmd.encode());
  EXPECT_EQ(back.op, KvOp::Get);
  EXPECT_EQ(back.key, "k");
}

TEST(KvCodec, ScanRoundTrip) {
  KvCommand cmd;
  cmd.op = KvOp::Scan;
  cmd.key = "user1";
  cmd.scan_len = 55;
  KvCommand back = KvCommand::decode(cmd.encode());
  EXPECT_EQ(back.op, KvOp::Scan);
  EXPECT_EQ(back.scan_len, 55u);
}

TEST(KvCodec, ResultRoundTrip) {
  KvResult res;
  res.status = KvResult::Status::Ok;
  res.values = {"a", "bb", "ccc"};
  KvResult back = KvResult::decode(res.encode());
  EXPECT_TRUE(back.ok());
  EXPECT_EQ(back.values, res.values);
}

// ---------------------------------------------------------------------------
// KvStore
// ---------------------------------------------------------------------------

TEST(KvStore, PutThenGet) {
  KvStore store;
  KvCommand put;
  put.op = KvOp::Put;
  put.key = "k";
  put.value = "v";
  EXPECT_TRUE(KvResult::decode(store.execute(put.encode())).ok());

  KvCommand get;
  get.op = KvOp::Get;
  get.key = "k";
  KvResult res = KvResult::decode(store.execute(get.encode()));
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res.values.size(), 1u);
  EXPECT_EQ(res.values[0], "v");
}

TEST(KvStore, GetMissingIsNotFound) {
  KvStore store;
  KvCommand get;
  get.op = KvOp::Get;
  get.key = "missing";
  KvResult res = KvResult::decode(store.execute(get.encode()));
  EXPECT_EQ(res.status, KvResult::Status::NotFound);
}

TEST(KvStore, DeleteRemoves) {
  KvStore store;
  store.put("k", "v");
  KvCommand del;
  del.op = KvOp::Delete;
  del.key = "k";
  EXPECT_TRUE(KvResult::decode(store.execute(del.encode())).ok());
  EXPECT_FALSE(store.get("k").has_value());
  // Deleting again reports NotFound.
  EXPECT_EQ(KvResult::decode(store.execute(del.encode())).status,
            KvResult::Status::NotFound);
}

TEST(KvStore, ScanReturnsOrderedRange) {
  KvStore store;
  store.put("a", "1");
  store.put("b", "2");
  store.put("c", "3");
  store.put("d", "4");
  KvCommand scan;
  scan.op = KvOp::Scan;
  scan.key = "b";
  scan.scan_len = 2;
  KvResult res = KvResult::decode(store.execute(scan.encode()));
  ASSERT_EQ(res.values.size(), 2u);
  EXPECT_EQ(res.values[0], "2");
  EXPECT_EQ(res.values[1], "3");
}

TEST(KvStore, MalformedCommandIsBadRequest) {
  KvStore store;
  std::vector<std::byte> garbage = {std::byte{2}};  // Put with no key
  KvResult res = KvResult::decode(store.execute(garbage));
  EXPECT_EQ(res.status, KvResult::Status::BadRequest);
}

TEST(KvStore, SnapshotRestoreRoundTrip) {
  KvStore store;
  for (int i = 0; i < 100; ++i) store.put("k" + std::to_string(i), "v" + std::to_string(i));
  auto snapshot = store.snapshot();

  KvStore other;
  other.put("stale", "data");
  other.restore(snapshot);
  EXPECT_EQ(other.size(), 100u);
  EXPECT_FALSE(other.get("stale").has_value());
  EXPECT_EQ(other.get("k42"), "v42");
}

TEST(KvStore, SnapshotIsCanonical) {
  // Same contents inserted in different orders serialize identically —
  // required for checkpoint comparison across replicas.
  KvStore a, b;
  a.put("x", "1");
  a.put("y", "2");
  b.put("y", "2");
  b.put("x", "1");
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(KvStore, ExecutionIsDeterministic) {
  KvStore a, b;
  Rng rng(9, 9);
  std::vector<std::vector<std::byte>> commands;
  YcsbConfig cfg;
  cfg.record_count = 50;
  YcsbWorkload workload(cfg, rng);
  for (int i = 0; i < 500; ++i) commands.push_back(workload.next_operation().encode());
  for (const auto& cmd : commands) {
    EXPECT_EQ(a.execute(cmd), b.execute(cmd));
  }
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(KvStore, ExecutionCostScalesWithValueSize) {
  KvStore store;
  KvCommand small;
  small.op = KvOp::Put;
  small.key = "k";
  small.value = "v";
  KvCommand big = small;
  big.value = std::string(10'000, 'v');
  EXPECT_GT(store.execution_cost(big.encode()), store.execution_cost(small.encode()));
}

// ---------------------------------------------------------------------------
// Copy-on-write checkpoints
// ---------------------------------------------------------------------------

std::vector<std::byte> put_command(std::string key, std::string value) {
  KvCommand cmd;
  cmd.op = KvOp::Put;
  cmd.key = std::move(key);
  cmd.value = std::move(value);
  return cmd.encode();
}

std::vector<std::byte> delete_command(std::string key) {
  KvCommand cmd;
  cmd.op = KvOp::Delete;
  cmd.key = std::move(key);
  return cmd.encode();
}

/// A frozen handle together with the eager snapshot taken beside it.
struct HeldCheckpoint {
  std::unique_ptr<FrozenState> frozen;
  std::vector<std::byte> expected;
};

HeldCheckpoint freeze(KvStore& store) {
  HeldCheckpoint held{nullptr, store.snapshot()};
  held.frozen = store.checkpoint();
  EXPECT_EQ(held.frozen->size(), held.expected.size());
  return held;
}

TEST(KvStoreCheckpoint, RandomWritesLeaveFrozenBytesExact) {
  // Small key space so overwrites, re-inserts and deletes of frozen keys
  // are common; lengths straddle the one-byte varint limit (127 -> 128).
  Rng rng(11, 11);
  auto random_key = [&] {
    std::string key = "k" + std::to_string(rng.uniform_int(0, 40));
    if (rng.bernoulli(0.1)) key.resize(static_cast<std::size_t>(rng.uniform_int(126, 129)), 'K');
    return key;
  };
  auto random_value = [&] {
    return std::string(static_cast<std::size_t>(rng.uniform_int(0, 3) == 0
                                                    ? rng.uniform_int(125, 130)
                                                    : rng.uniform_int(0, 8)),
                       static_cast<char>('a' + rng.uniform_int(0, 25)));
  };

  for (int round = 0; round < 20; ++round) {
    KvStore store;
    std::vector<HeldCheckpoint> held;
    std::vector<std::vector<std::byte>> earlier;  // restore sources
    for (int step = 0; step < 400; ++step) {
      const auto choice = rng.uniform_int(0, 99);
      if (choice < 45) {
        store.execute(put_command(random_key(), random_value()));
      } else if (choice < 60) {
        store.put(random_key(), random_value());
      } else if (choice < 80) {
        store.execute(delete_command(random_key()));
      } else if (choice < 92) {
        held.push_back(freeze(store));
        earlier.push_back(held.back().expected);
      } else if (choice < 95 && !earlier.empty()) {
        store.restore(earlier[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(earlier.size()) - 1))]);
      } else if (!held.empty()) {
        // Read a handle early: it materializes and stops tracking.
        const auto& pick = held[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1))];
        ASSERT_EQ(pick.frozen->bytes(), pick.expected);
      }
      ASSERT_EQ(store.snapshot_size(), store.snapshot().size()) << "round " << round;
    }
    for (const auto& h : held) {
      EXPECT_EQ(h.frozen->size(), h.expected.size());
      EXPECT_EQ(h.frozen->bytes(), h.expected);
    }
  }
}

/// The store's semantics spelled out on the decoded command and result
/// types: what KvStore::execute must produce byte for byte.
std::vector<std::byte> reference_execute(std::map<std::string, std::string>& data,
                                         std::span<const std::byte> command) {
  KvResult res;
  KvCommand cmd;
  try {
    cmd = KvCommand::decode(command);
  } catch (const CodecError&) {
    res.status = KvResult::Status::BadRequest;
    return res.encode();
  }
  switch (cmd.op) {
    case KvOp::Get:
      if (auto it = data.find(cmd.key); it != data.end()) {
        res.values.push_back(it->second);
      } else {
        res.status = KvResult::Status::NotFound;
      }
      break;
    case KvOp::Put:
      data[cmd.key] = cmd.value;
      break;
    case KvOp::Delete:
      if (data.erase(cmd.key) == 0) res.status = KvResult::Status::NotFound;
      break;
    case KvOp::Scan: {
      auto it = data.lower_bound(cmd.key);
      for (std::uint32_t i = 0; i < cmd.scan_len && it != data.end(); ++i, ++it) {
        res.values.push_back(it->second);
      }
      break;
    }
    default:
      res.status = KvResult::Status::BadRequest;
  }
  return res.encode();
}

Duration reference_cost(const KvStore::Costs& costs, std::span<const std::byte> command) {
  Duration cost = costs.base;
  try {
    const KvCommand cmd = KvCommand::decode(command);
    if (cmd.op == KvOp::Put) {
      cost += static_cast<Duration>(costs.ns_per_value_byte * static_cast<double>(cmd.value.size()));
    } else if (cmd.op == KvOp::Scan) {
      cost += static_cast<Duration>(cmd.scan_len) * costs.per_scan_entry;
    }
  } catch (const CodecError&) {
  }
  return cost;
}

std::vector<std::byte> reference_snapshot(const std::map<std::string, std::string>& data) {
  ByteWriter w;
  w.varint(data.size());
  for (const auto& [key, value] : data) {
    w.str(key);
    w.str(value);
  }
  return w.take();
}

TEST(KvStore, InPlaceExecutionMatchesTheDecodedReference) {
  // Every op, malformed commands included, on a small key space: Puts
  // overwrite with longer and shorter values while a checkpoint is
  // tracked, and every handle must still read as of its checkpoint.
  Rng rng(23, 5);
  auto random_key = [&] { return "k" + std::to_string(rng.uniform_int(0, 30)); };
  auto random_value = [&] {
    const auto len = rng.uniform_int(0, 3) == 0 ? rng.uniform_int(120, 135) : rng.uniform_int(0, 20);
    return std::string(static_cast<std::size_t>(len), static_cast<char>('a' + rng.uniform_int(0, 25)));
  };
  KvStore store;
  std::map<std::string, std::string> reference;
  std::vector<HeldCheckpoint> held;
  for (int step = 0; step < 6000; ++step) {
    KvCommand cmd;
    cmd.op = static_cast<KvOp>(rng.uniform_int(1, 4));
    cmd.key = random_key();
    if (cmd.op == KvOp::Put) cmd.value = random_value();
    if (cmd.op == KvOp::Scan) cmd.scan_len = static_cast<std::uint32_t>(rng.uniform_int(0, 40));
    std::vector<std::byte> command = cmd.encode();
    switch (rng.uniform_int(0, 19)) {
      case 0:  // truncated anywhere, down to empty
        command.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(command.size()) - 1)));
        break;
      case 1:  // unknown op byte
        command[0] = static_cast<std::byte>(rng.bernoulli(0.5) ? 0 : rng.uniform_int(5, 255));
        break;
      case 2:  // trailing garbage is ignored, as by the decoder
        command.push_back(std::byte{0x7F});
        break;
      default:
        break;
    }
    if (rng.uniform_int(0, 99) == 0) held.push_back(freeze(store));
    ASSERT_EQ(store.execute(command), reference_execute(reference, command)) << "step " << step;
    ASSERT_EQ(store.execution_cost(command), reference_cost(KvStore::Costs{}, command));
  }
  EXPECT_EQ(store.snapshot(), reference_snapshot(reference));
  ASSERT_FALSE(held.empty());
  for (const auto& h : held) EXPECT_EQ(h.frozen->bytes(), h.expected);
}

TEST(KvStore, ExecutionCostMatchesTheDecodedCommand) {
  const KvStore::Costs costs;
  KvStore store(costs);
  KvCommand put;
  put.op = KvOp::Put;
  put.key = "key";
  put.value = std::string(300, 'v');
  EXPECT_EQ(store.execution_cost(put.encode()),
            costs.base + static_cast<Duration>(costs.ns_per_value_byte * 300));
  KvCommand scan;
  scan.op = KvOp::Scan;
  scan.key = "a";
  scan.scan_len = 7;
  EXPECT_EQ(store.execution_cost(scan.encode()), costs.base + 7 * costs.per_scan_entry);
  auto truncated = put.encode();
  truncated.resize(truncated.size() - 1);  // Put whose value is cut short
  EXPECT_EQ(store.execution_cost(truncated), costs.base);
  EXPECT_EQ(store.execution_cost({}), costs.base);
}

TEST(KvStoreCheckpoint, RecordCountVarintBoundary) {
  KvStore store;
  for (int i = 0; i < 127; ++i) store.put("key" + std::to_string(i), "v");
  HeldCheckpoint at127 = freeze(store);
  store.put("key127", "v");  // count varint grows to two bytes
  EXPECT_EQ(store.size(), 128u);
  EXPECT_EQ(store.snapshot_size(), store.snapshot().size());
  HeldCheckpoint at128 = freeze(store);  // materializes at127 first
  store.execute(delete_command("key5"));  // and back to one byte
  EXPECT_EQ(store.snapshot_size(), store.snapshot().size());
  EXPECT_EQ(at127.frozen->bytes(), at127.expected);
  EXPECT_EQ(at128.frozen->bytes(), at128.expected);
  // One more count byte plus the record: str("key127") = 7, str("v") = 2.
  EXPECT_EQ(at128.frozen->size(), at127.frozen->size() + 1 + 7 + 2);
}

TEST(KvStoreCheckpoint, KeyAndValueLengthVarintBoundary) {
  KvStore store;
  const std::string key127(127, 'k');
  const std::string key128(128, 'k');
  store.put(key127, std::string(127, 'a'));
  HeldCheckpoint held = freeze(store);
  store.put(key127, std::string(128, 'b'));  // value length varint 1 -> 2 bytes
  store.put(key128, std::string(127, 'c'));  // new key, two-byte key length
  EXPECT_EQ(store.snapshot_size(), store.snapshot().size());
  store.put(key128, std::string(1, 'd'));
  store.execute(delete_command(key127));
  EXPECT_EQ(store.snapshot_size(), store.snapshot().size());
  EXPECT_EQ(held.frozen->bytes(), held.expected);
}

TEST(KvStoreCheckpoint, HandleSurvivesNewerCheckpointRestoreAndStoreDestruction) {
  auto store = std::make_unique<KvStore>();
  for (int i = 0; i < 50; ++i) store->put("k" + std::to_string(i), "v" + std::to_string(i));

  HeldCheckpoint first = freeze(*store);
  store->put("k1", "changed");
  HeldCheckpoint second = freeze(*store);  // newer checkpoint while first is held
  store->execute(delete_command("k2"));
  store->put("k1", "again");

  HeldCheckpoint third = freeze(*store);
  store->put("k3", "before-restore");
  KvStore other;
  other.put("only", "key");
  store->restore(other.snapshot());  // restore while third is tracked
  EXPECT_EQ(store->snapshot_size(), store->snapshot().size());

  HeldCheckpoint fourth = freeze(*store);
  store->put("late", "write");
  store.reset();  // the store dies while fourth is tracked

  EXPECT_EQ(first.frozen->bytes(), first.expected);
  EXPECT_EQ(second.frozen->bytes(), second.expected);
  EXPECT_EQ(third.frozen->bytes(), third.expected);
  EXPECT_EQ(fourth.frozen->bytes(), fourth.expected);
  EXPECT_NE(first.expected, second.expected);
}

TEST(KvStoreCheckpoint, DroppedHandleStopsTracking) {
  KvStore store;
  store.put("a", "1");
  store.checkpoint().reset();
  store.put("a", "2");  // no handle alive: nothing to remember
  HeldCheckpoint held = freeze(store);
  EXPECT_EQ(held.frozen->bytes(), held.expected);
  EXPECT_EQ(store.get("a"), "2");
}

TEST(KvStore, RestoreKeepsFirstOfDuplicateKeys) {
  // Malformed but decodable snapshot: the duplicate is dropped, and the
  // tracked size must count only what was kept.
  ByteWriter w;
  w.varint(3);
  for (const char* kv : {"a", "a", "b"}) {
    w.str(kv);
    w.str(std::string(130, 'x'));
  }
  KvStore store;
  store.restore(w.take());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.snapshot_size(), store.snapshot().size());
}

TEST(CounterServiceCheckpoint, EagerDefaultIsFrozen) {
  CounterService counters;
  auto add = [](std::string name, std::int64_t delta) {
    CounterCommand cmd;
    cmd.op = CounterOp::Add;
    cmd.name = std::move(name);
    cmd.delta = delta;
    return cmd.encode();
  };
  counters.execute(add("x", 5));
  const auto expected = counters.snapshot();
  auto frozen = counters.checkpoint();
  counters.execute(add("x", 7));
  counters.execute(add("y", 1));
  EXPECT_EQ(frozen->size(), expected.size());
  EXPECT_EQ(frozen->bytes(), expected);
  EXPECT_NE(counters.snapshot(), expected);
}

// ---------------------------------------------------------------------------
// Zipfian generator
// ---------------------------------------------------------------------------

TEST(Zipfian, ValuesInRange) {
  Rng rng(1, 1);
  ZipfianGenerator zipf(1000);
  for (int i = 0; i < 10'000; ++i) {
    auto v = zipf.next(rng);
    EXPECT_LT(v, 1000u);
  }
}

TEST(Zipfian, SkewedTowardsLowRanks) {
  Rng rng(2, 2);
  ZipfianGenerator zipf(10'000, 0.99);
  std::map<std::uint64_t, int> counts;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[zipf.next(rng)];
  // Rank 0 should receive far more than uniform share (10/100k).
  EXPECT_GT(counts[0], n / 100);
  // Roughly monotone: rank 0 >> rank 100.
  EXPECT_GT(counts[0], counts[100] * 2);
}

TEST(Zipfian, SingleItemAlwaysZero) {
  Rng rng(3, 3);
  ZipfianGenerator zipf(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(zipf.next(rng), 0u);
}

// ---------------------------------------------------------------------------
// YCSB workload
// ---------------------------------------------------------------------------

TEST(Ycsb, UpdateHeavyMix) {
  Rng rng(4, 4);
  YcsbConfig cfg = YcsbConfig::update_heavy();
  cfg.record_count = 100;
  YcsbWorkload workload(cfg, rng);
  int reads = 0, updates = 0;
  const int n = 10'000;
  for (int i = 0; i < n; ++i) {
    KvCommand cmd = workload.next_operation();
    if (cmd.op == KvOp::Get) ++reads;
    if (cmd.op == KvOp::Put) ++updates;
  }
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.5, 0.03);
  EXPECT_NEAR(static_cast<double>(updates) / n, 0.5, 0.03);
}

TEST(Ycsb, LoadPhaseCoversAllRecords) {
  Rng rng(5, 5);
  YcsbConfig cfg;
  cfg.record_count = 200;
  YcsbWorkload workload(cfg, rng);
  auto load = workload.load_phase();
  EXPECT_EQ(load.size(), 200u);
  KvStore store;
  for (const auto& cmd : load) store.put(cmd.key, cmd.value);
  // Keys may collide only if the scrambling maps two records together;
  // allow a tiny number of collisions.
  EXPECT_GE(store.size(), 195u);
}

TEST(Ycsb, RunPhaseKeysExistAfterLoad) {
  Rng rng(6, 6);
  YcsbConfig cfg;
  cfg.record_count = 100;
  YcsbWorkload workload(cfg, rng);
  KvStore store;
  for (const auto& cmd : workload.load_phase()) store.put(cmd.key, cmd.value);
  for (int i = 0; i < 1000; ++i) {
    KvCommand cmd = workload.next_operation();
    if (cmd.op == KvOp::Get) {
      EXPECT_TRUE(store.get(cmd.key).has_value()) << cmd.key;
    }
  }
}

TEST(Ycsb, ValueSizeRespected) {
  Rng rng(7, 7);
  YcsbConfig cfg;
  cfg.value_size = 321;
  cfg.read_proportion = 0;
  cfg.update_proportion = 1;
  YcsbWorkload workload(cfg, rng);
  KvCommand cmd = workload.next_operation();
  EXPECT_EQ(cmd.value.size(), 321u);
}

TEST(Ycsb, UniformDistributionOption) {
  Rng rng(8, 8);
  YcsbConfig cfg;
  cfg.distribution = KeyDistribution::Uniform;
  cfg.record_count = 10;
  cfg.read_proportion = 1;
  cfg.update_proportion = 0;
  YcsbWorkload workload(cfg, rng);
  std::map<std::string, int> counts;
  for (int i = 0; i < 10'000; ++i) ++counts[workload.next_operation().key];
  EXPECT_EQ(counts.size(), 10u);
  for (const auto& [key, count] : counts) {
    EXPECT_NEAR(count, 1000, 200) << key;
  }
}


TEST(Ycsb, WorkloadPresetMixes) {
  struct Case {
    YcsbConfig config;
    double read, update, insert, scan;
  };
  const Case cases[] = {
      {YcsbConfig::update_heavy(), 0.5, 0.5, 0.0, 0.0},
      {YcsbConfig::read_heavy(), 0.95, 0.05, 0.0, 0.0},
      {YcsbConfig::read_only(), 1.0, 0.0, 0.0, 0.0},
      {YcsbConfig::read_latest(), 0.95, 0.0, 0.05, 0.0},
      {YcsbConfig::scan_heavy(), 0.0, 0.0, 0.05, 0.95},
  };
  int case_index = 0;
  for (const Case& c : cases) {
    Rng rng(100 + case_index, 1);
    YcsbConfig config = c.config;
    config.record_count = 100;
    YcsbWorkload workload(config, rng);
    int reads = 0, writes = 0, scans = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
      KvCommand cmd = workload.next_operation();
      if (cmd.op == KvOp::Get) ++reads;
      if (cmd.op == KvOp::Put) ++writes;
      if (cmd.op == KvOp::Scan) ++scans;
    }
    EXPECT_NEAR(double(reads) / n, c.read, 0.03) << "case " << case_index;
    EXPECT_NEAR(double(writes) / n, c.update + c.insert, 0.03) << "case " << case_index;
    EXPECT_NEAR(double(scans) / n, c.scan, 0.03) << "case " << case_index;
    ++case_index;
  }
}

TEST(Ycsb, LatestDistributionSkewsToRecentRecords) {
  // With a fixed anchor (no inserts), "latest" concentrates reads on the
  // records with the highest indices; uniform would give each key ~0.1%.
  Rng rng(55, 2);
  YcsbConfig config = YcsbConfig::read_latest();
  config.insert_proportion = 0.0;
  config.read_proportion = 1.0;
  config.record_count = 1000;
  YcsbWorkload workload(config, rng);
  std::map<std::string, int> reads;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++reads[workload.next_operation().key];

  // The newest record (index 999) must be the single hottest key.
  int newest = reads[workload.key_for(999)];
  EXPECT_GT(double(newest) / n, 0.05);
  // Top-10 newest records take a large share (zipf over recency rank).
  int top10 = 0;
  for (int i = 0; i < 10; ++i) top10 += reads[workload.key_for(999 - i)];
  EXPECT_GT(double(top10) / n, 0.2);
}

}  // namespace
}  // namespace idem::app
