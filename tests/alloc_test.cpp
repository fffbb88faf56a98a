// Proves the allocation budget (DESIGN.md "Kernel performance model"):
// once warm, the kernel's steady-state dispatch path — EventQueue push ->
// pop -> fire, Simulator::step, Node timer set/cancel, and network message
// delivery with a reused payload — performs zero heap allocations. Above
// the kernel, sizing a message and costing a KV command allocate nothing,
// encoding a message or a KV result allocates its one buffer, and a warm
// IDEM cluster stays within a pinned number of allocations per operation.
//
// A counting global operator new/delete pair is armed only inside the
// measured regions; everything else (gtest bookkeeping, warm-up capacity
// growth) allocates freely.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>
#include <memory>
#include <new>

#include "app/kv_store.hpp"
#include "app/ycsb.hpp"
#include "consensus/messages.hpp"
#include "harness/cluster.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "rpc/framing.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void note_allocation() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  note_allocation();
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  note_allocation();
  void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                               (size + static_cast<std::size_t>(align) - 1) &
                                   ~(static_cast<std::size_t>(align) - 1));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace idem::sim {
namespace {

struct CountingGuard {
  CountingGuard() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingGuard() { g_counting.store(false, std::memory_order_relaxed); }
  std::uint64_t count() const { return g_allocations.load(std::memory_order_relaxed); }
};

// A capture the size of the kernel's real lambdas (liveness token + payload
// pointer + ids) — must be dispatched without touching the heap.
struct FatCapture {
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5;
};

TEST(AllocationBudget, EventQueueDispatchIsAllocationFree) {
  EventQueue q;
  std::uint64_t sink = 0;
  // Warm-up: grow heap/slot capacity past anything the loop needs.
  for (int i = 0; i < 4096; ++i) q.push(i, [&sink, cap = FatCapture{}] { sink += cap.a; });
  while (!q.empty()) q.pop().fn();

  CountingGuard guard;
  Time now = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 100; ++i) {
      q.push(now + i, [&sink, cap = FatCapture{}] { sink += cap.b; });
    }
    while (!q.empty()) {
      auto ev = q.pop();
      now = ev.at;
      ev.fn();
    }
  }
  EXPECT_EQ(guard.count(), 0u) << "push->pop->fire must not allocate once warm";
  EXPECT_GT(sink, 0u);
}

TEST(AllocationBudget, TimerSetCancelIsAllocationFree) {
  Simulator sim(3);
  NetworkConfig cfg;
  SimNetwork net(sim, cfg);

  class TimerNode final : public Node {
   public:
    TimerNode(Simulator& sim, SimNetwork& net) : Node(sim, net, NodeId{1}, NodeKind::Replica) {}
    using Node::cancel_timer;
    using Node::set_timer;

   protected:
    void on_message(NodeId, const Payload&) override {}
  };

  TimerNode node(sim, net);
  std::uint64_t fired = 0;
  // Warm-up: grow queue capacity.
  for (int i = 0; i < 2048; ++i) {
    TimerId t = node.set_timer(kMillisecond, [&fired] { ++fired; });
    node.cancel_timer(t);
  }

  CountingGuard guard;
  for (int i = 0; i < 10'000; ++i) {
    TimerId t = node.set_timer(kMillisecond, [&fired] { ++fired; });
    node.cancel_timer(t);
  }
  EXPECT_EQ(guard.count(), 0u) << "Node timer arm/cancel must not allocate";
}

TEST(AllocationBudget, SimulatorStepIsAllocationFree) {
  Simulator sim(4);
  std::uint64_t ticks = 0;
  // Self-rescheduling event: exactly the steady-state dispatch pattern.
  struct Ticker {
    Simulator* sim;
    std::uint64_t* ticks;
    void operator()() {
      ++*ticks;
      if (*ticks < 20'000) sim->schedule_after(10, Ticker{sim, ticks});
    }
  };
  sim.schedule_after(10, Ticker{&sim, &ticks});
  sim.run_until(15 * 10);  // warm up storage
  ASSERT_GT(ticks, 0u);

  CountingGuard guard;
  sim.run_until(kSecond);
  EXPECT_EQ(guard.count(), 0u) << "Simulator::step dispatch must not allocate";
  EXPECT_EQ(ticks, 20'000u);
}

TEST(AllocationBudget, NetworkDeliveryWithReusedPayloadIsAllocationFree) {
  Simulator sim(5);
  NetworkConfig cfg;
  cfg.jitter_mean = 0;  // exponential() draw allocates nothing either way
  SimNetwork net(sim, cfg);

  struct FixedPayload final : Payload {
    std::size_t wire_size() const override { return 64; }
    std::string kind() const override { return "FIXED"; }
  };

  class EchoNode final : public Node {
   public:
    EchoNode(Simulator& sim, SimNetwork& net, NodeId id)
        : Node(sim, net, id, NodeKind::Replica) {}
    using Node::send;
    std::uint64_t received = 0;

   protected:
    void on_message(NodeId, const Payload&) override { ++received; }
  };

  EchoNode a(sim, net, NodeId{1});
  EchoNode b(sim, net, NodeId{2});
  PayloadPtr payload = std::make_shared<FixedPayload>();

  // Warm-up: grow the service ring and event storage.
  for (int i = 0; i < 512; ++i) a.send(NodeId{2}, payload);
  sim.run_until(kSecond);
  ASSERT_EQ(b.received, 512u);

  CountingGuard guard;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 64; ++i) a.send(NodeId{2}, payload);
    sim.run_for(kSecond);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "send -> schedule -> deliver -> service-queue -> handler must not allocate";
  EXPECT_EQ(b.received, 512u + 50u * 64u);
}

TEST(AllocationBudget, ObsHotPathIsAllocationFree) {
  // Trace recording, counter increments, and a reserved metrics sample are
  // the only obs operations that run inside the simulation; all memory is
  // acquired up front (ring at construction, samples via reserve_samples).
  obs::TraceRecorder recorder(1u << 12);
  obs::MetricsRegistry registry;
  std::uint64_t* accepted = registry.add_counter("accepted");
  double queue = 0;
  registry.add_gauge("queue", [&queue] { return queue; });
  registry.reserve_samples(512);

  CountingGuard guard;
  RequestId id{ClientId{3}, OpNum{1}};
  for (int round = 0; round < 512; ++round) {
    for (int i = 0; i < 16; ++i) {
      recorder.record(round * 16 + i, obs::TraceEventKind::AcceptVerdict, /*node=*/0, id,
                      /*arg=*/1);
      *accepted += 1;
      queue += 1;
    }
    registry.sample(static_cast<Time>(round) * kMillisecond);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "trace record + counter bump + reserved sample must not allocate";
  EXPECT_GT(recorder.overwritten(), 0u);  // the ring wrapped and kept going
  EXPECT_EQ(registry.rows(), 512u);
  EXPECT_EQ(registry.current("accepted"), 8192.0);
}

TEST(AllocationBudget, FramingAMessageIsOneAllocation) {
  // The transport's send path: a message encodes straight into its frame
  // buffer behind the reserved header. With the wire size cached (every
  // send path asks for it first) that buffer is exactly sized — one
  // allocation per frame, no intermediate payload vector.
  const msg::Request request(RequestId{ClientId{7}, OpNum{3}},
                             std::vector<std::byte>(300, std::byte{0x5A}));
  msg::Propose propose;
  propose.view = ViewId{1};
  propose.sqn = SeqNum{2};
  propose.ids.assign(40, RequestId{ClientId{9}, OpNum{1}});
  const std::size_t request_size = request.wire_size();
  const std::size_t propose_size = propose.wire_size();

  std::vector<std::byte> request_frame, propose_frame;
  {
    CountingGuard guard;
    request_frame = rpc::frame_message(request, 1'000'007, 0, 0);
    EXPECT_EQ(guard.count(), 1u) << "REQUEST frame";
  }
  {
    CountingGuard guard;
    propose_frame = rpc::frame_message(propose, 0, 9100, 1);
    EXPECT_EQ(guard.count(), 1u) << "PROPOSE frame";
  }
  EXPECT_EQ(request_frame.size(), rpc::kFrameHeaderBytes + request_size);
  EXPECT_EQ(propose_frame.size(), rpc::kFrameHeaderBytes + propose_size);
}

TEST(AllocationBudget, WireSizeIsAllocationFree) {
  // The simulator sizes every message it sends and every message a replica
  // handles; real mode sizes every delivered message for the cost model.
  // Sizing runs the encoder through a counting writer and stores nothing.
  std::vector<std::shared_ptr<const msg::Message>> messages;
  messages.push_back(std::make_shared<msg::Request>(
      RequestId{ClientId{7}, OpNum{300}}, std::vector<std::byte>(300, std::byte{0x5A})));
  auto propose = std::make_shared<msg::Propose>();
  propose->view = ViewId{1};
  propose->sqn = SeqNum{200};
  propose->ids.assign(40, RequestId{ClientId{9}, OpNum{1}});
  messages.push_back(propose);
  auto forward = std::make_shared<msg::Forward>();
  forward->requests.emplace_back(RequestId{ClientId{1}, OpNum{2}},
                                 std::vector<std::byte>(150, std::byte{1}));
  forward->requests.emplace_back(RequestId{ClientId{3}, OpNum{4}},
                                 std::vector<std::byte>(20, std::byte{2}));
  messages.push_back(forward);
  auto state = std::make_shared<msg::StateResponse>();
  state->snapshot.assign(4096, std::byte{3});
  state->last_executed.assign(100, {ClientId{5}, OpNum{6}});
  messages.push_back(state);
  messages.push_back(std::make_shared<msg::Reject>(RequestId{ClientId{8}, OpNum{9}}));

  std::size_t total = 0;
  {
    CountingGuard guard;
    for (const auto& m : messages) total += m->wire_size();
    EXPECT_EQ(guard.count(), 0u) << "wire_size() must not serialize into a buffer";
  }
  std::size_t encoded = 0;
  for (const auto& m : messages) encoded += m->encode().size();
  EXPECT_EQ(total, encoded);
}

/// A store preloaded with `records` keys of 100-byte values.
std::unique_ptr<app::KvStore> preloaded_store(int records) {
  auto store = std::make_unique<app::KvStore>();
  for (int i = 0; i < records; ++i) store->put("user" + std::to_string(i), std::string(100, 'v'));
  return store;
}

std::vector<std::byte> kv_command(app::KvOp op, std::string key, std::string value = {}) {
  app::KvCommand cmd;
  cmd.op = op;
  cmd.key = std::move(key);
  cmd.value = std::move(value);
  cmd.scan_len = op == app::KvOp::Scan ? 5 : 0;
  return cmd.encode();
}

TEST(AllocationBudget, KvGetHitAllocatesOnlyItsResult) {
  auto store = preloaded_store(64);
  const auto get = kv_command(app::KvOp::Get, "user17");
  std::vector<std::byte> result;
  {
    CountingGuard guard;
    result = store->execute(get);
    EXPECT_EQ(guard.count(), 1u) << "a Get hit encodes straight into one result buffer";
  }
  const auto decoded = app::KvResult::decode(result);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.values, std::vector<std::string>{std::string(100, 'v')});
}

TEST(AllocationBudget, KvOverwriteAllocatesOnlyItsResult) {
  // No checkpoint tracked: the new value is assigned into the live string,
  // whose capacity already fits it.
  auto store = preloaded_store(64);
  const auto put = kv_command(app::KvOp::Put, "user23", std::string(100, 'w'));
  std::vector<std::byte> result;
  {
    CountingGuard guard;
    result = store->execute(put);
    EXPECT_EQ(guard.count(), 1u) << "an overwrite Put allocates only its result";
  }
  EXPECT_TRUE(app::KvResult::decode(result).ok());
  EXPECT_EQ(store->get("user23"), std::string(100, 'w'));
}

TEST(AllocationBudget, KvExecutionCostIsAllocationFree) {
  auto store = preloaded_store(64);
  const std::vector<std::vector<std::byte>> commands = {
      kv_command(app::KvOp::Get, "user1"),
      kv_command(app::KvOp::Put, "user2", std::string(300, 'x')),
      kv_command(app::KvOp::Delete, "user3"),
      kv_command(app::KvOp::Scan, "user4"),
  };
  Duration total = 0;
  {
    CountingGuard guard;
    for (const auto& command : commands) total += store->execution_cost(command);
    EXPECT_EQ(guard.count(), 0u) << "costing a command parses it in place";
  }
  EXPECT_GT(total, 0);
}

/// Closed-loop load: every client re-issues as soon as its operation
/// concludes, cycling through pre-encoded YCSB commands. The callbacks
/// capture only (this, index), so the loop itself allocates nothing but
/// each request's command copy.
struct ClosedLoop {
  harness::Cluster& cluster;
  std::vector<std::vector<std::byte>> commands;
  std::uint64_t next = 0;
  std::uint64_t replies = 0;
  std::uint64_t others = 0;

  void issue(std::size_t index) {
    cluster.client(index).invoke(commands[next++ % commands.size()],
                                 [this, index](const consensus::Outcome& outcome) {
                                   ++(outcome.kind == consensus::Outcome::Kind::Reply ? replies
                                                                                      : others);
                                   cluster.simulator().schedule_after(
                                       0, [this, index] { issue(index); });
                                 });
  }
};

// Allocations per concluded operation of a warm 3-replica IDEM cluster in
// the simulator, clients included: 20 closed-loop YCSB-A clients (below
// saturation, so every operation is replied). The count is deterministic
// for the seed; the pin is the measured value plus 10 % (EXPERIMENTS.md,
// "Allocation-lean operation path").
TEST(AllocationBudget, IdemOperationBudget) {
  constexpr double kMeasuredPerOp = 38.2;
  harness::ClusterConfig config;
  config.clients = 20;
  config.seed = 11;
  harness::Cluster cluster(config);
  Simulator& sim = cluster.simulator();

  ClosedLoop loop{cluster, {}};
  app::YcsbWorkload workload(config.workload, sim.rng("alloc.budget.ops"));
  for (int i = 0; i < 4096; ++i) loop.commands.push_back(workload.next_operation().encode());
  for (std::size_t i = 0; i < cluster.num_clients(); ++i) loop.issue(i);

  sim.run_for(kSecond);  // warm: tables, rings and the store reach steady size
  const std::uint64_t warm_replies = loop.replies;
  std::uint64_t allocations = 0;
  {
    CountingGuard guard;
    sim.run_for(kSecond);
    allocations = guard.count();
  }
  const std::uint64_t concluded = loop.replies - warm_replies;
  ASSERT_GT(concluded, 10'000u);
  EXPECT_EQ(loop.others, 0u) << "the load stays below saturation";
  const double per_op = static_cast<double>(allocations) / static_cast<double>(concluded);
  RecordProperty("allocations_per_op", std::to_string(per_op));
  EXPECT_LE(per_op, kMeasuredPerOp * 1.1)
      << allocations << " allocations over " << concluded << " operations";
}

}  // namespace
}  // namespace idem::sim
