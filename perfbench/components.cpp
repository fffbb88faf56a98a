// Component timings: each layer's public functions called on inputs drawn
// from the workload's own configuration and seed (its YCSB op stream, its
// client count, acceptance contexts at its reject threshold).
//
// Each component runs in repeated batches over a pre-generated input set;
// the reported value is the median batch's nanoseconds per call.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "app/ycsb.hpp"
#include "bench.hpp"
#include "consensus/messages.hpp"
#include "core/acceptance.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

namespace {

using namespace idem;

constexpr std::size_t kInputs = 4096;
constexpr int kBatches = 9;

/// Keeps results observable so the timed calls cannot be elided.
volatile std::uint64_t g_sink = 0;

/// Median ns per call of `body(i)` over kBatches batches, each repeating
/// the kInputs-long input set `rounds` times.
template <typename Body>
double time_ns(double budget_s, Body&& body) {
  // Calibrate: one pass decides how many passes fit a batch's budget.
  const double t0 = wall_seconds();
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < kInputs; ++i) sink += body(i);
  const double pass = std::max(wall_seconds() - t0, 1e-7);
  const int rounds = std::max(1, static_cast<int>(budget_s / kBatches / pass));
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const double start = wall_seconds();
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < kInputs; ++i) sink += body(i);
    }
    per_call.push_back((wall_seconds() - start) * 1e9 /
                       (static_cast<double>(rounds) * static_cast<double>(kInputs)));
  }
  g_sink = g_sink + sink;
  return median(per_call);
}

RequestId request_id(Rng& rng, std::size_t clients, std::uint64_t onr) {
  return RequestId{ClientId{static_cast<std::uint64_t>(rng.uniform_int(
                       1, static_cast<std::int64_t>(clients)))},
                   OpNum{onr}};
}

}  // namespace

void report_components(Report& report, const ComponentInputs& in) {
  // The budget is split evenly over the 16 timed components below.
  const double budget = in.budget_seconds / 16.0;
  Rng rng(in.seed, 0xBE7C);

  app::YcsbConfig ycsb = app::YcsbConfig::update_heavy();
  ycsb.record_count = in.record_count;
  app::YcsbWorkload workload(ycsb, rng);
  app::KvStore store(app::KvStore::Costs{0, 0.0, 0});
  for (const app::KvCommand& command : workload.load_phase()) store.execute(command.encode());

  std::vector<std::vector<std::byte>> commands;
  for (std::size_t i = 0; i < kInputs; ++i) commands.push_back(workload.next_operation().encode());

  // -- consensus codec: the five message kinds on the request path --------
  // Propose/Commit batch as many ids as the workload can have admitted at
  // once: min(clients, r).
  const std::size_t batch = std::min(in.clients, in.reject_threshold);
  std::vector<std::unique_ptr<msg::Message>> messages[5];
  const char* kinds[5] = {"request", "reject", "propose", "commit", "reply"};
  for (std::size_t i = 0; i < kInputs; ++i) {
    const RequestId id = request_id(rng, in.clients, i + 1);
    messages[0].push_back(std::make_unique<msg::Request>(id, commands[i]));
    messages[1].push_back(std::make_unique<msg::Reject>(id, RejectReason::RtQueueFull));
    auto propose = std::make_unique<msg::Propose>();
    propose->view = ViewId{0};
    propose->sqn = SeqNum{i + 1};
    for (std::size_t k = 0; k < batch; ++k) {
      propose->ids.push_back(request_id(rng, in.clients, i * batch + k + 1));
    }
    auto commit = std::make_unique<msg::Commit>();
    commit->from = ReplicaId{1};
    commit->view = propose->view;
    commit->sqn = propose->sqn;
    commit->ids = propose->ids;
    messages[2].push_back(std::move(propose));
    messages[3].push_back(std::move(commit));
    messages[4].push_back(std::make_unique<msg::Reply>(id, store.execute(commands[i])));
  }
  for (int k = 0; k < 5; ++k) {
    const auto& set = messages[k];
    std::vector<std::vector<std::byte>> wire;
    for (const auto& m : set) wire.push_back(m->encode());
    report.metric(std::string("consensus.encode_ns.") + kinds[k],
                  time_ns(budget, [&set](std::size_t i) { return set[i]->encode().size(); }),
                  "ns");
    report.metric(std::string("consensus.decode_ns.") + kinds[k],
                  time_ns(budget,
                          [&wire](std::size_t i) {
                            return static_cast<std::uint64_t>(
                                static_cast<std::uint8_t>(msg::decode(wire[i])->type()));
                          }),
                  "ns");
  }

  // -- core acceptance tests at the workload's r --------------------------
  std::vector<RequestId> ids;
  std::vector<core::AcceptanceContext> contexts;
  for (std::size_t i = 0; i < kInputs; ++i) {
    ids.push_back(request_id(rng, in.clients, i + 1));
    core::AcceptanceContext ctx;
    ctx.active_requests =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(in.reject_threshold)));
    ctx.reject_threshold = in.reject_threshold;
    ctx.now = static_cast<Time>(i) * 20 * kMicrosecond;
    ctx.deadline = 8 * kMillisecond + rng.uniform_int(-4 * kMillisecond, 4 * kMillisecond);
    contexts.push_back(ctx);
  }
  core::AcceptanceOptions aqm_options;
  aqm_options.reject_threshold = in.reject_threshold;
  std::unique_ptr<core::AcceptanceTest> aqm =
      core::make_default_acceptance(aqm_options, in.clients);
  core::TailDrop taildrop;
  core::DeadlineAware::Params da_params;
  da_params.quantile = 0.95;
  da_params.safety_margin = 1 * kMillisecond;
  core::DeadlineAware deadline_aware(da_params);
  // Warm the estimator past its cold start with service gaps of ~20 us.
  for (std::size_t i = 0; i < 256; ++i) {
    deadline_aware.observe_execution(static_cast<Time>(i) * 20 * kMicrosecond, 1);
  }
  auto evaluate = [&](core::AcceptanceTest& test) {
    return time_ns(budget, [&](std::size_t i) {
      return static_cast<std::uint64_t>(test.evaluate(ids[i], commands[i], contexts[i]).accepted);
    });
  };
  report.metric("core.evaluate_ns.aqm", evaluate(*aqm), "ns");
  report.metric("core.evaluate_ns.taildrop", evaluate(taildrop), "ns");
  report.metric("core.evaluate_ns.deadline_aware", evaluate(deadline_aware), "ns");

  // -- app: KV execution of the YCSB stream ---------------------------------
  report.metric("app.kv_execute_ns",
                time_ns(budget, [&](std::size_t i) { return store.execute(commands[i]).size(); }),
                "ns");

  // -- sim: event-queue push + pop at the workload's event population -----
  // One pending event per client message in flight, re-armed after the
  // network model's delay (150 us + exponential 10 us jitter).
  std::vector<Duration> delays;
  for (std::size_t i = 0; i < kInputs; ++i) {
    delays.push_back(150 * kMicrosecond +
                     static_cast<Duration>(rng.exponential(10.0 * kMicrosecond)));
  }
  sim::EventQueue queue;
  for (std::size_t i = 0; i < in.clients * 4; ++i) queue.push(delays[i % kInputs], [] {});
  report.metric("sim.queue_push_pop_ns", time_ns(budget, [&](std::size_t i) {
                  sim::EventQueue::Popped ev = queue.pop();
                  queue.push(ev.at + delays[i], [] {});
                  return static_cast<std::uint64_t>(ev.at);
                }),
                "ns");

  // -- obs: one trace-ring append ------------------------------------------
  obs::TraceRecorder recorder(1u << 16);
  report.metric("obs.trace_record_ns", time_ns(budget, [&](std::size_t i) {
                  recorder.record(contexts[i].now, obs::TraceEventKind::AcceptVerdict, 0, ids[i],
                                  1);
                  return recorder.total_recorded();
                }),
                "ns");
}

}  // namespace perfbench
