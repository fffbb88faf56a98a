// Real-mode workloads: a 3-replica real::RealCluster over loopback TCP
// driven by real::run_load from the calling thread (3 loop threads + 1
// generator = 4 threads, one per vCPU of the reference host).
//
// Wall-clock goodput and latency swing several-fold between back-to-back
// runs on a shared host (CPU steal), while CPU time per concluded
// operation stays within a few percent, so the end-to-end metrics are
// CPU-based and the wall-clock numbers are reported per layer only.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "real/cluster.hpp"
#include "real/load.hpp"

namespace perfbench {

namespace {

using namespace idem;

struct RealSpec {
  std::size_t clients = 4;
  std::size_t reject_threshold = 50;
  Duration backoff_min = 50 * kMillisecond;
  Duration backoff_max = 100 * kMillisecond;
};

// real-accept: r = 50 never binds with 4 clients, so every request is
// admitted and the reject path stays idle.
// real-reject: r = 1 is 4x below the client count (Fig. 6's 200/50 ratio)
// and the 1-2 ms backoff keeps rejected clients coming back quickly, so
// acceptance, the rejected cache and FORWARD/FETCH carry the load.
RealSpec spec_for(const std::string& workload) {
  RealSpec spec;
  if (workload == "real-reject") {
    spec.reject_threshold = 1;
    spec.backoff_min = 1 * kMillisecond;
    spec.backoff_max = 2 * kMillisecond;
  }
  return spec;
}

real::RealClusterConfig cluster_config(const RealSpec& spec, std::uint64_t seed, bool trace) {
  real::RealClusterConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = spec.reject_threshold;
  config.seed = seed;
  config.expected_clients = spec.clients;
  config.preload = true;
  config.workload = app::YcsbConfig::update_heavy();
  config.workload.record_count = 1000;
  config.trace = trace;
  config.trace_capacity = 1u << 20;
  return config;
}

/// One cluster lifetime: build + start (timed as set-up), one closed-loop
/// load span, then counters and traces read before shutdown.
struct Cycle {
  double setup_s = 0;
  double wall_s = 0;
  double process_cpu_s = 0;
  double generator_cpu_s = 0;
  real::LoadStats load;
  std::vector<core::ReplicaStats> replicas;
  rpc::TransportStats transport;  ///< summed over replicas
  std::vector<obs::TraceEvent> trace;
  std::size_t full_rings = 0;
  std::size_t leader = 0;

  std::uint64_t concluded() const { return load.replies + load.rejects + load.timeouts; }
  double cpu_us_per_op() const {
    return concluded() > 0 ? process_cpu_s * 1e6 / static_cast<double>(concluded()) : 0;
  }
};

Cycle run_cycle(const RealSpec& spec, std::uint64_t seed, Duration span, bool trace) {
  Cycle cycle;
  const double t0 = wall_seconds();
  real::RealCluster cluster(cluster_config(spec, seed, trace));
  cluster.start();
  cycle.setup_s = wall_seconds() - t0;

  real::LoadOptions load;
  load.clients = spec.clients;
  load.duration = span;
  load.seed = seed;
  load.backoff_min = spec.backoff_min;
  load.backoff_max = spec.backoff_max;
  load.replicas = cluster.replica_addresses();
  load.client = cluster.client_config();
  load.workload = cluster.config().workload;
  load.trace = trace;
  load.trace_capacity = 1u << 20;
  load.epoch = cluster.epoch();

  const double cpu0 = process_cpu_seconds();
  const double thread0 = thread_cpu_seconds();
  const double wall0 = wall_seconds();
  cycle.load = real::run_load(load);
  cycle.wall_s = wall_seconds() - wall0;
  cycle.generator_cpu_s = thread_cpu_seconds() - thread0;
  cycle.process_cpu_s = process_cpu_seconds() - cpu0;

  for (std::size_t i = 0; i < cluster.n(); ++i) {
    cycle.replicas.push_back(cluster.replica_stats(i));
    const rpc::TransportStats t = cluster.transport_stats(i);
    cycle.transport.messages_sent += t.messages_sent;
    cycle.transport.bytes_sent += t.bytes_sent;
    cycle.transport.write_syscalls += t.write_syscalls;
    cycle.transport.decode_errors += t.decode_errors;
    cycle.transport.send_queue_overflows += t.send_queue_overflows;
  }
  cycle.leader = cluster.leader_index();
  if (trace) {
    std::vector<std::vector<obs::TraceEvent>> parts = cluster.trace_snapshots();
    parts.push_back(cycle.load.trace);
    for (const auto& part : parts) {
      if (part.size() >= load.trace_capacity) ++cycle.full_rings;
    }
    cycle.trace = obs::merge_trace_snapshots(std::move(parts));
  }
  cluster.shutdown();
  return cycle;
}

void check_cycle(Report& report, const Cycle& c, const RealSpec& spec, const std::string& tag) {
  const real::LoadStats& s = c.load;
  report.check(tag + "malformed_replies_zero", s.malformed == 0,
               std::to_string(s.malformed) + " malformed");
  report.check(tag + "decode_errors_zero", c.transport.decode_errors == 0,
               std::to_string(c.transport.decode_errors) + " decode errors");
  report.check(tag + "send_queue_overflows_zero", c.transport.send_queue_overflows == 0,
               std::to_string(c.transport.send_queue_overflows) + " overflows");
  // Each client has at most one operation in flight when the span ends;
  // every other issued operation concluded as exactly one of the three.
  const std::uint64_t concluded = c.concluded();
  report.check(tag + "outcomes_account_for_operations",
               concluded <= s.issued && s.issued - concluded <= spec.clients,
               std::to_string(s.issued) + " issued, " + std::to_string(s.replies) +
                   " replies + " + std::to_string(s.rejects) + " rejects + " +
                   std::to_string(s.timeouts) + " timeouts");
  report.check(tag + "replies_served", s.replies > 0, std::to_string(s.replies) + " replies");
  std::uint64_t executed = 0;
  for (const core::ReplicaStats& r : c.replicas) executed = std::max(executed, r.executed);
  report.check(tag + "replies_were_executed", executed >= s.replies,
               std::to_string(executed) + " executed >= " + std::to_string(s.replies));
  report.check(tag + "leader_present", c.leader < c.replicas.size());
}

}  // namespace

Report run_real(const Args& args) {
  const RealSpec spec = spec_for(args.workload);
  Report report;

  if (!args.trace) {
    // Several short cluster lifetimes, each in its own process; a lifetime
    // yields one CPU-per-operation sample and, with extra build/start/tear
    // down rounds, one set-up sample.
    const int cycles = args.seconds >= 6 ? 8 : 2;
    const Duration span = static_cast<Duration>(args.seconds * 0.85 / cycles * kSecond);
    return end_to_end(cycles, 1, [&](int i) {
      const std::uint64_t seed = args.seed * 1000 + static_cast<std::uint64_t>(i);
      const Cycle c = run_cycle(spec, seed, span, false);
      Report sample;
      check_cycle(sample, c, spec, "");
      std::vector<double> setups = {c.setup_s};
      for (int k = 0; k < 3; ++k) {
        const double t0 = wall_seconds();
        real::RealCluster cluster(cluster_config(spec, seed + 100 * (k + 1), false));
        cluster.start();
        setups.push_back(wall_seconds() - t0);
      }
      sample.metric("setup_s", median(setups), "s");
      sample.metric("cpu_us_per_op", c.cpu_us_per_op(), "us");
      sample.metric("replies", static_cast<double>(c.load.replies), "count");
      sample.metric("concluded", static_cast<double>(c.concluded()), "count");
      sample.attempted = c.concluded();
      sample.failed = c.load.malformed + c.load.timeouts;
      return sample;
    });
  }

  // Per-layer: an untraced and a traced lifetime of equal span and seed,
  // then component timings on this workload's inputs. The span is capped
  // so the trace rings hold the whole traced run.
  const Duration span = static_cast<Duration>(std::min(args.seconds * 0.4, 4.0) * kSecond);
  const Cycle plain = run_cycle(spec, args.seed * 1000, span, false);
  const Cycle traced = run_cycle(spec, args.seed * 1000, span, true);
  check_cycle(report, plain, spec, "untraced.");
  check_cycle(report, traced, spec, "traced.");
  report.attempted = plain.concluded() + traced.concluded();
  report.failed = plain.load.malformed + plain.load.timeouts + traced.load.malformed +
                  traced.load.timeouts;

  const double ops = static_cast<double>(std::max<std::uint64_t>(plain.concluded(), 1));
  const real::LoadStats& s = plain.load;
  report.metric("real.client_cpu_us_per_op", plain.generator_cpu_s * 1e6 / ops, "us");
  report.metric("real.replica_cpu_us_per_op",
                (plain.process_cpu_s - plain.generator_cpu_s) * 1e6 / ops, "us");
  report.metric("real.cpu_util_cores", plain.process_cpu_s / plain.wall_s, "cores");
  report.metric("real.wall_goodput_kops", s.reply_rate() / 1000.0, "kops");
  report.metric("real.wall_reply_p50_ms", to_ms(s.reply_latency.p50()), "ms");
  report.metric("real.wall_reply_p99_ms", to_ms(s.reply_latency.p99()), "ms");
  report.metric("real.wall_reject_p99_ms", to_ms(s.reject_latency.p99()), "ms");

  const rpc::TransportStats& t = plain.transport;
  report.metric("rpc.msgs_per_op", static_cast<double>(t.messages_sent) / ops, "msgs");
  report.metric("rpc.bytes_per_op", static_cast<double>(t.bytes_sent) / ops, "B");
  report.metric("rpc.msgs_per_write_syscall",
                t.write_syscalls > 0 ? static_cast<double>(t.messages_sent) /
                                           static_cast<double>(t.write_syscalls)
                                     : 0,
                "msgs");
  report.metric("rpc.decode_errors", static_cast<double>(t.decode_errors), "count");
  report.metric("rpc.send_queue_overflows", static_cast<double>(t.send_queue_overflows),
                "count");

  const std::uint64_t leader_executed =
      plain.leader < plain.replicas.size() ? plain.replicas[plain.leader].executed : 0;
  report_idem_layer(report, plain.replicas, leader_executed, ops);
  report_absent_sim_layer(report);

  report_stages(report, traced.trace);
  const double overhead =
      plain.cpu_us_per_op() > 0 ? (traced.cpu_us_per_op() / plain.cpu_us_per_op() - 1) * 100
                                : 0;
  report.metric("trace.overhead_pct", overhead, "%");
  report.metric("trace.events_per_op",
                static_cast<double>(traced.trace.size()) /
                    static_cast<double>(std::max<std::uint64_t>(traced.concluded(), 1)),
                "events");
  report.metric("trace.full_rings", static_cast<double>(traced.full_rings), "count");

  ComponentInputs inputs;
  inputs.seed = args.seed;
  inputs.reject_threshold = spec.reject_threshold;
  inputs.clients = spec.clients;
  inputs.record_count = 1000;
  inputs.budget_seconds = args.seconds * 0.1;
  report_components(report, inputs);
  return report;
}

}  // namespace perfbench
