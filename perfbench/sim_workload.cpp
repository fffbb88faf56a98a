// Simulator workloads: harness::Cluster + harness::ClosedLoopDriver on one
// thread, 150 us one-way delay + 10 us exponential jitter (the simulator's
// network defaults).
//
// Virtual-time results repeat exactly for a seed; what the host changes is
// only how long the simulation takes. End-to-end metrics are therefore the
// simulator's CPU per concluded operation, the reply share and set-up, and
// the virtual-time service metrics are reported per layer.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "harness/cluster.hpp"
#include "harness/driver.hpp"
#include "idem/acceptance.hpp"
#include "idem/client.hpp"

namespace perfbench {

namespace {

using namespace idem;

bool crash_workload(const std::string& workload) { return workload == "sim-overload-crash"; }

// sim-overload-crash: paper Fig. 6 at 4x overload (200 clients, r = 50,
// AQM, 50-100 ms backoff) with the leader crashed a third into the
// window, as in Fig. 10.
// sim-deadline: fig_deadline's deadline-aware point at 2x overload —
// DeadlineAware admission + EDF, 8 +/- 4 ms budgets, Pareto(1.3) cost tails.
harness::ClusterConfig cluster_config(const std::string& workload, std::uint64_t seed,
                                      bool trace) {
  harness::ClusterConfig config;
  config.protocol = harness::Protocol::Idem;
  config.reject_threshold = 50;
  config.seed = seed;
  config.obs.trace = trace;
  config.obs.trace_capacity = 1u << 21;
  if (crash_workload(workload)) {
    config.clients = 200;
  } else {
    config.clients = 100;
    config.idem.costs.tail = consensus::TailShape::Pareto;
    config.idem.costs.tail_prob = 0.1;
    config.idem.costs.pareto_alpha = 1.3;
    config.idem.costs.pareto_scale = 6.0;
    config.request_deadline = 8 * kMillisecond;
    config.deadline_jitter = 4 * kMillisecond;
    core::DeadlineAware::Params params;
    params.quantile = 0.95;
    params.safety_margin = 1 * kMillisecond;
    config.acceptance_factory = [params](std::size_t) {
      return std::unique_ptr<core::AcceptanceTest>(new core::DeadlineAware(params));
    };
    config.discipline = sim::DisciplineKind::Edf;
  }
  return config;
}

struct Run {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  Duration simulated = 0;
  std::uint64_t events = 0;
  std::size_t clients = 0;
  std::uint64_t started = 0;        ///< operations the clients started
  std::uint64_t concluded_all = 0;  ///< replies + rejects over the whole run
  harness::RunMetrics metrics;
  std::vector<core::ReplicaStats> replicas;
  std::size_t leader = 0;
  bool leader_crashed = false;
  Time crash_at = -1;
  std::vector<obs::TraceEvent> trace;
  std::uint64_t trace_overwritten = 0;

  std::uint64_t concluded() const {
    return metrics.replies + metrics.rejects + metrics.timeouts;
  }
  double cpu_us_per_op() const {
    return concluded_all > 0 ? cpu_s * 1e6 / static_cast<double>(concluded_all) : 0;
  }
};

Run run_once(const std::string& workload, std::uint64_t seed, Duration warmup,
             Duration measure, bool trace) {
  Run run;
  const double t0 = wall_seconds();
  harness::Cluster cluster(cluster_config(workload, seed, trace));
  run.setup_s = wall_seconds() - t0;

  harness::DriverConfig driver_config;
  driver_config.warmup = warmup;
  driver_config.measure = measure;
  driver_config.series_window = kMillisecond;
  if (crash_workload(workload)) {
    run.crash_at = warmup + measure / 3;
    cluster.apply({sim::Fault::crash(run.crash_at, sim::Fault::kLeader)});
  }
  harness::ClosedLoopDriver driver(cluster, driver_config);

  const double cpu0 = process_cpu_seconds();
  const double wall0 = wall_seconds();
  run.metrics = driver.run();
  run.wall_s = wall_seconds() - wall0;
  run.cpu_s = process_cpu_seconds() - cpu0;
  run.simulated = warmup + measure;
  run.events = cluster.simulator().events_executed();

  run.clients = cluster.num_clients();
  for (std::size_t i = 0; i < cluster.num_clients(); ++i) {
    if (auto* client = dynamic_cast<core::IdemClient*>(&cluster.client(i))) {
      run.started += client->operations_started();
    }
  }
  run.concluded_all = run.metrics.reply_series.total() + run.metrics.reject_series.total();
  for (std::size_t i = 0; i < cluster.config().n; ++i) {
    core::IdemReplica* replica = cluster.idem_replica(i);
    run.replicas.push_back(replica->stats());
    if (replica->crashed()) run.leader_crashed = true;
  }
  run.leader = cluster.leader_index();
  if (trace) {
    run.trace = cluster.trace()->snapshot();
    run.trace_overwritten = cluster.trace()->overwritten();
  }
  return run;
}

/// Crash to the first reply after the longest reply-less stretch that
/// starts at or after the crash (1 ms windows), in milliseconds.
double failover_gap_ms(const Run& run) {
  if (run.crash_at < 0) return 0;
  const auto rows = run.metrics.reply_series.rows();
  const Duration window = run.metrics.reply_series.window();
  Time best_end = -1;
  Duration best_len = -1;
  Time silence_start = -1;
  for (const auto& row : rows) {
    if (row.window_start + window <= run.crash_at) continue;
    if (row.count == 0) {
      if (silence_start < 0) silence_start = row.window_start;
    } else if (silence_start >= 0) {
      if (row.window_start - silence_start > best_len) {
        best_len = row.window_start - silence_start;
        best_end = row.window_start;
      }
      silence_start = -1;
    }
  }
  return best_end < 0 ? 0 : to_ms(best_end - run.crash_at);
}

void check_run(Report& report, const Run& run, const std::string& workload,
               const std::string& tag) {
  report.check(tag + "replies_served", run.metrics.replies > 0,
               std::to_string(run.metrics.replies) + " replies");
  // IDEM clients never time out on their own (no operation timeout), so
  // every started operation either concluded as a reply or a rejection or
  // is the one still in flight at its client when the run stops.
  const std::uint64_t in_flight = run.started - std::min(run.started, run.concluded_all);
  report.check(tag + "outcomes_account_for_operations",
               run.concluded_all <= run.started && in_flight <= run.clients &&
                   run.metrics.timeouts == 0,
               std::to_string(run.started) + " started, " + std::to_string(run.concluded_all) +
                   " concluded, " + std::to_string(run.metrics.timeouts) + " timeouts");
  report.check(tag + "leader_present", run.leader < run.replicas.size());
  if (crash_workload(workload)) {
    std::uint64_t view_changes = 0;
    for (const core::ReplicaStats& r : run.replicas) {
      view_changes = std::max(view_changes, r.view_changes);
    }
    report.check(tag + "leader_crashed", run.leader_crashed);
    report.check(tag + "view_change_performed", view_changes >= 1,
                 std::to_string(view_changes) + " view changes");
  }
}

struct Window {
  Duration warmup = 0;
  Duration measure = 0;
};

// Simulated span per run for a wall-time budget, from each workload's
// measured speed on a 4-vCPU Xeon host (overload-crash ~0.85, deadline
// ~0.35 wall seconds per simulated second). The crash workload needs room
// for the 1.5 s view-change timeout after a crash at 1/3 of the window.
Window window_for(const std::string& workload, double wall_budget_s) {
  Window w;
  w.warmup = 500 * kMillisecond;
  const double sim_s = crash_workload(workload) ? std::max(wall_budget_s / 0.85, 3.5)
                                                : std::max(wall_budget_s / 0.35, 1.5);
  w.measure = static_cast<Duration>(sim_s * kSecond) - w.warmup;
  return w;
}

}  // namespace

Report run_sim(const Args& args) {
  Report report;
  const std::string& workload = args.workload;

  if (!args.trace) {
    // Several seeds derived from --seed, each run in its own process,
    // three at a time (the simulator is single-threaded; one vCPU of four
    // stays free). The medians damp host noise and sim-deadline's Pareto
    // service tails, under which one seed can stall the cluster for
    // seconds of simulated time.
    const int parallel = 3;
    const int rounds = args.seconds < 6 ? 1 : crash_workload(workload) ? 3 : 4;
    const int runs = rounds * parallel;
    const Window w = window_for(workload, args.seconds * 0.55 / rounds);
    return end_to_end(runs, parallel, [&](int i) {
      const std::uint64_t seed = args.seed * 1000 + static_cast<std::uint64_t>(i);
      const Run run = run_once(workload, seed, w.warmup, w.measure, false);
      Report sample;
      check_run(sample, run, workload, "");
      std::vector<double> setups = {run.setup_s};
      for (int k = 0; k < 2; ++k) {
        const double t0 = wall_seconds();
        harness::Cluster cluster(cluster_config(workload, seed + 100 * (k + 1), false));
        setups.push_back(wall_seconds() - t0);
      }
      sample.metric("setup_s", median(setups), "s");
      sample.metric("cpu_us_per_op", run.cpu_us_per_op(), "us");
      sample.metric("replies", static_cast<double>(run.metrics.replies), "count");
      sample.metric("concluded", static_cast<double>(run.concluded()), "count");
      sample.attempted = run.concluded();
      sample.failed = run.metrics.timeouts;
      return sample;
    });
  }

  // Per-layer: the same seed untraced and traced. Tracing must not perturb
  // the simulation, so both runs must agree exactly on virtual time. The
  // span is capped so the trace ring holds the whole traced run.
  const Window w = window_for(workload, std::min(args.seconds * 0.4, 4.0));
  const Run plain = run_once(workload, args.seed * 1000, w.warmup, w.measure, false);
  const Run traced = run_once(workload, args.seed * 1000, w.warmup, w.measure, true);
  check_run(report, plain, workload, "untraced.");
  check_run(report, traced, workload, "traced.");
  report.attempted = plain.concluded() + traced.concluded();
  report.failed = plain.metrics.timeouts + traced.metrics.timeouts;
  const harness::RunMetrics& m = plain.metrics;
  const harness::RunMetrics& mt = traced.metrics;
  report.check("trace_preserves_event_count", plain.events == traced.events,
               std::to_string(plain.events) + " vs " + std::to_string(traced.events));
  report.check("trace_preserves_virtual_time_metrics",
               m.replies == mt.replies && m.rejects == mt.rejects &&
                   m.timeouts == mt.timeouts && m.deadline_misses == mt.deadline_misses &&
                   m.reply_latency.p50() == mt.reply_latency.p50() &&
                   m.reply_latency.p999() == mt.reply_latency.p999() &&
                   m.reject_latency.p999() == mt.reject_latency.p999() &&
                   m.total_bytes() == mt.total_bytes() &&
                   failover_gap_ms(plain) == failover_gap_ms(traced));

  const double ops = static_cast<double>(std::max<std::uint64_t>(plain.concluded(), 1));
  const double all_ops = static_cast<double>(std::max<std::uint64_t>(plain.concluded_all, 1));
  report.metric("sim.events_per_op", static_cast<double>(plain.events) / all_ops, "events");
  report.metric("sim.msgs_per_op",
                static_cast<double>(m.client_traffic.messages + m.replica_traffic.messages) /
                    ops,
                "msgs");
  report.metric("sim.bytes_per_op", static_cast<double>(m.total_bytes()) / ops, "B");
  report.metric("sim.mevents_per_wall_s", static_cast<double>(plain.events) / plain.wall_s / 1e6,
                "Mevents/s");
  report.metric("sim.wall_per_sim_s", plain.wall_s / to_sec(plain.simulated), "s/s");
  report.metric("vtime.goodput_kops", m.reply_throughput() / 1000.0, "kops");
  report.metric("vtime.reply_p50_ms", m.reply_p50_ms(), "ms");
  report.metric("vtime.reply_p999_ms", m.reply_p999_ms(), "ms");
  report.metric("vtime.reject_p999_ms", to_ms(m.reject_latency.p999()), "ms");
  report.metric("vtime.failover_gap_ms", failover_gap_ms(plain), "ms");
  report.metric("vtime.deadline_miss_share", m.deadline_miss_rate(), "share");

  std::uint64_t leader_executed = 0;
  for (const core::ReplicaStats& r : plain.replicas) {
    leader_executed = std::max(leader_executed, r.executed);
  }
  report_idem_layer(report, plain.replicas, leader_executed, all_ops);
  report_absent_real_layer(report);

  report_stages(report, traced.trace);
  report.metric("trace.overhead_pct", (traced.wall_s / plain.wall_s - 1) * 100, "%");
  report.metric("trace.events_per_op",
                static_cast<double>(traced.trace.size() + traced.trace_overwritten) / all_ops,
                "events");
  report.metric("trace.full_rings", traced.trace_overwritten > 0 ? 1 : 0, "count");

  ComponentInputs inputs;
  inputs.seed = args.seed;
  inputs.reject_threshold = 50;
  inputs.clients = crash_workload(workload) ? 200 : 100;
  inputs.record_count = app::YcsbConfig::update_heavy().record_count;
  inputs.budget_seconds = args.seconds * 0.1;
  report_components(report, inputs);
  return report;
}

}  // namespace perfbench
