// Shared types of the IDEM benchmark program.
//
// Every workload produces one Report: named metrics with units, the
// correctness checks it ran, and the operation counts the result line
// carries. main.cpp prints it as a single JSON object; run.py adds host
// facts and reshapes it into the benchmark's result line.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "idem/replica.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;  ///< operations that concluded (reply, reject, timeout)
  std::uint64_t failed = 0;     ///< malformed replies + operations lost without an outcome

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(std::string name, bool ok, std::string detail = "") {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
  bool correct() const {
    for (const Check& c : checks) {
      if (!c.ok) return false;
    }
    return !checks.empty();
  }
};

/// Command-line arguments.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  ///< false: end-to-end metrics; true: per-layer metrics
};

/// Process-wide resource counters (getrusage).
double process_cpu_seconds();
double thread_cpu_seconds();
double wall_seconds();  ///< steady clock, arbitrary origin

double median(std::vector<double> values);

/// Exact percentile (nearest rank) of raw samples. `q` in [0, 1].
double percentile(std::vector<double> values, double q);

// ---------------------------------------------------------------------------
// Request-lifecycle stage breakdown from merged trace rings (stages.cpp).

/// Splits each traced (cid, onr) lifecycle into consecutive stages
/// (issue->verdict->propose->commit->execute->reply->outcome for replied
/// operations, issue->reject for rejected ones) and adds
/// stage.<name>.p50_us / .p99_us / .samples for every stage to `report`.
/// `events` is the merged, time-ordered trace.
void report_stages(Report& report, const std::vector<idem::obs::TraceEvent>& events);

// ---------------------------------------------------------------------------
// Component micro-timings (components.cpp).

/// Inputs drawn from the workload's own configuration and seed.
struct ComponentInputs {
  std::uint64_t seed = 1;
  std::size_t reject_threshold = 50;
  std::size_t clients = 4;
  std::uint64_t record_count = 1000;
  double budget_seconds = 1.0;  ///< total wall time to spend timing
};

/// Times each layer's public functions on generated inputs and adds the
/// consensus/core/app/sim/obs component metrics to `report`.
void report_components(Report& report, const ComponentInputs& inputs);

// ---------------------------------------------------------------------------
// Layer metrics shared by both runtimes (layers.cpp).

/// idem.* from replica counters summed over the cluster (view changes:
/// the most any replica saw). `ops` is the number of concluded operations
/// the ratios refer to.
void report_idem_layer(Report& report, const std::vector<idem::core::ReplicaStats>& replicas,
                       std::uint64_t leader_executed, double ops);

/// A workload reports every per-layer metric. Layers its runtime does not
/// have (the simulator in real mode; TCP and the wall-clock generator in
/// the simulator) report 0: that layer did no work.
void report_absent_sim_layer(Report& report);
void report_absent_real_layer(Report& report);

// ---------------------------------------------------------------------------
// End-to-end sampling (end_to_end.cpp).

/// Runs `runs` samples, each in its own forked child process, `parallel`
/// at a time. A sample
/// reports the metrics setup_s, cpu_us_per_op, replies and concluded plus
/// its checks. The result holds the end-to-end metrics: the medians of
/// setup_s, cpu_us_per_op and the samples' peak RSS (peak_rss_mb), and
/// reply_share over all samples' concluded operations.
Report end_to_end(int runs, int parallel, const std::function<Report(int run)>& sample);

// ---------------------------------------------------------------------------
// Workloads.

Report run_real(const Args& args);
Report run_sim(const Args& args);

}  // namespace perfbench
