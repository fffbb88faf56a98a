// IDEM benchmark program: runs one workload and prints its metrics.
//
//   idem_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics (a traced run beside an untraced one, plus
// component timings). The output is one JSON object on stdout:
//   {"metrics": {name: {"value": v, "unit": u}}, "checks": [...],
//    "attempted": n, "failed": n, "correct": bool}
// The exit status is 0 when every correctness check passed, 1 otherwise,
// and 2 on a usage error. See README.md for the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace perfbench {

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double thread_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double wall_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= values.size()) index = values.size() - 1;
  return values[index];
}

namespace {

bool is_real_workload(const std::string& name) {
  return name == "real-accept" || name == "real-reject";
}

bool is_sim_workload(const std::string& name) {
  return name == "sim-overload-crash" || name == "sim-deadline";
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_report(const Report& report) {
  std::printf("{\"metrics\": {");
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    if (i > 0) std::printf(", ");
    print_json_string(m.name);
    // %.17g keeps every digit; non-finite values cannot be JSON and are
    // reported as failed checks instead.
    std::printf(": {\"value\": %.17g, \"unit\": ", std::isfinite(m.value) ? m.value : -1.0);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}, \"checks\": [");
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const Check& c = report.checks[i];
    if (i > 0) std::printf(", ");
    std::printf("{\"name\": ");
    print_json_string(c.name);
    std::printf(", \"ok\": %s, \"detail\": ", c.ok ? "true" : "false");
    print_json_string(c.detail);
    std::printf("}");
  }
  std::printf("], \"attempted\": %llu, \"failed\": %llu, \"correct\": %s}\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.correct() ? "true" : "false");
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "idem_perfbench: %s\n"
               "usage: idem_perfbench --workload real-accept|real-reject|sim-overload-crash|"
               "sim-deadline --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (argc % 2 == 0) return usage("flags come in pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("--seed wants a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        return usage("--seconds wants a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace wants 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  Report report;
  if (is_real_workload(args.workload)) {
    report = run_real(args);
  } else if (is_sim_workload(args.workload)) {
    report = run_sim(args);
  } else {
    return usage(("unknown workload '" + args.workload + "'").c_str());
  }
  std::string non_finite;
  for (const Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) non_finite += " " + m.name;
  }
  report.check("metrics_finite", non_finite.empty(), non_finite);
  print_report(report);
  return report.correct() ? 0 : 1;
}
