// End-to-end sampling: every sample runs in its own forked child process,
// so its CPU time and peak memory belong to that sample alone, and a
// heavy-tailed sample (a huge Pareto service draw in sim-deadline) cannot
// inflate the memory high-water mark of the samples after it. Medians over
// the samples are reported; many samples damp the host's speed noise.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

// Line format over the pipe: "M name value unit", "C ok name\tdetail",
// "A attempted failed". Names and units contain no whitespace.
std::string serialize(const Report& r) {
  std::ostringstream out;
  out.precision(17);
  for (const Metric& m : r.metrics) out << "M " << m.name << ' ' << m.value << ' ' << m.unit << '\n';
  for (const Check& c : r.checks) {
    out << "C " << (c.ok ? 1 : 0) << ' ' << c.name << '\t' << c.detail << '\n';
  }
  out << "A " << r.attempted << ' ' << r.failed << '\n';
  return out.str();
}

Report deserialize(const std::string& text) {
  Report r;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "M") {
      Metric m;
      fields >> m.name >> m.value >> m.unit;
      r.metrics.push_back(m);
    } else if (tag == "C") {
      int ok = 0;
      fields >> ok;
      fields.get();
      std::string rest;
      std::getline(fields, rest);
      const std::size_t tab = rest.find('\t');
      r.check(rest.substr(0, tab), ok == 1, tab == std::string::npos ? "" : rest.substr(tab + 1));
    } else if (tag == "A") {
      fields >> r.attempted >> r.failed;
    }
  }
  return r;
}

struct Sample {
  Report report;
  double peak_rss_mb = 0;
};

/// A forked child running one sample; it writes its serialized Report to
/// the pipe and exits. A report is a few KiB, well inside the pipe buffer,
/// so children never block on a parent that is waiting for another child.
struct Child {
  pid_t pid = -1;
  int fd = -1;
};

Child spawn(const std::function<Report()>& body) {
  Child child;
  int fds[2];
  if (pipe(fds) != 0) return child;
  std::fflush(nullptr);
  child.pid = fork();
  if (child.pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return child;
  }
  if (child.pid == 0) {
    close(fds[0]);
    const std::string text = serialize(body());
    std::size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) _exit(3);
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  child.fd = fds[0];
  return child;
}

Sample collect(const Child& child) {
  Sample sample;
  if (child.pid < 0) {
    sample.report.check("sample_process_started", false, "pipe or fork failed");
    return sample;
  }
  int status = 0;
  rusage usage{};
  while (wait4(child.pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  std::string text;
  char buffer[4096];
  for (;;) {
    const ssize_t n = read(child.fd, buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
  }
  close(child.fd);
  sample.report = deserialize(text);
  sample.report.check("sample_process_exited_cleanly",
                      WIFEXITED(status) && WEXITSTATUS(status) == 0,
                      "status " + std::to_string(status));
  sample.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return sample;
}

double value_of(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return 0;
}

}  // namespace

Report end_to_end(int runs, int parallel, const std::function<Report(int run)>& sample) {
  std::vector<Sample> samples;
  for (int first = 0; first < runs; first += parallel) {
    std::vector<Child> batch;
    for (int i = first; i < std::min(runs, first + parallel); ++i) {
      batch.push_back(spawn([&sample, i] { return sample(i); }));
    }
    for (const Child& child : batch) samples.push_back(collect(child));
  }

  Report report;
  std::vector<double> setups, cpu_per_op, rss;
  double replies = 0, concluded = 0;
  for (int i = 0; i < runs; ++i) {
    const Sample& s = samples[static_cast<std::size_t>(i)];
    const std::string tag = "sample" + std::to_string(i) + ".";
    for (const Check& c : s.report.checks) report.check(tag + c.name, c.ok, c.detail);
    setups.push_back(value_of(s.report, "setup_s"));
    cpu_per_op.push_back(value_of(s.report, "cpu_us_per_op"));
    rss.push_back(s.peak_rss_mb);
    replies += value_of(s.report, "replies");
    concluded += value_of(s.report, "concluded");
    std::fprintf(stderr, "sample %d: setup_s %.6f cpu_us_per_op %.3f peak_rss_mb %.2f\n", i,
                 setups.back(), cpu_per_op.back(), rss.back());
    report.attempted += s.report.attempted;
    report.failed += s.report.failed;
  }
  report.metric("setup_s", median(setups), "s");
  report.metric("cpu_us_per_op", median(cpu_per_op), "us");
  report.metric("reply_share", concluded > 0 ? replies / concluded : 0, "share");
  report.metric("peak_rss_mb", median(rss), "MB");
  return report;
}

}  // namespace perfbench
