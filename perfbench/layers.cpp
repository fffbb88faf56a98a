#include <algorithm>
#include <utility>

#include "bench.hpp"

namespace perfbench {

void report_idem_layer(Report& report, const std::vector<idem::core::ReplicaStats>& replicas,
                       std::uint64_t leader_executed, double ops) {
  idem::core::ReplicaStats sum;
  std::uint64_t view_changes = 0;
  for (const idem::core::ReplicaStats& r : replicas) {
    sum.accepted += r.accepted;
    sum.rejected += r.rejected;
    sum.proposals_sent += r.proposals_sent;
    sum.forwards_sent += r.forwards_sent;
    sum.fetches_sent += r.fetches_sent;
    sum.requires_adopted += r.requires_adopted;
    sum.superseded_released += r.superseded_released;
    view_changes = std::max(view_changes, r.view_changes);
  }
  const double verdicts = static_cast<double>(sum.accepted + sum.rejected);
  report.metric("idem.accept_ratio", verdicts > 0 ? sum.accepted / verdicts : 0, "share");
  report.metric("idem.ops_per_proposal",
                sum.proposals_sent > 0 ? static_cast<double>(leader_executed) /
                                             static_cast<double>(sum.proposals_sent)
                                       : 0,
                "ops");
  report.metric("idem.forwards_per_op", static_cast<double>(sum.forwards_sent) / ops, "msgs");
  report.metric("idem.fetches_per_op", static_cast<double>(sum.fetches_sent) / ops, "msgs");
  report.metric("idem.requires_adopted_per_kop",
                static_cast<double>(sum.requires_adopted) * 1000.0 / ops, "count");
  report.metric("idem.superseded_released_per_kop",
                static_cast<double>(sum.superseded_released) * 1000.0 / ops, "count");
  report.metric("idem.view_changes", static_cast<double>(view_changes), "count");
}

void report_absent_sim_layer(Report& report) {
  static const std::pair<const char*, const char*> kAbsent[] = {
      {"sim.events_per_op", "events"},  {"sim.msgs_per_op", "msgs"},
      {"sim.bytes_per_op", "B"},         {"sim.mevents_per_wall_s", "Mevents/s"},
      {"sim.wall_per_sim_s", "s/s"},     {"vtime.goodput_kops", "kops"},
      {"vtime.reply_p50_ms", "ms"},      {"vtime.reply_p999_ms", "ms"},
      {"vtime.reject_p999_ms", "ms"},    {"vtime.failover_gap_ms", "ms"},
      {"vtime.deadline_miss_share", "share"}};
  for (const auto& [name, unit] : kAbsent) report.metric(name, 0, unit);
}

void report_absent_real_layer(Report& report) {
  static const std::pair<const char*, const char*> kAbsent[] = {
      {"real.client_cpu_us_per_op", "us"},  {"real.replica_cpu_us_per_op", "us"},
      {"real.cpu_util_cores", "cores"},     {"real.wall_goodput_kops", "kops"},
      {"real.wall_reply_p50_ms", "ms"},     {"real.wall_reply_p99_ms", "ms"},
      {"real.wall_reject_p99_ms", "ms"},    {"rpc.msgs_per_op", "msgs"},
      {"rpc.bytes_per_op", "B"},            {"rpc.msgs_per_write_syscall", "msgs"},
      {"rpc.decode_errors", "count"},       {"rpc.send_queue_overflows", "count"}};
  for (const auto& [name, unit] : kAbsent) report.metric(name, 0, unit);
}

}  // namespace perfbench
