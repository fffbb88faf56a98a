// Stage breakdown of request lifecycles from the existing trace rings.
//
// Request-scoped events are keyed by (cid, onr). PROPOSE binds a request to
// a sequence number; COMMIT quorums are recorded per instance (cid = 0,
// arg = sequence number), so a request's commit is the first quorum for
// its sequence number at or after its proposal.
#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace {

using idem::Time;
using idem::obs::TraceEvent;
using idem::obs::TraceEventKind;

struct Lifecycle {
  Time issued = -1;
  Time verdict = -1;
  Time proposed = -1;
  std::uint64_t sqn = 0;
  Time committed = -1;
  Time executed = -1;
  Time reply_sent = -1;
  Time outcome = -1;
  std::uint64_t outcome_kind = 0;  ///< consensus::Outcome::Kind
};

struct KeyHash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k) const {
    return std::hash<std::uint64_t>()(k.first * 0x9E3779B97F4A7C15ull ^ k.second);
  }
};

void first(Time& slot, Time at) {
  if (slot < 0) slot = at;
}

constexpr const char* kStages[] = {"issue_to_verdict",  "verdict_to_propose",
                                   "propose_to_commit", "commit_to_execute",
                                   "execute_to_reply",  "reply_to_outcome",
                                   "issue_to_reject"};
constexpr std::uint64_t kOutcomeReply = 0;
constexpr std::uint64_t kOutcomeRejected = 1;

struct StageStats {
  std::string name;
  std::vector<double> samples_us;
};

std::vector<StageStats> stage_breakdown(const std::vector<TraceEvent>& events) {
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, Lifecycle, KeyHash> ops;
  std::map<std::uint64_t, std::vector<Time>> commits;  // sqn -> quorum times, ascending
  for (const TraceEvent& ev : events) {
    if (ev.kind == TraceEventKind::CommitQuorum) {
      commits[ev.arg].push_back(ev.at);
      continue;
    }
    if (ev.cid == 0 && ev.onr == 0) continue;
    Lifecycle& op = ops[{ev.cid, ev.onr}];
    switch (ev.kind) {
      case TraceEventKind::RequestIssued: first(op.issued, ev.at); break;
      case TraceEventKind::AcceptVerdict: first(op.verdict, ev.at); break;
      case TraceEventKind::Proposed:
        if (op.proposed < 0) {
          op.proposed = ev.at;
          op.sqn = ev.arg;
        }
        break;
      case TraceEventKind::Executed: first(op.executed, ev.at); break;
      case TraceEventKind::ReplySent: first(op.reply_sent, ev.at); break;
      case TraceEventKind::RequestOutcome:
        if (op.outcome < 0) {
          op.outcome = ev.at;
          op.outcome_kind = ev.arg;
        }
        break;
      default: break;
    }
  }

  std::vector<StageStats> stages;
  for (const char* name : kStages) stages.push_back({name, {}});
  auto add = [&stages](std::size_t stage, Time from, Time to) {
    if (from >= 0 && to >= from) {
      stages[stage].samples_us.push_back(static_cast<double>(to - from) / 1000.0);
    }
  };
  for (auto& [key, op] : ops) {
    if (op.proposed >= 0) {
      auto it = commits.find(op.sqn);
      if (it != commits.end()) {
        auto at = std::lower_bound(it->second.begin(), it->second.end(), op.proposed);
        if (at != it->second.end()) op.committed = *at;
      }
    }
    if (op.outcome >= 0 && op.outcome_kind == kOutcomeRejected) {
      add(6, op.issued, op.outcome);
      continue;
    }
    if (op.outcome < 0 || op.outcome_kind != kOutcomeReply) continue;
    add(0, op.issued, op.verdict);
    add(1, op.verdict, op.proposed);
    add(2, op.proposed, op.committed);
    add(3, op.committed, op.executed);
    add(4, op.executed, op.reply_sent);
    add(5, op.reply_sent, op.outcome);
  }
  return stages;
}

}  // namespace

void report_stages(Report& report, const std::vector<TraceEvent>& events) {
  std::size_t replied_samples = 0;
  for (const StageStats& stage : stage_breakdown(events)) {
    const std::string base = "stage." + stage.name;
    report.metric(base + ".p50_us", percentile(stage.samples_us, 0.5), "us");
    report.metric(base + ".p99_us", percentile(stage.samples_us, 0.99), "us");
    report.metric(base + ".samples", static_cast<double>(stage.samples_us.size()), "count");
    if (stage.name == "issue_to_verdict") replied_samples = stage.samples_us.size();
  }
  report.check("trace_has_replied_lifecycles", replied_samples > 0,
               std::to_string(replied_samples) + " replied lifecycles");
}

}  // namespace perfbench
