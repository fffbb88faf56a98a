// BFT-SMaRt-analog replica in its crash-fault-tolerant configuration.
//
// Stands in for the production-grade BFT-SMaRt library the paper compares
// against (Section 7): clients multicast their requests to all replicas,
// the leader batches and proposes full requests, agreement runs through
// Mod-SMaRt-style PROPOSE / WRITE / ACCEPT phases, and every replica
// replies to the client (which needs just one reply in CFT mode). Like
// the original, it has no overload protection — request buffers grow
// without bound and latency explodes past saturation, which is the
// behaviour Figures 2 and 6 capture. Leader fail-over is out of scope for
// this baseline (the paper's crash experiments only involve IDEM variants
// and Paxos_LBR); see DESIGN.md.
//
// Structurally a policy layer over the replication core (src/core): the
// ordered log, client table and batch pipeline are shared with the other
// protocols; SMaRt contributes the three-phase agreement.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "app/state_machine.hpp"
#include "common/ids.hpp"
#include "consensus/addresses.hpp"
#include "consensus/cost_model.hpp"
#include "consensus/messages.hpp"
#include "consensus/quorum.hpp"
#include "core/batch_pipeline.hpp"
#include "core/client_table.hpp"
#include "core/ordered_log.hpp"
#include "core/timers.hpp"
#include "obs/trace.hpp"
#include "sim/node.hpp"

namespace idem::smart {

struct SmartConfig {
  std::size_t n = 3;
  std::size_t f = 1;
  std::size_t batch_max = 32;
  /// Ordered-log batching (see core::BatchPipeline): cut once batch_min
  /// requests are queued or the oldest waited batch_flush_delay. Defaults
  /// (1, 0) cut immediately, i.e. legacy behavior.
  std::size_t batch_min = 1;
  Duration batch_flush_delay = 0;
  std::uint64_t window_size = 256;
  /// Leader retransmits the proposal of the oldest unexecuted instance
  /// when it makes no progress for this long (fair-loss links).
  Duration retransmit_interval = 200 * kMillisecond;
  consensus::CostModel costs;

  /// Optional request-lifecycle trace sink (borrowed, may be null).
  obs::TraceRecorder* trace = nullptr;

  std::size_t quorum() const { return f + 1; }
};

struct SmartStats {
  std::uint64_t requests_received = 0;
  std::uint64_t executed = 0;
  std::uint64_t duplicates_skipped = 0;
  std::uint64_t proposals_sent = 0;
};

/// The three-phase consensus slot, shared with the proactive-rejection
/// variant (smart/replica_pr.hpp) whose agreement path is identical.
struct SmartSlot : core::SlotBase {
  std::vector<msg::Request> requests;
  bool own_write_sent = false;
  bool own_accept_sent = false;
  consensus::VoteSet write_votes;
  consensus::VoteSet accept_votes;
};

class SmartReplica final : public sim::Node {
 public:
  SmartReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id, SmartConfig config,
               std::unique_ptr<app::StateMachine> state_machine);

  ReplicaId replica_id() const { return me_; }
  bool is_leader() const { return consensus::leader_of(view_, config_.n) == me_; }
  const SmartStats& stats() const { return stats_; }
  std::size_t backlog() const { return batch_.size(); }
  SeqNum next_execute() const { return SeqNum{log_.next_exec()}; }

  app::StateMachine& state_machine() { return *sm_; }

  std::function<void(SeqNum, RequestId)> on_execute;

 protected:
  void on_message(sim::NodeId from, const sim::Payload& message) override;
  void on_restart() override;
  Duration message_cost(const sim::Payload& message) const override;
  Duration send_cost(const sim::Payload& message) const override;

 private:
  using Instance = SmartSlot;

  void handle_request(const msg::Request& request);
  void try_propose();
  void arm_batch_timer();
  void handle_propose(const msg::SmartPropose& propose);
  void handle_write(const msg::SmartWrite& write);
  void handle_accept(const msg::SmartAccept& accept);
  void maybe_advance(std::uint64_t sqn);
  /// Emits the CommitQuorum trace event once per instance.
  void note_accept_quorum(std::uint64_t sqn, Instance& inst);
  void try_execute();
  void retransmit_tick();
  void multicast(sim::PayloadPtr message);

  SmartConfig config_;
  ReplicaId me_;
  std::unique_ptr<app::StateMachine> sm_;
  ViewId view_;

  core::BatchPipeline<msg::Request> batch_;  ///< leader's unbounded request buffer
  std::unordered_set<RequestId> queued_;
  sim::TimerId batch_timer_;  ///< pending time-based batch cut

  core::OrderedLog<Instance> log_;
  std::uint64_t next_sqn_ = 0;

  core::ClientTable clients_;

  sim::TimerId retransmit_timer_;
  core::StallWatermark retransmit_stall_;

  // Service-time variability stream (CostModel::jitter).
  mutable Rng cost_rng_;

  SmartStats stats_;
};

}  // namespace idem::smart
