#include "smart/replica_pr.hpp"

#include <cassert>

#include "core/lifecycle.hpp"

namespace idem::smart {

namespace core = idem::core;

SmartPrReplica::SmartPrReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id,
                               SmartPrConfig config,
                               std::unique_ptr<app::StateMachine> state_machine,
                               std::unique_ptr<core::AcceptanceTest> acceptance)
    : sim::Node(sim, net, consensus::replica_address(id), sim::NodeKind::Replica),
      config_(config),
      me_(id),
      sm_(std::move(state_machine)),
      acceptance_(std::move(acceptance)),
      rejected_(config.rejected_cache_size),
      cost_rng_(sim.seed(), 0xC057'3000ull + id.value) {
  consensus::check_group_size(config_.n);
  assert(config_.n == 2 * config_.f + 1);
  batch_.configure({config_.batch_max, config_.batch_min, config_.batch_flush_delay});
  retransmit_tick();
}

Duration SmartPrReplica::message_cost(const sim::Payload& message) const {
  return config_.costs.cost(message, cost_rng_);
}

Duration SmartPrReplica::send_cost(const sim::Payload& message) const {
  return config_.costs.send_cost(message, cost_rng_);
}

void SmartPrReplica::multicast(sim::PayloadPtr message) {
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (i == me_.value) continue;
    send(consensus::replica_address(ReplicaId{i}), message);
  }
}

void SmartPrReplica::on_message(sim::NodeId from, const sim::Payload& message) {
  (void)from;
  const auto* base = dynamic_cast<const msg::Message*>(&message);
  if (base == nullptr) return;
  switch (base->type()) {
    case msg::Type::Request:
      handle_request(static_cast<const msg::Request&>(*base));
      break;
    case msg::Type::Require: {
      const auto& require = static_cast<const msg::Require&>(*base);
      for (RequestId id : require.ids) note_require(require.from, id);
      break;
    }
    case msg::Type::Forward:
      handle_forward(static_cast<const msg::Forward&>(*base));
      break;
    case msg::Type::SmartPropose:
      handle_propose(static_cast<const msg::SmartPropose&>(*base));
      break;
    case msg::Type::SmartWrite:
      handle_write(static_cast<const msg::SmartWrite&>(*base));
      break;
    case msg::Type::SmartAccept:
      handle_accept(static_cast<const msg::SmartAccept&>(*base));
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Intake phase (collaborative proactive rejection)
// ---------------------------------------------------------------------------

void SmartPrReplica::handle_request(const msg::Request& request) {
  ++stats_.requests_received;
  const RequestId id = request.id;
  if (clients_.executed(id)) {
    if (auto reply = clients_.cached_reply(id)) {
      send(consensus::client_address(id.cid), std::move(reply));
    }
    return;
  }
  if (requests_.contains(id)) return;
  // Requests in the rejected cache are re-tested: the acceptance test is
  // time-varying, so a retransmission may pass now.

  core::AcceptanceContext ctx;
  ctx.active_requests = active_.size();
  ctx.reject_threshold = config_.reject_threshold;
  ctx.now = now();
  ctx.deadline = request.deadline;
  RejectReason reason = RejectReason::None;
  if (acceptance_->accept(id, request.command, ctx, reason)) {
    core::lifecycle::accept_verdict(config_.trace, now(), me_.value, id, true);
    accept_request(id, request.command, /*client_issued=*/true);
  } else {
    ++stats_.rejected;
    // A reject of a request already in the rejected cache is a
    // retransmission bouncing off it — classify it as such.
    if (rejected_.find(id) != nullptr) reason = RejectReason::RejectedCacheHit;
    core::lifecycle::accept_verdict(config_.trace, now(), me_.value, id, false, reason);
    // insert() refreshes an already-cached entry to the LRU front: every
    // retransmission of an ambivalently rejected request (Section 4.5)
    // keeps its body fetchable.
    rejected_.insert(id, request.command);
    send(consensus::client_address(id.cid), std::make_shared<const msg::Reject>(id, reason));
  }
}

void SmartPrReplica::accept_request(RequestId id, std::vector<std::byte> command,
                                    bool client_issued) {
  requests_[id] = std::move(command);
  rejected_.erase(id);
  if (client_issued) {
    active_.insert(id);
    ++stats_.accepted;
  } else {
    ++stats_.forward_accepted;
    core::lifecycle::forward_accepted(config_.trace, now(), me_.value, id);
  }
  arm_forward_timer(id);
  if (is_leader()) {
    note_require(me_, id);
  } else {
    auto require = std::make_shared<msg::Require>();
    require->from = me_;
    require->ids = {id};
    send(consensus::replica_address(consensus::leader_of(view_, config_.n)),
         std::move(require));
  }
}

void SmartPrReplica::note_require(ReplicaId voter, RequestId id) {
  if (clients_.executed(id) || proposed_.contains(id)) return;
  core::lifecycle::require_noted(config_.trace, now(), me_.value, id, voter.value);
  std::size_t votes = requires_.vote(id, voter);
  if (votes >= config_.quorum() && !in_eligible_.contains(id)) {
    in_eligible_.insert(id);
    batch_.push(id, now());
  }
  try_propose();
}

void SmartPrReplica::handle_forward(const msg::Forward& forward) {
  for (const msg::Request& request : forward.requests) {
    if (clients_.executed(request.id) || requests_.contains(request.id)) continue;
    accept_request(request.id, request.command, /*client_issued=*/false);
  }
}

void SmartPrReplica::arm_forward_timer(RequestId id) {
  if (forward_timers_.contains(id)) return;
  forward_timers_[id] = set_timer(config_.forward_timeout, [this, id] {
    forward_timers_.erase(id);
    forward_request(id);
  });
}

void SmartPrReplica::forward_request(RequestId id) {
  if (clients_.executed(id)) return;
  auto it = requests_.find(id);
  if (it == requests_.end()) return;
  auto forward = std::make_shared<msg::Forward>();
  forward->from = me_;
  forward->requests.emplace_back(id, it->second);
  multicast(std::move(forward));
  ++stats_.forwards_sent;
  // The request is overdue, so our REQUIRE may have been lost too
  // (fair-loss links); repeat it alongside the relays.
  if (is_leader()) {
    note_require(me_, id);
  } else {
    auto require = std::make_shared<msg::Require>();
    require->from = me_;
    require->ids = {id};
    send(consensus::replica_address(consensus::leader_of(view_, config_.n)),
         std::move(require));
  }
  arm_forward_timer(id);
}

const std::vector<std::byte>* SmartPrReplica::find_command(RequestId id) const {
  if (auto it = requests_.find(id); it != requests_.end()) return &it->second;
  return rejected_.find(id);
}

// ---------------------------------------------------------------------------
// Mod-SMaRt agreement — unchanged except that the leader only proposes
// REQUIREd requests whose body it owns (accepted or cached).
// ---------------------------------------------------------------------------

void SmartPrReplica::try_propose() {
  if (!is_leader()) return;
  const std::uint64_t window_end = log_.next_exec() + config_.window_size;
  while (!batch_.empty() && next_sqn_ < window_end) {
    if (!batch_.ready(now())) {
      arm_batch_timer();
      break;
    }
    std::vector<msg::Request> batch;
    batch_.cut([&](RequestId id) {
      if (clients_.executed(id) || proposed_.contains(id)) {
        in_eligible_.erase(id);
        return core::BatchPipeline<RequestId>::Verdict::Drop;
      }
      const std::vector<std::byte>* body = find_command(id);
      if (body == nullptr) {
        // Required by f+1 replicas but the body has not reached us yet;
        // the forwarding mechanism will deliver it. Keep it eligible.
        return core::BatchPipeline<RequestId>::Verdict::Defer;
      }
      in_eligible_.erase(id);
      proposed_.insert(id);
      requires_.erase(id);
      core::lifecycle::proposed(config_.trace, now(), me_.value, id, next_sqn_);
      batch.emplace_back(id, *body);
      return core::BatchPipeline<RequestId>::Verdict::Take;
    });
    if (batch.empty()) break;

    Instance& inst = log_.at(next_sqn_);
    inst.requests = batch;
    inst.has_binding = true;
    inst.own_write_sent = true;
    inst.write_votes.insert(me_.value);
    core::lifecycle::propose_received(config_.trace, now(), me_.value, next_sqn_);

    auto propose = std::make_shared<msg::SmartPropose>();
    propose->view = view_;
    propose->sqn = SeqNum{next_sqn_};
    propose->requests = std::move(batch);
    multicast(std::move(propose));
    ++stats_.proposals_sent;
    maybe_advance(next_sqn_);
    ++next_sqn_;
  }
  try_execute();
}

void SmartPrReplica::arm_batch_timer() {
  // Only reachable with batch_min > 1 and a nonzero flush delay.
  if (batch_timer_.valid()) return;
  batch_timer_ = set_timer(batch_.delay_until_ready(now()), [this] {
    batch_timer_ = sim::TimerId{};
    try_propose();
  });
}

void SmartPrReplica::handle_propose(const msg::SmartPropose& propose) {
  const std::uint64_t sqn = propose.sqn.value;
  if (sqn < log_.next_exec()) {
    // Retransmission for an executed instance: the sender lost our votes;
    // repeat WRITE and ACCEPT (idempotent) so it can catch up.
    if (log_.contains(sqn)) {
      auto write = std::make_shared<msg::SmartWrite>();
      write->from = me_;
      write->view = propose.view;
      write->sqn = SeqNum{sqn};
      multicast(std::move(write));
      auto accept = std::make_shared<msg::SmartAccept>();
      accept->from = me_;
      accept->view = propose.view;
      accept->sqn = SeqNum{sqn};
      multicast(std::move(accept));
    }
    return;
  }
  Instance& inst = log_.at(sqn);
  if (!inst.has_binding) {
    inst.requests = propose.requests;
    inst.has_binding = true;
    core::lifecycle::propose_received(config_.trace, now(), me_.value, sqn);
  }
  inst.write_votes.insert(consensus::leader_of(propose.view, config_.n).value);
  auto write = std::make_shared<msg::SmartWrite>();
  write->from = me_;
  write->view = propose.view;
  write->sqn = SeqNum{sqn};
  multicast(std::move(write));
  inst.own_write_sent = true;
  inst.write_votes.insert(me_.value);
  if (inst.own_accept_sent) {
    auto accept = std::make_shared<msg::SmartAccept>();
    accept->from = me_;
    accept->view = view_;
    accept->sqn = SeqNum{sqn};
    multicast(std::move(accept));
  }
  maybe_advance(sqn);
  try_execute();
}

void SmartPrReplica::handle_write(const msg::SmartWrite& write) {
  const std::uint64_t sqn = write.sqn.value;
  if (sqn < log_.next_exec()) return;
  Instance& inst = log_.at(sqn);
  inst.write_votes.insert(write.from.value);
  maybe_advance(sqn);
  try_execute();
}

void SmartPrReplica::maybe_advance(std::uint64_t sqn) {
  Instance& inst = log_.at(sqn);
  if (inst.write_votes.size() >= config_.quorum() && !inst.own_accept_sent) {
    auto accept = std::make_shared<msg::SmartAccept>();
    accept->from = me_;
    accept->view = view_;
    accept->sqn = SeqNum{sqn};
    multicast(std::move(accept));
    inst.own_accept_sent = true;
    inst.accept_votes.insert(me_.value);
    note_accept_quorum(sqn, inst);
  }
}

void SmartPrReplica::note_accept_quorum(std::uint64_t sqn, Instance& inst) {
  core::lifecycle::decision_quorum(config_.trace, now(), me_.value, sqn, inst,
                                   inst.accept_votes.size(), config_.quorum());
}

void SmartPrReplica::handle_accept(const msg::SmartAccept& accept) {
  const std::uint64_t sqn = accept.sqn.value;
  if (sqn < log_.next_exec()) return;
  Instance& inst = log_.at(sqn);
  inst.accept_votes.insert(accept.from.value);
  note_accept_quorum(sqn, inst);
  try_execute();
}

void SmartPrReplica::try_execute() {
  for (;;) {
    Instance* inst = log_.head();
    if (inst == nullptr) return;
    if (!inst->has_binding || inst->executed) return;
    if (inst->accept_votes.size() < config_.quorum()) return;

    for (const msg::Request& request : inst->requests) {
      const RequestId id = request.id;
      if (clients_.executed(id)) {
        ++stats_.duplicates_skipped;
        continue;
      }
      charge(config_.costs.apply_jitter(sm_->execution_cost(request.command), cost_rng_));
      std::vector<std::byte> result = sm_->execute(request.command);
      ++stats_.executed;
      core::lifecycle::executed(config_.trace, now(), me_.value, id, log_.next_exec());
      auto reply = std::make_shared<const msg::Reply>(id, std::move(result));
      clients_.record(id, reply);
      // Free the intake slot and stop the forwarding of this request.
      if (active_.erase(id) > 0) acceptance_->observe_execution(now(), active_.size());
      requests_.erase(id);
      if (auto timer_it = forward_timers_.find(id); timer_it != forward_timers_.end()) {
        cancel_timer(timer_it->second);
        forward_timers_.erase(timer_it);
      }
      send(consensus::client_address(id.cid), reply);
      core::lifecycle::reply_sent(config_.trace, now(), me_.value, id);
      if (on_execute) on_execute(SeqNum{log_.next_exec()}, id);
    }
    inst->executed = true;
    log_.gc_executed(config_.window_size);
    log_.advance_head();
  }
}

void SmartPrReplica::on_restart() {
  for (auto& [id, timer] : forward_timers_) cancel_timer(timer);
  forward_timers_.clear();
  cancel_timer(retransmit_timer_);
  cancel_timer(batch_timer_);
  retransmit_tick();
}

void SmartPrReplica::retransmit_tick() {
  retransmit_timer_ =
      set_timer(config_.retransmit_interval, [this] { retransmit_tick(); });
  if (!is_leader()) return;
  Instance* head = log_.head();
  if (head == nullptr || !head->has_binding || head->executed) {
    retransmit_stall_.reset();
    return;
  }
  if (retransmit_stall_.stalled_at(log_.next_exec())) {
    auto propose = std::make_shared<msg::SmartPropose>();
    propose->view = view_;
    propose->sqn = SeqNum{log_.next_exec()};
    propose->requests = head->requests;
    multicast(std::move(propose));
  }
}

}  // namespace idem::smart
