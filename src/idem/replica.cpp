#include "idem/replica.hpp"

#include <algorithm>
#include <cassert>

#include "common/logging.hpp"
#include "core/executor.hpp"
#include "core/lifecycle.hpp"
#include "core/sharding.hpp"

namespace idem::core {

namespace {
constexpr Duration kFetchRetry = 5 * kMillisecond;
constexpr std::size_t kFetchPrefetch = 64;  // committed instances fetched ahead of the head
constexpr Duration kCheckpointBaseCost = 20 * kMicrosecond;
constexpr double kCheckpointNsPerByte = 1.0;
}  // namespace

IdemReplica::IdemReplica(sim::Runtime& sim, sim::Transport& net, ReplicaId id,
                         IdemConfig config, std::unique_ptr<app::StateMachine> state_machine,
                         std::unique_ptr<AcceptanceTest> acceptance)
    : sim::Node(sim, net, consensus::replica_address(id), sim::NodeKind::Replica),
      config_(config),
      me_(id),
      sm_(std::move(state_machine)),
      acceptance_(std::move(acceptance)),
      rejected_(config.rejected_cache_size),
      checkpoints_(config.checkpoint_interval),
      cost_rng_(sim.seed(), 0xC057'0000ull + id.value) {
  assert(config_.n == 2 * config_.f + 1);
  assert(sm_ != nullptr);
  assert(acceptance_ != nullptr);
  batch_.configure({config_.batch_max, config_.batch_min, config_.batch_flush_delay});
}

void IdemReplica::on_restart() {
  // Timers pending at crash time fired as no-ops while the node was down;
  // drop the stale handles and re-arm the periodic machinery exactly as a
  // rebooted process (with its durable state intact) would.
  for (auto& [id, timer] : forward_timers_) cancel_timer(timer);
  forward_timers_.clear();
  cancel_timer(require_flush_timer_);
  cancel_timer(batch_timer_);
  cancel_timer(state_retry_timer_);
  cancel_timer(progress_timer_);
  arm_progress_timer();
}

Duration IdemReplica::message_cost(const sim::Payload& message) const {
  return config_.costs.cost(message, cost_rng_);
}

Duration IdemReplica::send_cost(const sim::Payload& message) const {
  return config_.costs.send_cost(message, cost_rng_);
}

Duration IdemReplica::message_deadline(const sim::Payload& message) const {
  const auto* base = dynamic_cast<const msg::Message*>(&message);
  if (base == nullptr || base->type() != msg::Type::Request) return 0;
  return static_cast<const msg::Request&>(*base).deadline;
}

void IdemReplica::multicast(sim::PayloadPtr message) {
  for (std::uint32_t i = 0; i < config_.n; ++i) {
    if (i == me_.value) continue;
    send(consensus::replica_address(ReplicaId{i}), message);
  }
}

void IdemReplica::send_to_leader(sim::PayloadPtr message) {
  ReplicaId leader = consensus::leader_of(views_.leader_view(), config_.n);
  if (leader == me_) return;  // callers short-circuit local handling
  send(consensus::replica_address(leader), std::move(message));
}

void IdemReplica::reply_to_client(ClientId cid, sim::PayloadPtr message) {
  send(consensus::client_address(cid), std::move(message));
}

void IdemReplica::on_message(sim::NodeId from, const sim::Payload& message) {
  const auto* base = dynamic_cast<const msg::Message*>(&message);
  if (base == nullptr) return;
  switch (base->type()) {
    case msg::Type::Request:
      handle_request(static_cast<const msg::Request&>(*base));
      break;
    case msg::Type::Require: {
      const auto& require = static_cast<const msg::Require&>(*base);
      for (RequestId id : require.ids) {
        maybe_adopt_required(id);
        note_require(require.from, id);
      }
      break;
    }
    case msg::Type::Propose:
      handle_propose(static_cast<const msg::Propose&>(*base));
      break;
    case msg::Type::Commit:
      handle_commit(static_cast<const msg::Commit&>(*base));
      break;
    case msg::Type::Forward:
      handle_forward(static_cast<const msg::Forward&>(*base));
      break;
    case msg::Type::Fetch:
      handle_fetch(consensus::replica_of_address(from), static_cast<const msg::Fetch&>(*base));
      break;
    case msg::Type::ViewChange:
      handle_viewchange(static_cast<const msg::ViewChange&>(*base));
      break;
    case msg::Type::StateRequest:
      handle_state_request(static_cast<const msg::StateRequest&>(*base));
      break;
    case msg::Type::StateResponse:
      handle_state_response(static_cast<const msg::StateResponse&>(*base));
      break;
    default:
      // Messages of other protocols are ignored (shared message namespace).
      break;
  }
}

// ---------------------------------------------------------------------------
// Request intake
// ---------------------------------------------------------------------------

void IdemReplica::handle_request(const msg::Request& request) {
  ++stats_.requests_received;
  const RequestId id = request.id;

  if (clients_.executed(id)) {
    // Already executed (client retransmission): re-send the cached reply if
    // it is for exactly this operation.
    if (auto reply = clients_.cached_reply(id)) reply_to_client(id.cid, std::move(reply));
    return;
  }

  // This request is proof that every lower-numbered operation of the same
  // client is resolved — reclaim any their abandoned copies still hold.
  if (config_.release_superseded) release_superseded(id);

  if (requests_.contains(id)) return;  // already accepted; agreement is underway

  // Shard admission (sharded deployments only): foreign keys are turned
  // away with a redirect before the acceptance test, frozen ranges reject
  // retryably mid-reconfiguration. Runs after duplicate suppression so a
  // retransmission of a request executed before its range moved still gets
  // the cached reply instead of a bogus redirect.
  if (config_.shard_gate != nullptr) {
    const ShardVerdict verdict = config_.shard_gate->admit(request.command);
    if (verdict.kind == ShardVerdict::Kind::WrongShard) {
      ++stats_.rejected;
      ++stats_.wrong_shard;
      config_.telemetry.count_reject(RejectReason::WrongShard);
      lifecycle::accept_verdict(config_.trace, now(), me_.value, id, false,
                                RejectReason::WrongShard);
      auto reject = std::make_shared<msg::Reject>(id, RejectReason::WrongShard);
      reject->map_epoch = verdict.map_epoch;
      reject->home_group = verdict.home_group;
      // Not cached in rejected_: the body must never be adopted into this
      // group's agreement via REQUIRE/FETCH once the key routes elsewhere.
      reply_to_client(id.cid, std::move(reject));
      return;
    }
    if (verdict.kind == ShardVerdict::Kind::Frozen) {
      lifecycle::accept_verdict(config_.trace, now(), me_.value, id, false,
                                RejectReason::ViewChangeInProgress);
      reject_request(request, RejectReason::ViewChangeInProgress);
      return;
    }
  }

  // A previously rejected request (still cached) is re-tested below: the
  // acceptance test is explicitly time-varying (Section 5.1), so a
  // retransmission may well be accepted now that load has dropped —
  // accept_request() then promotes the body out of the cache.

  AcceptanceContext ctx;
  ctx.active_requests = active_.size();
  ctx.reject_threshold = config_.reject_threshold;
  ctx.now = now();
  ctx.deadline = request.deadline;
  RejectReason reason = RejectReason::None;
  if (acceptance_->accept(id, request.command, ctx, reason)) {
    lifecycle::accept_verdict(config_.trace, now(), me_.value, id, true);
    accept_request(id, request.command, /*client_issued=*/true, request.deadline);
  } else {
    // Replica-owned classification outranks the test's generic verdict: a
    // reject during a view change names the view change, and a reject of
    // a request already sitting in the rejected cache is a retransmission
    // bouncing off it. (find() is const — classification never perturbs
    // the trajectory.)
    if (views_.in_viewchange()) {
      reason = RejectReason::ViewChangeInProgress;
    } else if (rejected_.find(id) != nullptr) {
      reason = RejectReason::RejectedCacheHit;
    }
    lifecycle::accept_verdict(config_.trace, now(), me_.value, id, false, reason);
    reject_request(request, reason);
  }
}

void IdemReplica::release_superseded(RequestId newer) {
  // Clients issue one operation at a time: an incoming (cid, onr) means
  // every (cid, onr' < onr) is resolved from the client's point of view.
  // One of those may still sit in active_ here — accepted by this replica,
  // rejected by enough others that the client gave up — where it can never
  // be executed or replied to (the client table supersedes it the moment
  // the newer operation executes, and forward/REQUIRE/propose all drop
  // superseded ids). Erase it so it stops counting against r_now; keep the
  // body findable through the rejected cache in case a concurrent binding
  // still FETCHes it.
  std::vector<RequestId> stale;  // active_ is capped at r, so the sweep is O(r)
  for (const RequestId& id : active_) {
    if (id.cid == newer.cid && id.onr.value < newer.onr.value) stale.push_back(id);
  }
  for (const RequestId& id : stale) {
    active_.erase(id);
    arrival_.erase(id);
    if (auto timer_it = forward_timers_.find(id); timer_it != forward_timers_.end()) {
      cancel_timer(timer_it->second);
      forward_timers_.erase(timer_it);
    }
    // A proposed id is bound to an instance: execution still needs the
    // body under requests_, and execute_instance does its own cleanup.
    if (auto body_it = requests_.find(id);
        body_it != requests_.end() && !proposed_.contains(id)) {
      rejected_.insert(id, std::move(body_it->second));
      requests_.erase(body_it);
    }
    ++stats_.superseded_released;
  }
}

void IdemReplica::accept_request(RequestId id, std::vector<std::byte> command,
                                 bool client_issued, Duration deadline) {
  requests_[id] = std::move(command);
  rejected_.erase(id);
  if (client_issued) {
    active_.insert(id);
    ++stats_.accepted;
    if (config_.telemetry.enabled()) config_.telemetry.count_accept();
    if (config_.telemetry.enabled() || deadline > 0) {
      arrival_[id] = Arrival{now(), deadline};
    }
  } else {
    ++stats_.forward_accepted;
    lifecycle::forward_accepted(config_.trace, now(), me_.value, id);
  }
  arm_forward_timer(id);
  queue_require(id);
  arm_progress_timer();
}

void IdemReplica::reject_request(const msg::Request& request, RejectReason reason) {
  ++stats_.rejected;
  config_.telemetry.count_reject(reason);
  rejected_.insert(request.id, request.command);
  reply_to_client(request.id.cid, std::make_shared<const msg::Reject>(request.id, reason));
}

void IdemReplica::finish_request_tracking(RequestId id, bool replied) {
  auto it = arrival_.find(id);
  if (it == arrival_.end()) return;  // arrived via FORWARD/FETCH, not a client REQUEST
  if (replied) {
    const Duration latency = now() - it->second.at;
    if (config_.telemetry.enabled()) config_.telemetry.record_reply_latency(latency);
    if (it->second.deadline > 0 && latency > it->second.deadline) {
      ++stats_.deadline_misses;
      config_.telemetry.count_deadline_miss();
    }
  }
  arrival_.erase(it);
}

void IdemReplica::queue_require(RequestId id) {
  if (is_leader()) {
    note_require(me_, id);
    return;
  }
  pending_requires_.push_back(id);
  if (pending_requires_.size() >= config_.require_batch_max) {
    flush_requires();
  } else if (!require_flush_timer_.valid()) {
    require_flush_timer_ = set_timer(config_.require_flush_interval, [this] {
      require_flush_timer_ = sim::TimerId{};
      flush_requires();
    });
  }
}

void IdemReplica::flush_requires() {
  cancel_timer(require_flush_timer_);
  if (pending_requires_.empty()) return;
  auto require = std::make_shared<msg::Require>();
  require->from = me_;
  require->ids = std::move(pending_requires_);
  pending_requires_.clear();
  if (is_leader()) {
    for (RequestId id : require->ids) note_require(me_, id);
  } else {
    send_to_leader(std::move(require));
  }
}

// ---------------------------------------------------------------------------
// Agreement
// ---------------------------------------------------------------------------

void IdemReplica::maybe_adopt_required(RequestId id) {
  if (!config_.require_adoption) return;
  if (requests_.contains(id) || clients_.executed(id) || proposed_.contains(id)) return;
  const std::vector<std::byte>* body = rejected_.find(id);
  if (body == nullptr) return;
  // The REQUIRE proves another replica accepted this request, so it must be
  // ordered regardless of our verdict — exactly the FORWARD-acceptance
  // argument, minus the forward-timeout wait. Non-client-issued: adoption
  // must not consume an r_now slot. (*body is copied into the argument
  // before accept_request evicts it from the cache.)
  accept_request(id, *body, /*client_issued=*/false);
  ++stats_.requires_adopted;
}

void IdemReplica::note_require(ReplicaId voter, RequestId id) {
  if (clients_.executed(id)) return;
  if (proposed_.contains(id)) return;
  lifecycle::require_noted(config_.trace, now(), me_.value, id, voter.value);
  std::size_t votes = requires_.vote(id, voter);
  if (votes >= config_.quorum() && !in_eligible_.contains(id)) {
    in_eligible_.insert(id);
    batch_.push(id, now());
    arm_progress_timer();
  }
  if (config_.defer_propose) {
    // Collect every quorum completed in this scheduling step into one
    // PROPOSE: the zero-delay timer fires after the step's input batch is
    // drained but before the loop sleeps, so batching costs no latency.
    if (!propose_cut_timer_.valid()) {
      propose_cut_timer_ = set_timer(0, [this] {
        propose_cut_timer_ = sim::TimerId{};
        try_propose();
      });
    }
    return;
  }
  try_propose();
}

void IdemReplica::try_propose() {
  if (!is_leader()) return;
  if (next_sqn_ < log_.low()) next_sqn_ = log_.low();
  const std::uint64_t window_end = log_.low() + config_.effective_window();
  while (!batch_.empty() && next_sqn_ < window_end) {
    if (!batch_.ready(now())) {
      arm_batch_timer();
      break;
    }
    // Skip sequence numbers that already carry a binding (re-proposed slots
    // taken over from an earlier view).
    next_sqn_ = log_.skip_bound(next_sqn_);
    if (next_sqn_ >= window_end) break;

    std::vector<RequestId> batch;
    batch_.cut([&](RequestId id) {
      in_eligible_.erase(id);
      if (clients_.executed(id) || proposed_.contains(id)) {
        return BatchPipeline<RequestId>::Verdict::Drop;
      }
      batch.push_back(id);
      return BatchPipeline<RequestId>::Verdict::Take;
    });
    if (batch.empty()) break;

    Instance& inst = log_.at(next_sqn_);
    inst.view = views_.view();
    inst.ids = batch;
    inst.has_binding = true;
    inst.own_commit_sent = true;  // the leader's proposal counts as a commit
    inst.commit_votes.insert(me_.value);
    for (RequestId id : batch) {
      proposed_.insert(id);
      requires_.erase(id);
      lifecycle::proposed(config_.trace, now(), me_.value, id, next_sqn_);
    }
    lifecycle::propose_received(config_.trace, now(), me_.value, next_sqn_);
    note_commit_quorum(next_sqn_, inst);

    auto propose = std::make_shared<msg::Propose>();
    propose->view = views_.view();
    propose->sqn = SeqNum{next_sqn_};
    propose->ids = std::move(batch);
    multicast(std::move(propose));
    ++stats_.proposals_sent;
    ++next_sqn_;
  }
  try_execute();
}

void IdemReplica::arm_batch_timer() {
  // Only reachable with batch_min > 1 and a nonzero flush delay (the
  // defaults cut every nonempty queue immediately).
  if (batch_timer_.valid()) return;
  batch_timer_ = set_timer(batch_.delay_until_ready(now()), [this] {
    batch_timer_ = sim::TimerId{};
    try_propose();
  });
}

bool IdemReplica::observe_view(ViewId view) {
  switch (views_.observe(view)) {
    case ViewEngine<msg::ViewChange>::Observe::Ignore:
      return false;
    case ViewEngine<msg::ViewChange>::Observe::Process:
      return true;
    case ViewEngine<msg::ViewChange>::Observe::Enter:
      enter_view(view);
      return true;
  }
  return false;
}

void IdemReplica::adopt_binding(std::uint64_t sqn, ViewId view, const std::vector<RequestId>& ids) {
  if (sqn < log_.low()) return;
  Instance& inst = log_.at(sqn);
  if (inst.executed) return;  // applied state is immutable
  if (inst.has_binding && inst.view >= view) return;
  if (!inst.has_binding) {
    lifecycle::propose_received(config_.trace, now(), me_.value, sqn);
  }
  inst.view = view;
  inst.ids = ids;
  inst.has_binding = true;
  inst.own_commit_sent = false;
  inst.commit_votes.clear();
}

void IdemReplica::note_commit_quorum(std::uint64_t sqn, Instance& inst) {
  lifecycle::decision_quorum(config_.trace, now(), me_.value, sqn, inst,
                             inst.commit_votes.size(), config_.quorum());
}

void IdemReplica::add_commit_vote(std::uint64_t sqn, ReplicaId voter) {
  if (sqn < log_.low()) return;
  Instance* inst = log_.find(sqn);
  if (inst == nullptr) return;
  inst->commit_votes.insert(voter.value);
}

void IdemReplica::handle_propose(const msg::Propose& propose) {
  if (!observe_view(propose.view)) return;
  const std::uint64_t sqn = propose.sqn.value;
  if (sqn < log_.low()) return;

  adopt_binding(sqn, propose.view, propose.ids);
  Instance& inst = log_.at(sqn);
  if (inst.view != propose.view) return;  // a newer binding superseded this

  // The leader's proposal counts as its commit.
  inst.commit_votes.insert(consensus::leader_of(propose.view, config_.n).value);
  if (!inst.own_commit_sent) {
    auto commit = std::make_shared<msg::Commit>();
    commit->from = me_;
    commit->view = inst.view;
    commit->sqn = SeqNum{sqn};
    commit->ids = inst.ids;
    if (config_.commit_to_leader_only && config_.f == 1 && !is_leader()) {
      send_to_leader(std::move(commit));
    } else {
      multicast(std::move(commit));
    }
    inst.own_commit_sent = true;
    inst.commit_votes.insert(me_.value);
  }
  note_commit_quorum(sqn, inst);
  observe_sequence(sqn, consensus::leader_of(propose.view, config_.n));
  try_execute();
}

void IdemReplica::handle_commit(const msg::Commit& commit) {
  if (!observe_view(commit.view)) return;
  const std::uint64_t sqn = commit.sqn.value;
  if (sqn < log_.low()) return;

  // Commits echo the proposal, so a replica that missed the PROPOSE still
  // learns the binding here.
  adopt_binding(sqn, commit.view, commit.ids);
  Instance& inst = log_.at(sqn);
  if (inst.view != commit.view) return;

  inst.commit_votes.insert(commit.from.value);
  inst.commit_votes.insert(consensus::leader_of(commit.view, config_.n).value);
  if (!inst.own_commit_sent) {
    auto own = std::make_shared<msg::Commit>();
    own->from = me_;
    own->view = inst.view;
    own->sqn = SeqNum{sqn};
    own->ids = inst.ids;
    if (config_.commit_to_leader_only && config_.f == 1 && !is_leader()) {
      send_to_leader(std::move(own));
    } else {
      multicast(std::move(own));
    }
    inst.own_commit_sent = true;
    inst.commit_votes.insert(me_.value);
  }
  note_commit_quorum(sqn, inst);
  observe_sequence(sqn, commit.from);
  try_execute();
}

bool IdemReplica::fetch_missing(std::uint64_t sqn, Instance& inst) {
  std::vector<RequestId> missing;
  for (RequestId id : inst.ids) {
    if (clients_.executed(id)) continue;
    if (find_command(id) == nullptr) missing.push_back(id);
  }
  if (missing.empty()) return false;
  if (!inst.fetch_gate.allow(now(), kFetchRetry)) return true;
  // Ask a replica that committed this instance (it executed or will
  // execute it, so it owns the bodies or can get them).
  ReplicaId target = consensus::leader_of(inst.view, config_.n);
  for (std::uint32_t voter : inst.commit_votes) {
    if (voter != me_.value) {
      target = ReplicaId{voter};
      break;
    }
  }
  for (RequestId id : missing) {
    auto fetch = std::make_shared<msg::Fetch>();
    fetch->from = me_;
    fetch->id = id;
    send(consensus::replica_address(target), std::move(fetch));
    ++stats_.fetches_sent;
  }
  (void)sqn;
  return true;
}

void IdemReplica::try_execute() {
  // While the executor holds the head instance, execution order is already
  // pinned; we resume from finish_async_execute.
  if (exec_inflight_) return;
  for (;;) {
    auto it = log_.slots().find(log_.next_exec());
    if (it == log_.slots().end()) return;
    Instance& inst = it->second;
    if (!inst.has_binding || inst.executed) return;
    if (inst.commit_votes.size() < config_.quorum()) return;

    if (fetch_missing(log_.next_exec(), inst)) {
      // The head is blocked on missing bodies. Prefetch for the committed
      // instances behind it too: fetching one instance per round trip
      // would otherwise serialize catch-up at network latency.
      std::size_t prefetched = 0;
      for (auto ahead = std::next(it);
           ahead != log_.slots().end() && prefetched < kFetchPrefetch; ++ahead, ++prefetched) {
        Instance& future = ahead->second;
        if (!future.has_binding || future.executed) continue;
        if (future.commit_votes.size() < config_.quorum()) continue;
        fetch_missing(ahead->first, future);
      }
      // Retry via timer in case fetch responses are lost.
      set_timer(kFetchRetry, [this] { try_execute(); });
      return;
    }

    if (config_.executor != nullptr) {
      begin_async_execute(log_.next_exec(), inst);
      return;
    }
    execute_instance(log_.next_exec(), inst);
    maybe_checkpoint(log_.next_exec());
    log_.advance_head();
    note_progress();
  }
}

void IdemReplica::begin_async_execute(std::uint64_t sqn, Instance& inst) {
  // Duplicates are filtered at submission (nothing can execute them in the
  // meantime: only this path executes, and only one instance is in
  // flight). Command bodies are copied because find_command may point into
  // the rejected cache, which evicts under LRU while the executor runs.
  exec_ids_.clear();
  std::vector<std::vector<std::byte>> commands;
  for (RequestId id : inst.ids) {
    if (clients_.executed(id)) {
      ++stats_.duplicates_skipped;
      continue;
    }
    const std::vector<std::byte>* command = find_command(id);
    assert(command != nullptr);
    exec_ids_.push_back(id);
    commands.push_back(*command);
  }
  // Earliest deadline across the batch, for executors shared by several
  // submitters (EDF drain order); 0 = nothing in the batch carries one.
  Time due = 0;
  for (RequestId id : exec_ids_) {
    auto it = arrival_.find(id);
    if (it == arrival_.end() || it->second.deadline <= 0) continue;
    Time candidate = it->second.at + it->second.deadline;
    if (due == 0 || candidate < due) due = candidate;
  }
  exec_inflight_ = true;
  ++stats_.exec_offloaded;
  config_.executor->execute(
      *sm_, std::move(commands), due,
      [this, sqn](std::vector<std::vector<std::byte>> results) {
        finish_async_execute(sqn, std::move(results));
      });
}

void IdemReplica::finish_async_execute(std::uint64_t sqn,
                                       std::vector<std::vector<std::byte>> results) {
  exec_inflight_ = false;
  assert(sqn == log_.next_exec());
  auto it = log_.slots().find(sqn);
  assert(it != log_.slots().end());
  Instance& inst = it->second;

  assert(results.size() == exec_ids_.size());
  for (std::size_t i = 0; i < exec_ids_.size(); ++i) {
    RequestId id = exec_ids_[i];
    ++stats_.executed;
    lifecycle::executed(config_.trace, now(), me_.value, id, sqn);
    auto reply = std::make_shared<const msg::Reply>(id, std::move(results[i]));
    clients_.record(id, reply);
    if (active_.erase(id) > 0) acceptance_->observe_execution(now(), active_.size());
    if (auto timer_it = forward_timers_.find(id); timer_it != forward_timers_.end()) {
      cancel_timer(timer_it->second);
      forward_timers_.erase(timer_it);
    }
    if (is_leader()) {
      reply_to_client(id.cid, reply);
      lifecycle::reply_sent(config_.trace, now(), me_.value, id);
    }
    finish_request_tracking(id, is_leader());
    if (on_execute) on_execute(SeqNum{sqn}, id);
  }
  exec_ids_.clear();
  inst.executed = true;
  maybe_checkpoint(sqn);
  log_.advance_head();
  note_progress();
  try_execute();
}

void IdemReplica::execute_instance(std::uint64_t sqn, Instance& inst) {
  for (RequestId id : inst.ids) {
    if (clients_.executed(id)) {
      ++stats_.duplicates_skipped;
      continue;
    }
    const std::vector<std::byte>* command = find_command(id);
    assert(command != nullptr);
    charge(config_.costs.apply_jitter(sm_->execution_cost(*command), cost_rng_));
    std::vector<std::byte> result = sm_->execute(*command);
    ++stats_.executed;
    lifecycle::executed(config_.trace, now(), me_.value, id, sqn);
    auto reply = std::make_shared<const msg::Reply>(id, std::move(result));
    clients_.record(id, reply);
    if (active_.erase(id) > 0) acceptance_->observe_execution(now(), active_.size());
    if (auto timer_it = forward_timers_.find(id); timer_it != forward_timers_.end()) {
      cancel_timer(timer_it->second);
      forward_timers_.erase(timer_it);
    }
    if (is_leader()) {
      reply_to_client(id.cid, reply);
      lifecycle::reply_sent(config_.trace, now(), me_.value, id);
    }
    finish_request_tracking(id, is_leader());
    if (on_execute) on_execute(SeqNum{sqn}, id);
  }
  inst.executed = true;
}

// ---------------------------------------------------------------------------
// Availability: forwarding, rejected cache, fetch (Section 5.2)
// ---------------------------------------------------------------------------

void IdemReplica::arm_forward_timer(RequestId id) {
  if (forward_timers_.contains(id)) return;
  forward_timers_[id] = set_timer(config_.forward_timeout, [this, id] {
    forward_timers_.erase(id);
    forward_request(id);
  });
}

void IdemReplica::forward_request(RequestId id) {
  if (clients_.executed(id)) return;
  auto body_it = requests_.find(id);
  if (body_it == requests_.end()) return;

  auto forward = std::make_shared<msg::Forward>();
  forward->from = me_;
  forward->requests.emplace_back(id, body_it->second);
  multicast(std::move(forward));
  ++stats_.forwards_sent;
  // Keep relaying periodically until the request is executed (fair-loss
  // links: eventual delivery needs retransmission).
  arm_forward_timer(id);
}

void IdemReplica::handle_forward(const msg::Forward& forward) {
  for (const msg::Request& request : forward.requests) {
    if (clients_.executed(request.id)) continue;
    if (requests_.contains(request.id)) continue;
    // Forwarded requests are accepted regardless of the current load
    // (Section 4.3): some replica accepted them, so they must be ordered.
    accept_request(request.id, request.command, /*client_issued=*/false);
  }
}

void IdemReplica::handle_fetch(ReplicaId from, const msg::Fetch& fetch) {
  const std::vector<std::byte>* command = find_command(fetch.id);
  if (command == nullptr) return;
  auto forward = std::make_shared<msg::Forward>();
  forward->from = me_;
  forward->requests.emplace_back(fetch.id, *command);
  send(consensus::replica_address(from), std::move(forward));
}

const std::vector<std::byte>* IdemReplica::find_command(RequestId id) const {
  if (auto it = requests_.find(id); it != requests_.end()) return &it->second;
  return rejected_.find(id);
}

// ---------------------------------------------------------------------------
// Implicit garbage collection and checkpoints (Section 4.4)
// ---------------------------------------------------------------------------

void IdemReplica::request_state_transfer(ReplicaId source) {
  if (state_transfer_pending_) return;
  state_transfer_pending_ = true;
  state_transfer_source_ = source;
  auto request = std::make_shared<msg::StateRequest>();
  request->from = me_;
  request->have = SeqNum{log_.next_exec() == 0 ? 0 : log_.next_exec() - 1};
  send(consensus::replica_address(source), std::move(request));
  // The peer stays silent when it has no newer checkpoint (or the
  // response is lost): release the latch after a while and re-evaluate,
  // or this replica could never ask again.
  cancel_timer(state_retry_timer_);
  state_retry_timer_ = set_timer(250 * kMillisecond, [this] {
    state_retry_timer_ = sim::TimerId{};
    state_transfer_pending_ = false;
    maybe_request_state();
  });
}

void IdemReplica::maybe_request_state() {
  // A bound instance ahead of an unbound execution head means the missing
  // slots may have been garbage-collected cluster-wide: only a checkpoint
  // can bridge the gap.
  const Instance* head = log_.find(log_.next_exec());
  if (head != nullptr && head->has_binding) return;
  auto ahead = log_.slots().upper_bound(log_.next_exec());
  while (ahead != log_.slots().end() && !ahead->second.has_binding) ++ahead;
  if (ahead == log_.slots().end()) return;

  ReplicaId target = consensus::leader_of(ahead->second.view, config_.n);
  for (std::uint32_t voter : ahead->second.commit_votes) {
    if (voter != me_.value) {
      target = ReplicaId{voter};
      break;
    }
  }
  if (target == me_) {
    target = ReplicaId{static_cast<std::uint32_t>((me_.value + 1) % config_.n)};
  }
  request_state_transfer(target);
}

void IdemReplica::observe_sequence(std::uint64_t sqn, ReplicaId source) {
  const std::uint64_t r_max = config_.r_max();
  if (sqn < log_.low() + r_max) return;
  std::uint64_t new_low = sqn - r_max + 1;

  if (new_low > log_.next_exec()) {
    // We are lagging: f+1 replicas have executed past our window, so the
    // old instances may be gone system-wide. Catch up via checkpoint.
    request_state_transfer(source);
    new_low = log_.next_exec();
  }
  if (new_low > log_.low()) advance_window(new_low);
}

void IdemReplica::advance_window(std::uint64_t new_low) {
  log_.advance_low(new_low, [this](Instance& inst) {
    for (RequestId id : inst.ids) {
      requests_.erase(id);
      proposed_.erase(id);
    }
  });
}

void IdemReplica::maybe_checkpoint(std::uint64_t executed_sqn) {
  if (!checkpoints_.due(SeqNum{executed_sqn})) return;
  // Release the previous checkpoint before freezing again: a copy-on-write
  // state machine would otherwise have to materialize its frozen state.
  // Execution only moves forward, so the new checkpoint is the newest.
  checkpoints_.clear();
  consensus::Checkpoint checkpoint;
  checkpoint.upto = SeqNum{executed_sqn};
  checkpoint.state = sm_->checkpoint();
  // Simulated CPU still pays for a full serialization, as when checkpoints
  // were serialized eagerly: the model's cost, not the host's.
  charge(kCheckpointBaseCost + static_cast<Duration>(kCheckpointNsPerByte *
                                                     static_cast<double>(checkpoint.state->size())));
  checkpoint.last_executed = {clients_.sessions().begin(), clients_.sessions().end()};
  checkpoints_.store(std::move(checkpoint));
  ++stats_.checkpoints_created;
}

void IdemReplica::handle_state_request(const msg::StateRequest& request) {
  const auto& latest = checkpoints_.latest();
  if (!latest || latest->upto.value <= request.have.value) return;
  // Building the bytes reads the state machine, which an in-flight executor
  // batch is writing: stay silent, the requester asks again after 250 ms.
  if (exec_inflight_) return;
  auto response = std::make_shared<msg::StateResponse>();
  response->from = me_;
  response->upto = latest->upto;
  response->snapshot = latest->state->bytes();
  response->last_executed.reserve(latest->last_executed.size());
  for (const auto& [cid, onr] : latest->last_executed) {
    response->last_executed.emplace_back(ClientId{cid}, OpNum{onr});
  }
  send(consensus::replica_address(request.from), std::move(response));
}

void IdemReplica::handle_state_response(const msg::StateResponse& response) {
  // Only accept the response we asked for, from the replica we asked:
  // unsolicited or duplicate checkpoints must not be able to replace
  // state (a replica never needs state it did not request).
  if (!state_transfer_pending_ || response.from != state_transfer_source_) return;
  // restore() while the executor runs would race the state machine; keep
  // the latch set and let the retry timer ask again once execution drains.
  if (exec_inflight_) return;
  state_transfer_pending_ = false;
  if (response.upto.value < log_.next_exec()) return;  // stale; we caught up meanwhile
  try {
    sm_->restore(response.snapshot);
  } catch (const CodecError&) {
    // Malformed snapshot (buggy or hostile sender): restore() is strongly
    // exception-safe by contract, so our state is untouched — drop it.
    return;
  }
  charge(kCheckpointBaseCost + static_cast<Duration>(kCheckpointNsPerByte *
                                                     static_cast<double>(response.snapshot.size())));
  for (const auto& [cid, onr] : response.last_executed) {
    clients_.merge_executed(cid, onr);
  }
  // Cached replies are stale after a restore; clients retransmit if needed.
  clients_.clear_replies();
  log_.set_next_exec(response.upto.value + 1);
  if (log_.next_exec() > log_.low()) advance_window(log_.next_exec());
  // Drop active entries that the checkpoint proves executed.
  for (auto it = active_.begin(); it != active_.end();) {
    if (clients_.executed(*it)) {
      if (auto timer_it = forward_timers_.find(*it); timer_it != forward_timers_.end()) {
        cancel_timer(timer_it->second);
        forward_timers_.erase(timer_it);
      }
      it = active_.erase(it);
    } else {
      ++it;
    }
  }
  ++stats_.state_transfers;
  cancel_timer(state_retry_timer_);
  try_execute();
  // The checkpoint may still be older than the cluster's GC line (the
  // peer simply shipped its newest): if a gap remains, ask again — by
  // then the peer has likely checkpointed further.
  maybe_request_state();
}

// ---------------------------------------------------------------------------
// View change (Section 4.5)
// ---------------------------------------------------------------------------

bool IdemReplica::has_outstanding_work() const {
  if (!active_.empty() || !batch_.empty()) return true;
  auto it = log_.slots().lower_bound(log_.next_exec());
  return it != log_.slots().end() && it->second.has_binding && !it->second.executed;
}

void IdemReplica::arm_progress_timer() {
  if (progress_timer_.valid()) return;
  if (!has_outstanding_work()) return;
  progress_timer_ = set_timer(config_.viewchange_timeout, [this] {
    progress_timer_ = sim::TimerId{};
    if (!has_outstanding_work()) return;
    start_viewchange(views_.next_target());
  });
}

void IdemReplica::note_progress() {
  cancel_timer(progress_timer_);
  arm_progress_timer();
}

void IdemReplica::start_viewchange(ViewId target) {
  if (!views_.begin(target)) return;
  ++stats_.view_changes;
  lifecycle::viewchange_start(config_.trace, now(), me_.value, target.value);

  auto viewchange = std::make_shared<msg::ViewChange>();
  viewchange->from = me_;
  viewchange->target = target;
  viewchange->window_start = SeqNum{log_.low()};
  for (const auto& [sqn, inst] : log_.slots()) {
    if (!inst.has_binding) continue;
    msg::WindowEntry entry;
    entry.sqn = SeqNum{sqn};
    entry.view = inst.view;
    entry.items = inst.ids;
    viewchange->proposals.push_back(std::move(entry));
  }
  views_.store_own(me_.value, *viewchange);
  multicast(viewchange);

  // Make sure the prospective leader learns about our accepted requests;
  // REQUIREs sent to the crashed leader are lost with it.
  resend_requires();

  // Safeguard: if this view change does not complete, try the next view.
  cancel_timer(progress_timer_);
  arm_progress_timer();

  maybe_become_leader(target);
}

void IdemReplica::handle_viewchange(const msg::ViewChange& viewchange) {
  if (viewchange.target <= views_.view()) return;
  views_.store(viewchange);

  // A replica already amid a view change adopts a higher target right
  // away: independent timeout escalation would otherwise let stragglers
  // chase each other's targets forever.
  if (views_.should_escalate(viewchange.target)) {
    start_viewchange(viewchange.target);
    return;
  }

  // Join the view change once f+1 replicas demand it: the current view no
  // longer has enough support to make progress.
  if (!views_.joined(viewchange.target) &&
      views_.matching(viewchange.target) >= config_.quorum()) {
    start_viewchange(viewchange.target);
    return;  // start_viewchange re-runs maybe_become_leader
  }
  maybe_become_leader(viewchange.target);
}

void IdemReplica::maybe_become_leader(ViewId target) {
  if (consensus::leader_of(target, config_.n) != me_) return;
  if (views_.view() >= target) return;
  if (!views_.in_viewchange() || views_.target() != target) return;
  if (views_.matching(target) < config_.quorum()) return;

  // Merge the collected windows: per slot, the binding of the newest view
  // wins (adopt_binding enforces that).
  views_.for_each_matching(target, [this](const msg::ViewChange& stored) {
    for (const auto& entry : stored.proposals) {
      adopt_binding(entry.sqn.value, entry.view, entry.items);
    }
  });

  enter_view(target);

  // Determine the first free sequence number and fill binding gaps with
  // no-ops so execution cannot stall behind a hole.
  std::uint64_t high =
      log_.high_watermark(log_.low(), [](const Instance& inst) { return inst.has_binding; });
  if (next_sqn_ < high) next_sqn_ = high;
  if (next_sqn_ < log_.low()) next_sqn_ = log_.low();

  for (std::uint64_t sqn = std::max(log_.low(), log_.next_exec()); sqn < high; ++sqn) {
    Instance& inst = log_.at(sqn);
    if (inst.executed) continue;
    if (!inst.has_binding) {
      inst.ids.clear();  // no-op filler
      inst.has_binding = true;
    }
    // Re-propose under the new view; old-view commit votes are void.
    inst.view = views_.view();
    inst.commit_votes.clear();
    inst.commit_votes.insert(me_.value);
    inst.own_commit_sent = true;
    for (RequestId id : inst.ids) {
      proposed_.insert(id);
      lifecycle::proposed(config_.trace, now(), me_.value, id, sqn);
    }

    auto propose = std::make_shared<msg::Propose>();
    propose->view = views_.view();
    propose->sqn = SeqNum{sqn};
    propose->ids = inst.ids;
    multicast(std::move(propose));
    ++stats_.proposals_sent;
  }

  try_propose();
  try_execute();
}

void IdemReplica::enter_view(ViewId view) {
  views_.enter(view);
  lifecycle::viewchange_done(config_.trace, now(), me_.value, view.value);
  resend_requires();
  note_progress();
}

void IdemReplica::resend_requires() {
  // Tell the (new) leader about every request we own that is still
  // unexecuted; its REQUIRE bookkeeping may have died with the old leader.
  std::vector<RequestId> outstanding;
  for (const auto& [id, command] : requests_) {
    if (clients_.executed(id)) continue;
    outstanding.push_back(id);
  }
  if (outstanding.empty()) return;

  if (consensus::leader_of(views_.leader_view(), config_.n) == me_) {
    for (RequestId id : outstanding) note_require(me_, id);
  } else {
    auto require = std::make_shared<msg::Require>();
    require->from = me_;
    require->ids = std::move(outstanding);
    send_to_leader(std::move(require));
  }
}

}  // namespace idem::core
