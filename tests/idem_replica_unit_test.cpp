// White-box unit tests for IdemReplica: the replica is driven with raw
// protocol messages through the simulated transport, bypassing clients
// and other replicas, to pin down edge-case behaviours (out-of-order
// agreement messages, stale views, duplicate requests, GC math,
// re-replies) that the integration tests only exercise implicitly.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/kv_store.hpp"
#include "core/executor.hpp"
#include "idem/replica.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace idem {
namespace {

/// A scriptable peer that records everything a replica sends to it and
/// can inject arbitrary messages.
class Probe final : public sim::Node {
 public:
  Probe(sim::Simulator& sim, sim::SimNetwork& net, sim::NodeId id,
        sim::NodeKind kind = sim::NodeKind::Replica)
      : sim::Node(sim, net, id, kind) {}

  std::vector<std::shared_ptr<const msg::Message>> received;

  template <typename M>
  std::vector<const M*> received_of() const {
    std::vector<const M*> out;
    for (const auto& message : received) {
      if (const auto* typed = dynamic_cast<const M*>(message.get())) out.push_back(typed);
    }
    return out;
  }

  void inject(sim::NodeId to, sim::PayloadPtr message) { send(to, std::move(message)); }

 protected:
  void on_message(sim::NodeId, const sim::Payload& message) override {
    if (const auto* typed = dynamic_cast<const msg::Message*>(&message)) {
      // Re-decode to keep an owning copy.
      received.push_back(msg::decode(typed->encode()));
    }
  }
};

struct ReplicaFixture {
  sim::Simulator sim{17};
  sim::NetworkConfig net_config;
  std::unique_ptr<sim::SimNetwork> net;
  std::unique_ptr<core::IdemReplica> replica;  // replica 1 (follower in view 0)
  std::unique_ptr<Probe> leader;               // poses as replica 0 = leader of view 0
  std::unique_ptr<Probe> peer;                 // poses as replica 2
  std::unique_ptr<Probe> client;               // poses as client 0

  explicit ReplicaFixture(core::IdemConfig config = make_config(), std::uint32_t me = 1) {
    net_config.jitter_mean = 0;
    net = std::make_unique<sim::SimNetwork>(sim, net_config);
    replica = std::make_unique<core::IdemReplica>(
        sim, *net, ReplicaId{me}, config, std::make_unique<app::KvStore>(),
        std::make_unique<core::NeverReject>());
    leader = std::make_unique<Probe>(sim, *net, consensus::replica_address(ReplicaId{0}));
    peer = std::make_unique<Probe>(sim, *net, consensus::replica_address(ReplicaId{2}));
    client = std::make_unique<Probe>(sim, *net, consensus::client_address(ClientId{0}),
                                     sim::NodeKind::Client);
  }

  static core::IdemConfig make_config() {
    core::IdemConfig config;
    config.n = 3;
    config.f = 1;
    config.reject_threshold = 4;  // r_max = 12: GC paths reachable quickly
    config.viewchange_timeout = 10 * kSecond;  // quiet unless a test wants it
    config.checkpoint_interval = 4;
    return config;
  }

  msg::Request request(std::uint64_t onr, const char* key = "k") {
    return msg::Request(RequestId{ClientId{0}, OpNum{onr}},
                        test::put_cmd(key, "v" + std::to_string(onr)));
  }

  void client_sends(const msg::Request& req) {
    client->inject(replica->id(), std::make_shared<const msg::Request>(req));
  }

  void leader_proposes(std::uint64_t sqn, std::vector<RequestId> ids, std::uint64_t view = 0) {
    auto propose = std::make_shared<msg::Propose>();
    propose->view = ViewId{view};
    propose->sqn = SeqNum{sqn};
    propose->ids = std::move(ids);
    leader->inject(replica->id(), std::move(propose));
  }

  void peer_commits(std::uint64_t sqn, std::vector<RequestId> ids, std::uint64_t view = 0) {
    auto commit = std::make_shared<msg::Commit>();
    commit->from = ReplicaId{2};
    commit->view = ViewId{view};
    commit->sqn = SeqNum{sqn};
    commit->ids = std::move(ids);
    peer->inject(replica->id(), std::move(commit));
  }

  void settle(Duration span = 100 * kMillisecond) { sim.run_for(span); }
};

TEST(IdemReplicaUnit, AcceptSendsRequire) {
  ReplicaFixture f;
  f.client_sends(f.request(1));
  f.settle();
  auto requires_seen = f.leader->received_of<msg::Require>();
  ASSERT_EQ(requires_seen.size(), 1u);
  EXPECT_EQ(requires_seen[0]->from, ReplicaId{1});
  ASSERT_EQ(requires_seen[0]->ids.size(), 1u);
  EXPECT_EQ(requires_seen[0]->ids[0].onr, OpNum{1});
  EXPECT_EQ(f.replica->active_requests(), 1u);
}

TEST(IdemReplicaUnit, ProposeTriggersCommitToAll) {
  ReplicaFixture f;
  auto req = f.request(1);
  f.client_sends(req);
  f.settle();
  f.leader_proposes(0, {req.id});
  f.settle();
  ASSERT_EQ(f.leader->received_of<msg::Commit>().size(), 1u);
  ASSERT_EQ(f.peer->received_of<msg::Commit>().size(), 1u);
  // The commit echoes the binding.
  EXPECT_EQ(f.peer->received_of<msg::Commit>()[0]->ids[0], req.id);
}

TEST(IdemReplicaUnit, ExecutesAfterQuorumButNotBefore) {
  // f = 2 (n = 5) makes sub-quorum states observable: a PROPOSE gives two
  // votes (leader's implied + own), and the quorum is three.
  auto config = ReplicaFixture::make_config();
  config.n = 5;
  config.f = 2;
  ReplicaFixture f(config);
  auto req = f.request(1);
  f.client_sends(req);
  f.settle();
  f.leader_proposes(0, {req.id});
  f.settle();
  EXPECT_EQ(f.replica->next_execute().value, 0u);  // 2 votes < quorum 3
  // A third replica's commit completes the quorum.
  f.peer_commits(0, {req.id});
  f.settle();
  EXPECT_EQ(f.replica->next_execute().value, 1u);
  EXPECT_EQ(f.replica->last_executed(ClientId{0}), OpNum{1});
  EXPECT_EQ(f.replica->active_requests(), 0u);
}

TEST(IdemReplicaUnit, CommitBeforeProposeAdoptsBinding) {
  ReplicaFixture f;
  auto req = f.request(1);
  f.client_sends(req);
  f.settle();
  // Two peer-side votes arrive before/without the PROPOSE: commit from
  // replica 2 carries the binding, and the leader's proposal is implied
  // by its role, so the replica's own commit completes agreement.
  f.peer_commits(0, {req.id});
  f.settle();
  // peer commit (1) + leader implied (1) + own (1) >= quorum 2.
  EXPECT_EQ(f.replica->next_execute().value, 1u);
}

TEST(IdemReplicaUnit, ExecutionStrictlyInOrder) {
  ReplicaFixture f;
  auto r1 = f.request(1);
  auto r2 = f.request(2, "k2");
  f.client_sends(r1);
  f.settle();
  // Instance 1 commits first; instance 0 is still unknown.
  f.leader_proposes(1, {r2.id});
  f.settle();
  EXPECT_EQ(f.replica->next_execute().value, 0u);  // blocked on the gap
  f.leader_proposes(0, {r1.id});
  f.settle();
  // Instance 0 commits; but wait: r2's body never arrived via a client...
  // it is fetched. Give the fetch time to resolve against the peer.
  EXPECT_GE(f.replica->next_execute().value, 1u);
}

TEST(IdemReplicaUnit, MissingBodyTriggersFetch) {
  ReplicaFixture f;
  RequestId unknown{ClientId{0}, OpNum{1}};
  f.leader_proposes(0, {unknown});
  f.settle();
  // Committed (leader + own votes) but the body is missing: FETCH goes out.
  std::size_t fetches = f.leader->received_of<msg::Fetch>().size() +
                        f.peer->received_of<msg::Fetch>().size();
  EXPECT_GE(fetches, 1u);
  EXPECT_EQ(f.replica->next_execute().value, 0u);

  // Answer the fetch with a FORWARD; execution proceeds.
  auto forward = std::make_shared<msg::Forward>();
  forward->from = ReplicaId{0};
  forward->requests.emplace_back(unknown, test::put_cmd("k", "v"));
  f.leader->inject(f.replica->id(), std::move(forward));
  f.settle();
  EXPECT_EQ(f.replica->next_execute().value, 1u);
}

TEST(IdemReplicaUnit, StaleViewMessagesIgnored) {
  ReplicaFixture f;
  // Move the replica to view 3 via a propose from the view-3 leader
  // (replica 0 = leader of view 3 with n=3? view 3 % 3 = 0: yes).
  f.leader_proposes(0, {}, /*view=*/3);
  f.settle();
  EXPECT_EQ(f.replica->view().value, 3u);

  // A propose from an old view must not rebind the slot.
  auto req = f.request(1);
  f.client_sends(req);
  f.settle();
  std::size_t commits_before = f.peer->received_of<msg::Commit>().size();
  f.leader_proposes(1, {req.id}, /*view=*/1);
  f.settle();
  EXPECT_EQ(f.peer->received_of<msg::Commit>().size(), commits_before);
}

TEST(IdemReplicaUnit, DuplicateRequestIgnoredWhileActive) {
  ReplicaFixture f;
  auto req = f.request(1);
  f.client_sends(req);
  f.client_sends(req);
  f.client_sends(req);
  f.settle();
  EXPECT_EQ(f.replica->stats().accepted, 1u);
  EXPECT_EQ(f.replica->active_requests(), 1u);
}

TEST(IdemReplicaUnit, ExecutedRequestGetsReReply) {
  ReplicaFixture f;
  auto req = f.request(1);
  f.client_sends(req);
  f.settle();
  f.leader_proposes(0, {req.id});
  f.settle();
  ASSERT_EQ(f.replica->next_execute().value, 1u);

  // The client retransmits (e.g. the leader's reply was lost with the
  // leader): the replica answers from its reply cache.
  std::size_t replies_before = f.client->received_of<msg::Reply>().size();
  f.client_sends(req);
  f.settle();
  EXPECT_EQ(f.client->received_of<msg::Reply>().size(), replies_before + 1);
}

TEST(IdemReplicaUnit, NoOpInstanceExecutesWithoutEffect) {
  ReplicaFixture f;
  f.leader_proposes(0, {});  // empty batch = no-op filler
  f.settle();
  EXPECT_EQ(f.replica->next_execute().value, 1u);
  EXPECT_EQ(f.replica->stats().executed, 0u);
}

TEST(IdemReplicaUnit, WindowAdvancesByImplicitGc) {
  ReplicaFixture f;
  // Execute r_max + 1 = 13 instances; the window start must advance once
  // sequence numbers beyond sqn_low + r_max are observed.
  for (std::uint64_t i = 0; i < 13; ++i) {
    auto req = f.request(i + 1);
    f.client_sends(req);
    f.settle(20 * kMillisecond);
    f.leader_proposes(i, {req.id});
    f.settle(20 * kMillisecond);
  }
  EXPECT_EQ(f.replica->next_execute().value, 13u);
  EXPECT_GT(f.replica->window_start().value, 0u);
}

TEST(IdemReplicaUnit, ForwardTimerRelaysUnexecutedRequest) {
  ReplicaFixture f;
  auto req = f.request(1);
  f.client_sends(req);
  // No propose ever arrives: after the forward timeout the replica relays
  // the request to its peers.
  f.settle(50 * kMillisecond);
  EXPECT_GE(f.peer->received_of<msg::Forward>().size(), 1u);
  EXPECT_GE(f.replica->stats().forwards_sent, 1u);
}

TEST(IdemReplicaUnit, NoForwardAfterExecution) {
  ReplicaFixture f;
  auto req = f.request(1);
  f.client_sends(req);
  f.settle(2 * kMillisecond);
  f.leader_proposes(0, {req.id});
  // Execution happens well before the 10 ms forward timeout.
  f.settle(50 * kMillisecond);
  EXPECT_EQ(f.replica->stats().forwards_sent, 0u);
}

TEST(IdemReplicaUnit, ViewChangeMessageCarriesWindow) {
  auto config = ReplicaFixture::make_config();
  config.viewchange_timeout = 200 * kMillisecond;
  ReplicaFixture f(config);
  auto req = f.request(1);
  f.client_sends(req);
  f.settle(10 * kMillisecond);
  f.leader_proposes(0, {req.id});
  f.settle(10 * kMillisecond);
  // A second request is accepted but never proposed: the leader is
  // "crashed". The progress timer fires and the VIEWCHANGE must carry the
  // bound slot 0.
  f.client_sends(f.request(2, "other"));
  f.settle(500 * kMillisecond);
  auto viewchanges = f.peer->received_of<msg::ViewChange>();
  ASSERT_GE(viewchanges.size(), 1u);
  EXPECT_EQ(viewchanges[0]->target.value, 1u);
  ASSERT_GE(viewchanges[0]->proposals.size(), 1u);
  EXPECT_EQ(viewchanges[0]->proposals[0].sqn.value, 0u);
  EXPECT_EQ(viewchanges[0]->proposals[0].items[0], req.id);
  // It also re-sends its REQUIREs to the prospective leader (replica 1 is
  // itself the leader of view 1 here, so nothing goes on the wire; the
  // stats record the view change instead).
  EXPECT_GE(f.replica->stats().view_changes, 1u);
}


TEST(IdemReplicaUnit, CachedRejectionIsReTested) {
  // The rejected-request cache keeps bodies, not verdicts: a retransmitted
  // request is accepted once the load has dropped (Section 5.1 allows the
  // test to answer differently over time).
  sim::Simulator sim(41);
  sim::SimNetwork net(sim, {});
  core::IdemConfig rc = ReplicaFixture::make_config();
  rc.reject_threshold = 1;
  core::IdemReplica replica(sim, net, ReplicaId{1}, rc, std::make_unique<app::KvStore>(),
                            std::make_unique<core::TailDrop>());
  Probe leader(sim, net, consensus::replica_address(ReplicaId{0}));
  Probe client(sim, net, consensus::client_address(ClientId{0}), sim::NodeKind::Client);
  Probe client2(sim, net, consensus::client_address(ClientId{1}), sim::NodeKind::Client);

  // Fill the single slot with client 1's request...
  msg::Request blocker(RequestId{ClientId{1}, OpNum{1}}, test::put_cmd("b", "v"));
  client2.inject(replica.id(), std::make_shared<const msg::Request>(blocker));
  sim.run_for(5 * kMillisecond);
  ASSERT_EQ(replica.active_requests(), 1u);

  // ...so client 0's request is rejected and cached.
  msg::Request req(RequestId{ClientId{0}, OpNum{1}}, test::put_cmd("k", "v"));
  client.inject(replica.id(), std::make_shared<const msg::Request>(req));
  sim.run_for(5 * kMillisecond);
  EXPECT_EQ(replica.stats().rejected, 1u);

  // The blocker executes, freeing the slot.
  leader.inject(replica.id(), [&] {
    auto propose = std::make_shared<msg::Propose>();
    propose->view = ViewId{0};
    propose->sqn = SeqNum{0};
    propose->ids = {blocker.id};
    return propose;
  }());
  sim.run_for(5 * kMillisecond);
  ASSERT_EQ(replica.active_requests(), 0u);

  // The client retransmits: this time the test passes and the request is
  // promoted out of the rejected cache (accepted, not re-rejected).
  client.inject(replica.id(), std::make_shared<const msg::Request>(req));
  sim.run_for(5 * kMillisecond);
  EXPECT_EQ(replica.stats().rejected, 1u);  // unchanged
  EXPECT_EQ(replica.stats().accepted, 2u);
  EXPECT_EQ(replica.active_requests(), 1u);
}

TEST(IdemReplicaUnit, FetchPrefetchCoversCommittedBacklog) {
  // Several instances commit whose bodies this replica never saw; the
  // fetches for ALL of them must go out at once, not one per round trip.
  ReplicaFixture f;
  std::vector<RequestId> unknown;
  for (std::uint64_t i = 1; i <= 6; ++i) unknown.push_back(RequestId{ClientId{0}, OpNum{i}});
  for (std::uint64_t sqn = 0; sqn < 6; ++sqn) {
    f.leader_proposes(sqn, {unknown[sqn]});
  }
  // Let the proposes arrive but answer no fetches yet.
  f.settle(3 * kMillisecond);
  std::size_t fetches = f.leader->received_of<msg::Fetch>().size() +
                        f.peer->received_of<msg::Fetch>().size();
  EXPECT_GE(fetches, 6u) << "prefetch must request every committed instance's body";
  EXPECT_EQ(f.replica->next_execute().value, 0u);

  // Answer everything in one forward: execution drains the whole backlog.
  auto forward = std::make_shared<msg::Forward>();
  forward->from = ReplicaId{0};
  for (std::uint64_t i = 0; i < 6; ++i) {
    forward->requests.emplace_back(unknown[i], test::put_cmd("k" + std::to_string(i), "v"));
  }
  f.leader->inject(f.replica->id(), std::move(forward));
  f.settle(10 * kMillisecond);
  EXPECT_EQ(f.replica->next_execute().value, 6u);
}


TEST(IdemReplicaUnit, UnsolicitedStateResponseIgnored) {
  ReplicaFixture f;
  // Execute one request so there is state to protect.
  auto req = f.request(1);
  f.client_sends(req);
  f.settle();
  f.leader_proposes(0, {req.id});
  f.settle();
  ASSERT_EQ(f.replica->next_execute().value, 1u);
  auto before = f.replica->state_machine().snapshot();

  // An unsolicited checkpoint claiming a newer state must be dropped: the
  // replica never asked for it.
  auto response = std::make_shared<msg::StateResponse>();
  response->from = ReplicaId{2};
  response->upto = SeqNum{50};
  response->snapshot = app::KvStore().snapshot();  // empty store
  f.peer->inject(f.replica->id(), std::move(response));
  f.settle();
  EXPECT_EQ(f.replica->state_machine().snapshot(), before);
  EXPECT_EQ(f.replica->next_execute().value, 1u);
  EXPECT_EQ(f.replica->stats().state_transfers, 0u);
}

TEST(IdemReplicaUnit, MalformedSnapshotSurvived) {
  // Force a legitimate state request, then answer it with garbage: the
  // replica must neither crash nor lose its current state.
  auto config = ReplicaFixture::make_config();
  ReplicaFixture f(config);
  auto req = f.request(1);
  f.client_sends(req);
  f.settle();
  f.leader_proposes(0, {req.id});
  f.settle();
  auto before = f.replica->state_machine().snapshot();

  // Observing a sequence number far beyond the window makes the replica
  // request state from the message's sender (the peer).
  f.peer_commits(100, {});
  f.settle();
  ASSERT_GE(f.peer->received_of<msg::StateRequest>().size(), 1u);

  auto response = std::make_shared<msg::StateResponse>();
  response->from = ReplicaId{2};
  response->upto = SeqNum{90};
  response->snapshot = {std::byte{0xFF}, std::byte{0xFF}, std::byte{0xFF}};  // garbage
  f.peer->inject(f.replica->id(), std::move(response));
  f.settle();
  // Still alive, state untouched.
  EXPECT_EQ(f.replica->state_machine().snapshot(), before);
}

/// Drives instances first..first+count-1 through the fixture, one PUT
/// each to keys[sqn % keys.size()]; `after_propose` runs once per instance.
template <typename AfterPropose>
void execute_instances(ReplicaFixture& f, std::uint64_t first, std::uint64_t count,
                       const std::vector<const char*>& keys, AfterPropose after_propose) {
  for (std::uint64_t sqn = first; sqn < first + count; ++sqn) {
    auto req = f.request(sqn + 1, keys[sqn % keys.size()]);
    f.client_sends(req);
    f.settle();
    f.leader_proposes(sqn, {req.id});
    f.settle();
    after_propose();
  }
}

std::vector<const msg::StateResponse*> ask_for_state(ReplicaFixture& f) {
  auto request = std::make_shared<msg::StateRequest>();
  request->from = ReplicaId{2};
  request->have = SeqNum{0};
  f.peer->inject(f.replica->id(), std::move(request));
  f.settle();
  return f.peer->received_of<msg::StateResponse>();
}

TEST(IdemReplicaUnit, StateRequestServesCheckpointNotCurrentState) {
  // checkpoint_interval = 4: executing sqn 3 checkpoints. Later writes
  // overwrite checkpointed keys and add new ones; the state shipped must
  // still be exactly the state at sqn 3.
  ReplicaFixture f;
  execute_instances(f, 0, 4, {"a", "b"}, [] {});
  ASSERT_EQ(f.replica->next_execute().value, 4u);
  ASSERT_EQ(f.replica->stats().checkpoints_created, 1u);
  const auto at_checkpoint = f.replica->state_machine().snapshot();

  execute_instances(f, 4, 3, {"a", "c", "d"}, [] {});  // sqn 4..6: no new checkpoint
  ASSERT_EQ(f.replica->next_execute().value, 7u);
  ASSERT_NE(f.replica->state_machine().snapshot(), at_checkpoint);

  auto responses = ask_for_state(f);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0]->upto, SeqNum{3});
  EXPECT_EQ(responses[0]->snapshot, at_checkpoint);
}

/// Holds each submitted batch until the test completes it.
class HeldExecutor final : public core::Executor {
 public:
  void execute(app::StateMachine& sm, std::vector<std::vector<std::byte>> commands, Time,
               Done done) override {
    sm_ = &sm;
    commands_ = std::move(commands);
    done_ = std::move(done);
  }

  bool holding() const { return static_cast<bool>(done_); }

  void complete() {
    std::vector<std::vector<std::byte>> results;
    for (const auto& command : commands_) results.push_back(sm_->execute(command));
    Done done = std::move(done_);
    done_ = nullptr;
    done(std::move(results));
  }

 private:
  app::StateMachine* sm_ = nullptr;
  std::vector<std::vector<std::byte>> commands_;
  Done done_;
};

TEST(IdemReplicaUnit, StateRequestWaitsOutInFlightBatch) {
  // Serving a checkpoint reads the state machine, which an executor batch
  // may be writing: the replica stays silent until the batch is done.
  HeldExecutor executor;
  auto config = ReplicaFixture::make_config();
  config.executor = &executor;
  ReplicaFixture f(config);
  execute_instances(f, 0, 4, {"a", "b"}, [&] {
    ASSERT_TRUE(executor.holding());
    executor.complete();
  });
  ASSERT_EQ(f.replica->next_execute().value, 4u);
  const auto at_checkpoint = f.replica->state_machine().snapshot();

  execute_instances(f, 4, 1, {"a"}, [] {});  // sqn 4 stays in flight
  ASSERT_TRUE(executor.holding());
  EXPECT_TRUE(ask_for_state(f).empty());

  executor.complete();
  f.settle();
  ASSERT_EQ(f.replica->next_execute().value, 5u);
  EXPECT_TRUE(f.peer->received_of<msg::StateResponse>().empty());  // not queued
  auto responses = ask_for_state(f);  // the requester's retry
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0]->upto, SeqNum{3});
  EXPECT_EQ(responses[0]->snapshot, at_checkpoint);
}

TEST(IdemReplicaUnit, RejectingReplicaCachesBody) {
  auto config = ReplicaFixture::make_config();
  ReplicaFixture f(config);
  // Swap in an always-reject test by saturating: threshold r=4 and the
  // replica is a NeverReject fixture, so instead build a dedicated
  // replica with TailDrop and r=0 via a fresh fixture-less setup.
  sim::Simulator sim(3);
  sim::SimNetwork net(sim, {});
  core::IdemConfig rc = ReplicaFixture::make_config();
  rc.reject_threshold = 0;
  core::IdemReplica replica(sim, net, ReplicaId{1}, rc, std::make_unique<app::KvStore>(),
                            std::make_unique<core::TailDrop>());
  Probe leader(sim, net, consensus::replica_address(ReplicaId{0}));
  Probe client(sim, net, consensus::client_address(ClientId{0}), sim::NodeKind::Client);

  msg::Request req(RequestId{ClientId{0}, OpNum{1}}, test::put_cmd("k", "v"));
  client.inject(replica.id(), std::make_shared<const msg::Request>(req));
  sim.run_for(10 * kMillisecond);
  EXPECT_EQ(replica.stats().rejected, 1u);
  ASSERT_EQ(client.received_of<msg::Reject>().size(), 1u);

  // The rejected body is still served to a FETCH from the cache.
  auto fetch = std::make_shared<msg::Fetch>();
  fetch->from = ReplicaId{0};
  fetch->id = req.id;
  leader.inject(replica.id(), std::move(fetch));
  sim.run_for(10 * kMillisecond);
  ASSERT_EQ(leader.received_of<msg::Forward>().size(), 1u);
  EXPECT_EQ(leader.received_of<msg::Forward>()[0]->requests[0].id, req.id);
}

}  // namespace
}  // namespace idem
