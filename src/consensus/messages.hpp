// Wire messages for all protocols in this repository.
//
// Every message derives sim::Payload, carries a full binary encoding
// (exercised by tests and used for byte accounting), and caches its wire
// size. IDEM messages follow Sections 4-5 of the paper; the Paxos and
// SMaRt messages serve the baseline protocols.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/ids.hpp"
#include "common/reject_reason.hpp"
#include "common/time.hpp"
#include "sim/payload.hpp"

namespace idem::msg {

// ---------------------------------------------------------------------------
// Real-mode wire extension gate
//
// REJECT carries its RejectReason as a trailing byte — but only when this
// process-wide flag is set. The simulator's cost model charges
// per_message + ns_per_byte * wire_size() for every send, so growing
// REJECT unconditionally would perturb every pinned simulated trajectory
// (determinism tests, the hash-stamped replay corpus). Real-mode entry
// points (RealCluster, idem_server, run_load) set the flag before any
// loop thread starts; decoding tolerates both forms unconditionally, so
// mixed deployments interoperate.
// ---------------------------------------------------------------------------

/// Enables the REJECT reason byte on the wire for this process. Call
/// before protocol threads start (reads are relaxed-atomic).
void set_wire_reject_reasons(bool enabled);
bool wire_reject_reasons();

/// Enables the REQUEST deadline varint on the wire, same contract as the
/// REJECT reason byte: armed once by real-mode entry points, tolerant
/// decode, off by default so simulated trajectories stay pinned.
void set_wire_request_deadlines(bool enabled);
bool wire_request_deadlines();

enum class Type : std::uint8_t {
  // Client <-> replica (shared by all protocols)
  Request = 1,
  Reply = 2,
  Reject = 3,  // IDEM + Paxos_LBR: proactive rejection notification
  // IDEM replica <-> replica
  Require = 10,
  Propose = 11,
  Commit = 12,
  Forward = 13,
  Fetch = 14,
  ViewChange = 15,
  StateRequest = 16,
  StateResponse = 17,
  // Paxos (Kirsch/Amir-style, leader distributes full requests)
  PaxosPropose = 30,
  PaxosAccept = 31,
  PaxosViewChange = 32,
  PaxosHeartbeat = 33,
  // BFT-SMaRt-analog (CFT mode)
  SmartPropose = 40,
  SmartWrite = 41,
  SmartAccept = 42,
};

// ---------------------------------------------------------------------------
// Shared item codec
//
// Several messages carry "a count followed by items", where an item is
// either a bare RequestId (IDEM agrees on ids) or a full Request (the
// baselines ship bodies). One overload set keeps the wire format in one
// place; encode_items/decode_items add the varint length prefix.
// ---------------------------------------------------------------------------

struct Request;  // defined below

inline void encode_item(ByteWriter& w, RequestId id) { w.request_id(id); }
inline void decode_item(ByteReader& r, RequestId& id) { id = r.request_id(); }
void encode_item(ByteWriter& w, const Request& req);
void decode_item(ByteReader& r, Request& req);

template <typename Item>
void encode_items(ByteWriter& w, const std::vector<Item>& items) {
  w.varint(items.size());
  for (const Item& item : items) encode_item(w, item);
}

template <typename Item>
std::vector<Item> decode_items(ByteReader& r) {
  auto n = r.varint();
  std::vector<Item> items;
  items.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) decode_item(r, items.emplace_back());
  return items;
}

/// Base for all messages: encodes lazily, caches the wire size.
class Message : public sim::Payload {
 public:
  virtual Type type() const = 0;

  std::size_t wire_size() const final {
    if (!size_) size_ = encode().size();
    return *size_;
  }

  /// Full binary encoding including the leading type byte, behind
  /// `headroom` zero bytes the caller fills in afterwards (a transport's
  /// frame header). Also primes the wire-size cache, and uses it when
  /// already known: the network layer calls wire_size() on every send, so
  /// a later encode of the same message serializes into an exactly-sized
  /// buffer in one allocation.
  std::vector<std::byte> encode(std::size_t headroom = 0) const {
    ByteWriter w;
    if (size_) w.reserve(headroom + *size_);
    w.skip(headroom);
    w.u8(static_cast<std::uint8_t>(type()));
    encode_body(w);
    if (!size_) size_ = w.size() - headroom;
    return w.take();
  }

 protected:
  virtual void encode_body(ByteWriter& w) const = 0;

 private:
  mutable std::optional<std::size_t> size_;
};

// ---------------------------------------------------------------------------
// Client-facing messages
// ---------------------------------------------------------------------------

/// <REQUEST, id, command[, deadline]> — multicast by IDEM/SMaRt clients to
/// all replicas, sent by Paxos clients to the (presumed) leader.
///
/// `deadline` is the client's latency budget for this attempt, in
/// nanoseconds relative to transmission (0 = none). It rides the wire only
/// when set_wire_request_deadlines() armed it (real mode) *and* it is
/// nonzero; the decoder accepts both forms, so a deadline-less binary
/// interoperates. In sim the shared message object carries the field
/// directly, exactly like Reject's map_epoch. Embedded Requests
/// (FORWARD / baseline proposals) never carry it: by then admission has
/// happened and agreement must not drop the body.
struct Request final : Message {
  RequestId id;
  std::vector<std::byte> command;
  Duration deadline = 0;

  Request() = default;
  Request(RequestId id_, std::vector<std::byte> command_, Duration deadline_ = 0)
      : id(id_), command(std::move(command_)), deadline(deadline_) {}

  Type type() const override { return Type::Request; }
  std::string kind() const override { return "REQUEST"; }
  void encode_body(ByteWriter& w) const override {
    w.request_id(id);
    w.bytes(command);
    if (wire_request_deadlines() && deadline > 0) {
      w.varint(static_cast<std::uint64_t>(deadline));
    }
  }
  static Request decode_body(ByteReader& r) {
    Request m;
    m.id = r.request_id();
    m.command = r.bytes();
    if (r.remaining() > 0) m.deadline = static_cast<Duration>(r.varint());
    return m;
  }
};

inline void encode_item(ByteWriter& w, const Request& req) {
  w.request_id(req.id);
  w.bytes(req.command);
}
inline void decode_item(ByteReader& r, Request& req) {
  req.id = r.request_id();
  req.command = r.bytes();
}

/// <REPLY, id, result>
struct Reply final : Message {
  RequestId id;
  std::vector<std::byte> result;

  Reply() = default;
  Reply(RequestId id_, std::vector<std::byte> result_) : id(id_), result(std::move(result_)) {}

  Type type() const override { return Type::Reply; }
  std::string kind() const override { return "REPLY"; }
  void encode_body(ByteWriter& w) const override {
    w.request_id(id);
    w.bytes(result);
  }
  static Reply decode_body(ByteReader& r) {
    Reply m;
    m.id = r.request_id();
    m.result = r.bytes();
    return m;
  }
};

/// <REJECT, id[, reason]> — a replica opted not to process this request
/// any further. The reason byte is appended only when
/// set_wire_reject_reasons() armed it (real mode); the decoder accepts
/// both forms, and absent/unknown bytes decode as RejectReason::None.
struct Reject final : Message {
  RequestId id;
  RejectReason reason = RejectReason::None;
  /// WrongShard only: epoch of the map the rejecting replica holds and the
  /// group that owns the key under that map. Rides the wire after the
  /// reason byte (real mode); in sim the message object carries them as-is.
  std::uint64_t map_epoch = 0;
  std::uint32_t home_group = 0;

  Reject() = default;
  explicit Reject(RequestId id_, RejectReason reason_ = RejectReason::None)
      : id(id_), reason(reason_) {}

  Type type() const override { return Type::Reject; }
  std::string kind() const override { return "REJECT"; }
  void encode_body(ByteWriter& w) const override {
    w.request_id(id);
    if (wire_reject_reasons()) {
      w.u8(static_cast<std::uint8_t>(reason));
      if (reason == RejectReason::WrongShard) {
        w.varint(map_epoch);
        w.varint(home_group);
      }
    }
  }
  static Reject decode_body(ByteReader& r) {
    Reject m;
    m.id = r.request_id();
    if (r.remaining() > 0) m.reason = reject_reason_from(r.u8());
    if (m.reason == RejectReason::WrongShard && r.remaining() > 0) {
      m.map_epoch = r.varint();
      m.home_group = static_cast<std::uint32_t>(r.varint());
    }
    return m;
  }
};

// ---------------------------------------------------------------------------
// IDEM replica-to-replica messages (Section 4.3)
// ---------------------------------------------------------------------------

/// <REQUIRE, ids> — replica tells the leader it has accepted these requests.
/// Batching several ids into one REQUIRE is an aggregation optimization;
/// semantically each id counts as its own REQUIRE.
struct Require final : Message {
  ReplicaId from;
  std::vector<RequestId> ids;

  Type type() const override { return Type::Require; }
  std::string kind() const override { return "REQUIRE"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    encode_items(w, ids);
  }
  static Require decode_body(ByteReader& r) {
    Require m;
    m.from.value = r.u32();
    m.ids = decode_items<RequestId>(r);
    return m;
  }
};

/// <PROPOSE, ids, sqn, v> — the leader binds a batch of request ids to a
/// sequence number. Agreement is on ids, not full requests (Section 4.2).
struct Propose final : Message {
  ViewId view;
  SeqNum sqn;
  std::vector<RequestId> ids;

  Type type() const override { return Type::Propose; }
  std::string kind() const override { return "PROPOSE"; }
  void encode_body(ByteWriter& w) const override {
    w.varint(view.value);
    w.varint(sqn.value);
    encode_items(w, ids);
  }
  static Propose decode_body(ByteReader& r) {
    Propose m;
    m.view.value = r.varint();
    m.sqn.value = r.varint();
    m.ids = decode_items<RequestId>(r);
    return m;
  }
};

/// <COMMIT, ids, sqn, v> — echoes the proposal so receivers that missed the
/// PROPOSE still learn the binding.
struct Commit final : Message {
  ReplicaId from;
  ViewId view;
  SeqNum sqn;
  std::vector<RequestId> ids;

  Type type() const override { return Type::Commit; }
  std::string kind() const override { return "COMMIT"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.varint(view.value);
    w.varint(sqn.value);
    encode_items(w, ids);
  }
  static Commit decode_body(ByteReader& r) {
    Commit m;
    m.from.value = r.u32();
    m.view.value = r.varint();
    m.sqn.value = r.varint();
    m.ids = decode_items<RequestId>(r);
    return m;
  }
};

/// Relays full requests to replicas that may not own them (Section 5.2).
struct Forward final : Message {
  ReplicaId from;
  std::vector<Request> requests;

  Type type() const override { return Type::Forward; }
  std::string kind() const override { return "FORWARD"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    encode_items(w, requests);
  }
  static Forward decode_body(ByteReader& r) {
    Forward m;
    m.from.value = r.u32();
    m.requests = decode_items<Request>(r);
    return m;
  }
};

/// <FETCH, id> — explicit on-demand request for a forward (Section 5.2).
struct Fetch final : Message {
  ReplicaId from;
  RequestId id;

  Type type() const override { return Type::Fetch; }
  std::string kind() const override { return "FETCH"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.request_id(id);
  }
  static Fetch decode_body(ByteReader& r) {
    Fetch m;
    m.from.value = r.u32();
    m.id = r.request_id();
    return m;
  }
};

/// One slot of a replica's proposal window, shipped in view-change
/// messages: the newest binding the sender has seen for `sqn`, with the
/// view it was proposed in (merge recency). IDEM windows carry bare ids;
/// the baselines carry full requests — the codec is the same either way.
template <typename Item>
struct BasicWindowEntry {
  SeqNum sqn;
  ViewId view;  ///< view of the newest PROPOSE seen for this slot
  std::vector<Item> items;

  void encode(ByteWriter& w) const {
    w.varint(sqn.value);
    w.varint(view.value);
    encode_items(w, items);
  }
  static BasicWindowEntry decode(ByteReader& r) {
    BasicWindowEntry e;
    e.sqn.value = r.varint();
    e.view.value = r.varint();
    e.items = decode_items<Item>(r);
    return e;
  }
};

using WindowEntry = BasicWindowEntry<RequestId>;
using PaxosWindowEntry = BasicWindowEntry<Request>;

/// <VIEWCHANGE, v_t, proposals> (Section 4.5).
struct ViewChange final : Message {
  ReplicaId from;
  ViewId target;
  SeqNum window_start;
  std::vector<WindowEntry> proposals;

  Type type() const override { return Type::ViewChange; }
  std::string kind() const override { return "VIEWCHANGE"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.varint(target.value);
    w.varint(window_start.value);
    w.varint(proposals.size());
    for (const auto& p : proposals) p.encode(w);
  }
  static ViewChange decode_body(ByteReader& r) {
    ViewChange m;
    m.from.value = r.u32();
    m.target.value = r.varint();
    m.window_start.value = r.varint();
    auto n = r.varint();
    m.proposals.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) m.proposals.push_back(WindowEntry::decode(r));
    return m;
  }
};

/// Lagging replica asks a peer for the newest checkpoint (Section 4.4).
struct StateRequest final : Message {
  ReplicaId from;
  SeqNum have;  ///< highest sequence number already applied locally

  Type type() const override { return Type::StateRequest; }
  std::string kind() const override { return "STATE-REQ"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.varint(have.value);
  }
  static StateRequest decode_body(ByteReader& r) {
    StateRequest m;
    m.from.value = r.u32();
    m.have.value = r.varint();
    return m;
  }
};

/// Checkpoint shipment: application snapshot + duplicate-detection metadata.
struct StateResponse final : Message {
  ReplicaId from;
  SeqNum upto;  ///< checkpoint covers all sequence numbers <= upto
  std::vector<std::byte> snapshot;
  std::vector<std::pair<ClientId, OpNum>> last_executed;

  Type type() const override { return Type::StateResponse; }
  std::string kind() const override { return "STATE-RESP"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.varint(upto.value);
    w.bytes(snapshot);
    w.varint(last_executed.size());
    for (const auto& [cid, onr] : last_executed) {
      w.varint(cid.value);
      w.varint(onr.value);
    }
  }
  static StateResponse decode_body(ByteReader& r) {
    StateResponse m;
    m.from.value = r.u32();
    m.upto.value = r.varint();
    m.snapshot = r.bytes();
    auto n = r.varint();
    m.last_executed.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      ClientId cid{r.varint()};
      OpNum onr{r.varint()};
      m.last_executed.emplace_back(cid, onr);
    }
    return m;
  }
};

// ---------------------------------------------------------------------------
// Paxos baseline (leader distributes full requests)
// ---------------------------------------------------------------------------

/// Leader's proposal carrying the full request batch.
struct PaxosPropose final : Message {
  ViewId view;
  SeqNum sqn;
  std::vector<Request> requests;

  Type type() const override { return Type::PaxosPropose; }
  std::string kind() const override { return "PAXOS-PROPOSE"; }
  void encode_body(ByteWriter& w) const override {
    w.varint(view.value);
    w.varint(sqn.value);
    encode_items(w, requests);
  }
  static PaxosPropose decode_body(ByteReader& r) {
    PaxosPropose m;
    m.view.value = r.varint();
    m.sqn.value = r.varint();
    m.requests = decode_items<Request>(r);
    return m;
  }
};

struct PaxosAccept final : Message {
  ReplicaId from;
  ViewId view;
  SeqNum sqn;

  Type type() const override { return Type::PaxosAccept; }
  std::string kind() const override { return "PAXOS-ACCEPT"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.varint(view.value);
    w.varint(sqn.value);
  }
  static PaxosAccept decode_body(ByteReader& r) {
    PaxosAccept m;
    m.from.value = r.u32();
    m.view.value = r.varint();
    m.sqn.value = r.varint();
    return m;
  }
};

/// Paxos view change: carries the full proposals (requests) of the window.
struct PaxosViewChange final : Message {
  ReplicaId from;
  ViewId target;
  SeqNum window_start;
  std::vector<PaxosWindowEntry> proposals;

  Type type() const override { return Type::PaxosViewChange; }
  std::string kind() const override { return "PAXOS-VIEWCHANGE"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.varint(target.value);
    w.varint(window_start.value);
    w.varint(proposals.size());
    for (const auto& entry : proposals) entry.encode(w);
  }
  static PaxosViewChange decode_body(ByteReader& r) {
    PaxosViewChange m;
    m.from.value = r.u32();
    m.target.value = r.varint();
    m.window_start.value = r.varint();
    auto n = r.varint();
    m.proposals.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) m.proposals.push_back(PaxosWindowEntry::decode(r));
    return m;
  }
};

/// Leader liveness signal: followers without client contact need it to
/// detect a crashed leader (Paxos clients talk to the leader only).
struct PaxosHeartbeat final : Message {
  ReplicaId from;
  ViewId view;

  Type type() const override { return Type::PaxosHeartbeat; }
  std::string kind() const override { return "PAXOS-HEARTBEAT"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.varint(view.value);
  }
  static PaxosHeartbeat decode_body(ByteReader& r) {
    PaxosHeartbeat m;
    m.from.value = r.u32();
    m.view.value = r.varint();
    return m;
  }
};

// ---------------------------------------------------------------------------
// BFT-SMaRt-analog (CFT mode): PROPOSE / WRITE / ACCEPT
// ---------------------------------------------------------------------------

struct SmartPropose final : Message {
  ViewId view;
  SeqNum sqn;
  std::vector<Request> requests;

  Type type() const override { return Type::SmartPropose; }
  std::string kind() const override { return "SMART-PROPOSE"; }
  void encode_body(ByteWriter& w) const override {
    w.varint(view.value);
    w.varint(sqn.value);
    encode_items(w, requests);
  }
  static SmartPropose decode_body(ByteReader& r) {
    SmartPropose m;
    m.view.value = r.varint();
    m.sqn.value = r.varint();
    m.requests = decode_items<Request>(r);
    return m;
  }
};

struct SmartWrite final : Message {
  ReplicaId from;
  ViewId view;
  SeqNum sqn;

  Type type() const override { return Type::SmartWrite; }
  std::string kind() const override { return "SMART-WRITE"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.varint(view.value);
    w.varint(sqn.value);
  }
  static SmartWrite decode_body(ByteReader& r) {
    SmartWrite m;
    m.from.value = r.u32();
    m.view.value = r.varint();
    m.sqn.value = r.varint();
    return m;
  }
};

struct SmartAccept final : Message {
  ReplicaId from;
  ViewId view;
  SeqNum sqn;

  Type type() const override { return Type::SmartAccept; }
  std::string kind() const override { return "SMART-ACCEPT"; }
  void encode_body(ByteWriter& w) const override {
    w.u32(from.value);
    w.varint(view.value);
    w.varint(sqn.value);
  }
  static SmartAccept decode_body(ByteReader& r) {
    SmartAccept m;
    m.from.value = r.u32();
    m.view.value = r.varint();
    m.sqn.value = r.varint();
    return m;
  }
};

/// Decodes a full message buffer (type byte + body) back into a typed
/// message. Throws CodecError for unknown types or malformed bodies.
/// Returns a shared_ptr<const Message> suitable for sim transport.
std::shared_ptr<const Message> decode(std::span<const std::byte> data);

}  // namespace idem::msg
