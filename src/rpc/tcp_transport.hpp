// Real TCP transport implementing sim::Transport.
//
// Every registered node gets its own listener. Traffic between two
// transports shares one duplex connection, which either end may dial:
// frames (rpc/framing.hpp) carry their sender and destination node ids,
// so the connection serves every node at both ends in both directions.
// One route table maps each remote node to its connection. Dialing fills
// it for the dialed node; every frame that arrives fills it for its
// sender (except senders hosted on this transport), so a reply to any
// sender — a replica peer, a co-located client, a listener-less storm
// session advertising sender-port 0 — goes back over the connection the
// request came in on. A send dials only when no route exists. Sharing
// the connection is what lets a data segment carry the ACK for the
// other direction, and lets the replies to co-located clients leave in
// one sendmsg instead of one connection each.
//
// When both ends dial at once, both keep the connection dialed by the
// lower node id (the sender of its first frame): the other one is
// retired — its routes move to the winner, its queued frames still
// flush, then its dialer half-closes it and both ends close it once the
// other side has finished too, so no queued frame is lost.
//
// Failure semantics match the protocols' fair-loss assumption: a send to
// an unknown, crashed or unreachable node is silently dropped (and
// counted); a broken connection is torn down, its routes dropped, and
// the next send re-dials. Malformed inbound streams (oversized length
// headers, connections closed mid-frame) are counted in TransportStats::
// decode_errors and the connection is dropped.
//
// Addressing: nodes on this transport bind `listen_host` (loopback by
// default; "0.0.0.0" for multi-host deployments). Remote nodes are
// declared with set_remote() as host:port pairs, so a deployment can span
// machines — the loopback-port overload remains for single-host setups.
//
// Single-threaded: all calls must happen on the EventLoop thread (or
// before that thread starts running the loop).
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/event_loop.hpp"
#include "rpc/framing.hpp"
#include "sim/transport.hpp"

namespace idem::rpc {

struct TransportStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t dropped = 0;        ///< unknown destination / send failure
  std::uint64_t decode_errors = 0;  ///< malformed frames received (bad
                                    ///< encoding, oversized, truncated)
  std::uint64_t write_syscalls = 0;    ///< sendmsg calls that moved bytes;
                                       ///< messages_sent / write_syscalls is
                                       ///< the coalescing ratio
  std::uint64_t send_queue_overflows = 0;  ///< frames dropped because a
                                           ///< connection's pending-write
                                           ///< queue hit its byte bound
  std::uint64_t accepted_connections = 0;  ///< connections accepted
  std::uint64_t oversized_frames = 0;      ///< connections dropped for a frame
                                           ///< over max_frame_bytes (also
                                           ///< counted in decode_errors)
  std::uint64_t connection_limit_sheds = 0;  ///< accepted connections closed at
                                             ///< once because the connection
                                             ///< cap was reached
                                             ///< (RejectReason::ConnectionLimit)
  std::uint64_t idle_evictions = 0;       ///< connections evicted for moving no
                                          ///< bytes either way for idle_timeout
  std::uint64_t half_open_evictions = 0;  ///< connections evicted for holding
                                          ///< a partial frame past
                                          ///< half_open_timeout (slow loris)
};

/// Point-in-time memory footprint of the transport's connection state —
/// the per-connection accounting the admin endpoints surface. Buffer
/// bytes are capacities (what the process actually holds), not fill
/// levels, so a storm of mostly-idle connections is charged honestly.
struct TransportMemory {
  std::size_t inbound_connections = 0;   ///< open connections we accepted
  std::size_t outbound_connections = 0;  ///< open connections we dialed
  std::size_t inbound_buffer_bytes = 0;   ///< receive-buffer capacity across
                                          ///< all connections (both kinds read)
  std::size_t pending_write_bytes = 0;    ///< unsent bytes queued across all
                                          ///< connections (both directions)

  std::size_t total_bytes() const { return inbound_buffer_bytes + pending_write_bytes; }
  /// Average bytes held per open connection (0 when none are open).
  double per_connection() const {
    std::size_t conns = inbound_connections + outbound_connections;
    return conns == 0 ? 0.0 : static_cast<double>(total_bytes()) / static_cast<double>(conns);
  }
};

/// Upper bound on iovec entries per flush; writev/sendmsg reject more
/// than IOV_MAX (1024 on Linux), and 64 frames per syscall already
/// amortizes the syscall to noise.
constexpr std::size_t kMaxFlushIov = 64;

/// Per-connection queue of encoded frames awaiting transmission, flushed
/// with one sendmsg per event-loop iteration. Frames keep their identity
/// (no flattening copy) and `front_offset` tracks how far a partial write
/// got into the front frame, so resumption after EAGAIN mid-iovec is
/// exact. Separate from the socket code so tests can drive partial-write
/// sequences without a kernel.
struct PendingWrites {
  std::deque<std::vector<std::byte>> frames;
  std::size_t front_offset = 0;  ///< bytes of frames.front() already written
  std::size_t total_bytes = 0;   ///< unwritten bytes across all frames

  bool empty() const { return frames.empty(); }

  void push(std::vector<std::byte> frame) {
    total_bytes += frame.size();
    frames.push_back(std::move(frame));
  }

  /// Fills up to `max` iovec entries with the unwritten byte ranges,
  /// starting mid-frame if a previous write stopped there. Returns the
  /// number of entries filled.
  std::size_t fill_iovec(iovec* iov, std::size_t max) const;

  /// Advances past `written` bytes: fully-written frames are released,
  /// a partially-written front frame is remembered via front_offset.
  void consume(std::size_t written);

  void clear() {
    frames.clear();
    front_offset = 0;
    total_bytes = 0;
  }
};

/// Where a node can be reached: numeric IPv4 host + TCP port.
struct PeerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Parses "host:port" (host optional: ":9100" and "9100" mean loopback).
/// Returns nullopt on malformed input or a port outside [1, 65535].
std::optional<PeerAddress> parse_address(const std::string& text);

struct TcpTransportConfig {
  /// When non-zero, the first locally registered node binds this port
  /// instead of an ephemeral one (multi-process deployments agree on
  /// fixed ports up front). Further nodes keep getting ephemeral ports.
  std::uint16_t fixed_port = 0;
  /// Numeric IPv4 address the listeners bind ("0.0.0.0" to accept
  /// non-local peers).
  std::string listen_host = "127.0.0.1";
  /// Maximum accepted inbound frame payload; larger length headers count
  /// as decode errors and drop the connection.
  std::size_t max_frame_bytes = kMaxFrameBytes;
  /// Byte bound on each connection's pending-write queue. A frame that
  /// would push the queue past this is dropped (fair loss) and counted in
  /// TransportStats::send_queue_overflows — backpressure instead of
  /// unbounded buffering when a peer stops reading.
  std::size_t max_pending_write_bytes = 8 * 1024 * 1024;

  // --- accept-path hardening (connection storms) ---

  /// Maximum connections accepted per listener readiness pass. A SYN
  /// flood's backlog is drained in bursts of this size with a deferred
  /// continuation between bursts, so accepting thousands of connections
  /// never starves the established connections' I/O or due timers.
  std::size_t accept_burst = 256;
  /// Cap on concurrently open accepted connections across the transport
  /// (0 = unlimited). At the cap, newly accepted connections are closed
  /// immediately — an early shed the peer observes as a reset, counted in
  /// TransportStats::connection_limit_sheds and classified as
  /// RejectReason::ConnectionLimit in telemetry.
  std::size_t max_inbound_connections = 0;
  /// Initial receive-buffer capacity per connection (also the recv chunk
  /// size). The default suits a handful of replica peers; servers
  /// expecting thousands of small-frame client connections shrink it so
  /// per-connection memory stays bounded. Buffers still grow on demand up
  /// to max_frame_bytes.
  std::size_t read_buffer_bytes = kReadChunkBytes;
  /// Evict a connection that has moved no bytes in either direction for
  /// this long (0 = never). Off by default: replica peers are
  /// legitimately silent between bursts. Client-facing servers enable it
  /// to reclaim connections from hosts that connect and hold.
  Duration idle_timeout = 0;
  /// Evict a connection that has held an incomplete inbound frame for
  /// this long (0 = never) — the slow-loris defence: trickling one byte
  /// per second through a frame does not reset the clock, only a
  /// completed frame does.
  Duration half_open_timeout = 0;
  /// How often the eviction sweep runs; 0 derives it from the enabled
  /// timeouts (a quarter of the shortest, clamped to [10ms, 1s]).
  Duration sweep_interval = 0;
};

class TcpTransport final : public sim::Transport {
 public:
  explicit TcpTransport(EventLoop& loop, TcpTransportConfig config = {});
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // --- sim::Transport ---
  /// Registers a local node: binds a listener on `listen_host` (ephemeral
  /// port; query it with port_of).
  void add_node(sim::NodeId id, sim::NodeKind kind, sim::Endpoint* endpoint) override;
  /// Unregisters a node: closes its listener and the connections it
  /// accepted (peers see resets/refusals — exactly what a crash looks
  /// like). Connections it dialed are the transport's and stay open.
  void remove_node(sim::NodeId id) override;
  void send(sim::NodeId from, sim::NodeId to, sim::PayloadPtr message) override;

  /// Listening port of a locally registered node (0 if unknown).
  std::uint16_t port_of(sim::NodeId id) const;

  /// Declares where a non-local node can be reached, enabling multi-
  /// process and multi-host deployments (every process registers its own
  /// nodes and the addresses of the others).
  void set_remote(sim::NodeId id, const PeerAddress& address);
  /// Loopback convenience for single-host deployments.
  void set_remote(sim::NodeId id, std::uint16_t port) {
    set_remote(id, PeerAddress{"127.0.0.1", port});
  }

  const TransportStats& stats() const { return stats_; }

  /// Bytes queued but not yet written across all connections — the live
  /// backpressure signal (admin /stats).
  std::size_t pending_write_bytes() const;

  /// Open connection counts by who dialed them (admin /stats).
  std::size_t inbound_connections() const { return accepted_open_; }
  std::size_t outbound_connections() const { return connections_.size() - accepted_open_; }

  /// Per-connection memory accounting (admin /stats, /metrics gauges).
  TransportMemory memory() const;

 private:
  struct LocalNode;
  struct Connection;

  void accept_ready(LocalNode& node);
  Connection& add_connection(int fd, bool accepted, std::uint32_t owner, std::string peer_host);
  Connection* route_to(std::uint32_t from, std::uint32_t to);
  void learn_route(Connection& connection, std::uint32_t sender, std::uint32_t sender_port);
  void retire(Connection& loser, Connection& winner);
  void connection_event(int fd, std::uint32_t events);
  void read_ready(Connection& connection);
  void close_connection(Connection& connection);
  void schedule_flush(Connection& connection);
  void flush(Connection& connection);
  void arm_sweep();
  void sweep_connections();

  EventLoop& loop_;
  TcpTransportConfig config_;
  bool fixed_port_used_ = false;
  std::unordered_map<std::uint32_t, std::unique_ptr<LocalNode>> locals_;
  std::unordered_map<std::uint32_t, PeerAddress> remotes_;
  /// Every open connection, dialed or accepted, by fd.
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;
  std::size_t accepted_open_ = 0;
  std::uint64_t next_serial_ = 0;
  /// Remote node id → the connection frames to it travel over.
  std::unordered_map<std::uint32_t, Connection*> routes_;
  sim::EventId sweep_timer_;
  TransportStats stats_;
};

}  // namespace idem::rpc
