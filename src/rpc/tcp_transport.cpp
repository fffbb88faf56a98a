#include "rpc/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "common/logging.hpp"
#include "consensus/messages.hpp"

namespace idem::rpc {

namespace {

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

bool resolve(const std::string& host, std::uint16_t port, sockaddr_in& out) {
  out = sockaddr_in{};
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  if (host.empty() || host == "localhost") {
    out.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

}  // namespace

std::optional<PeerAddress> parse_address(const std::string& text) {
  PeerAddress address;
  std::string port_part = text;
  std::size_t colon = text.rfind(':');
  if (colon != std::string::npos) {
    address.host = text.substr(0, colon);
    port_part = text.substr(colon + 1);
  }
  if (address.host.empty()) address.host = "127.0.0.1";
  if (port_part.empty()) return std::nullopt;
  char* end = nullptr;
  unsigned long port = std::strtoul(port_part.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) return std::nullopt;
  sockaddr_in probe;
  if (!resolve(address.host, 1, probe)) return std::nullopt;
  address.port = static_cast<std::uint16_t>(port);
  return address;
}

struct TcpTransport::LocalNode {
  sim::NodeId id;
  sim::NodeKind kind = sim::NodeKind::Replica;
  sim::Endpoint* endpoint = nullptr;
  int listen_fd = -1;
  std::uint16_t port = 0;
};

struct TcpTransport::Connection {
  static constexpr Time kNoPartial = -1;

  int fd = -1;
  bool accepted = false;         ///< accepted on a local listener (else we dialed it)
  bool connected = true;         ///< dialed: the handshake has completed
  bool retired = false;          ///< lost a duplicate-connection race: no new frames
  bool write_shut = false;       ///< our half-close has been sent
  bool flush_scheduled = false;  ///< a deferred end-of-iteration flush is queued
  std::uint32_t owner = 0;       ///< accepting listener's node, or the dialing node;
                                 ///< kNoDest frames are delivered to it
  std::uint32_t dialer = kNoDest;  ///< node that dialed it: the sender of its
                                   ///< first frame (sent or received)
  std::uint64_t serial = 0;      ///< creation order (newer wins a tie between dialers)
  std::string peer_host;         ///< host part of return addresses learned here
  FrameReader reader;
  PendingWrites out;
  /// Remote nodes whose route points here (entries another connection
  /// has since taken over are skipped on close).
  std::vector<std::uint32_t> routes;
  Time last_activity = 0;        ///< creation, then the last recv or send that moved bytes
  Time partial_since = kNoPartial;  ///< when the currently buffered partial
                                    ///< frame started (completed frames reset it)

  Connection(std::size_t max_frame, std::size_t initial_capacity)
      : reader(max_frame, initial_capacity) {}
};

std::size_t PendingWrites::fill_iovec(iovec* iov, std::size_t max) const {
  std::size_t n = 0;
  for (const std::vector<std::byte>& frame : frames) {
    if (n == max) break;
    std::size_t skip = (n == 0) ? front_offset : 0;
    iov[n].iov_base = const_cast<std::byte*>(frame.data() + skip);
    iov[n].iov_len = frame.size() - skip;
    ++n;
  }
  return n;
}

void PendingWrites::consume(std::size_t written) {
  total_bytes -= written;
  while (written > 0) {
    std::size_t front_left = frames.front().size() - front_offset;
    if (written < front_left) {
      front_offset += written;
      return;
    }
    written -= front_left;
    frames.pop_front();
    front_offset = 0;
  }
}

TcpTransport::TcpTransport(EventLoop& loop, TcpTransportConfig config)
    : loop_(loop), config_(std::move(config)) {
  arm_sweep();
}

TcpTransport::~TcpTransport() {
  if (sweep_timer_.valid()) loop_.cancel(sweep_timer_);
  for (auto& [fd, connection] : connections_) {
    loop_.unwatch(fd);
    ::close(fd);
  }
  for (auto& [id, node] : locals_) {
    if (node->listen_fd >= 0) {
      loop_.unwatch(node->listen_fd);
      ::close(node->listen_fd);
    }
  }
}

void TcpTransport::add_node(sim::NodeId id, sim::NodeKind kind, sim::Endpoint* endpoint) {
  auto node = std::make_unique<LocalNode>();
  node->id = id;
  node->kind = kind;
  node->endpoint = endpoint;

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  std::uint16_t requested = 0;
  if (config_.fixed_port != 0 && !fixed_port_used_) {
    requested = config_.fixed_port;
    fixed_port_used_ = true;
  }
  sockaddr_in addr;
  if (!resolve(config_.listen_host, requested, addr)) {
    ::close(fd);
    throw std::runtime_error("listen_host is not a numeric IPv4 address: " +
                             config_.listen_host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 128) < 0) {
    ::close(fd);
    throw std::runtime_error(std::string("bind/listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  node->listen_fd = fd;
  node->port = ntohs(addr.sin_port);

  LocalNode* raw = node.get();
  loop_.watch(fd, EPOLLIN, [this, raw](std::uint32_t) { accept_ready(*raw); });
  locals_[id.value] = std::move(node);
}

void TcpTransport::remove_node(sim::NodeId id) {
  auto it = locals_.find(id.value);
  if (it == locals_.end()) return;
  LocalNode& node = *it->second;
  if (node.listen_fd >= 0) {
    loop_.unwatch(node.listen_fd);
    ::close(node.listen_fd);
  }
  std::vector<Connection*> accepted;
  for (auto& [fd, connection] : connections_) {
    if (connection->accepted && connection->owner == id.value) accepted.push_back(connection.get());
  }
  for (Connection* connection : accepted) close_connection(*connection);
  locals_.erase(it);
}

std::uint16_t TcpTransport::port_of(sim::NodeId id) const {
  auto it = locals_.find(id.value);
  return it == locals_.end() ? 0 : it->second->port;
}

void TcpTransport::set_remote(sim::NodeId id, const PeerAddress& address) {
  remotes_[id.value] = address;
}

TcpTransport::Connection& TcpTransport::add_connection(int fd, bool accepted, std::uint32_t owner,
                                                       std::string peer_host) {
  auto connection =
      std::make_unique<Connection>(config_.max_frame_bytes, config_.read_buffer_bytes);
  connection->fd = fd;
  connection->accepted = accepted;
  connection->owner = owner;
  connection->serial = next_serial_++;
  connection->peer_host = std::move(peer_host);
  connection->last_activity = loop_.now();
  Connection& raw = *connection;
  connections_[fd] = std::move(connection);
  if (accepted) ++accepted_open_;
  // A dialed socket also waits for EPOLLOUT: the handshake completing.
  loop_.watch(fd, accepted ? EPOLLIN : EPOLLIN | EPOLLOUT,
              [this, fd](std::uint32_t events) { connection_event(fd, events); });
  return raw;
}

void TcpTransport::accept_ready(LocalNode& node) {
  for (std::size_t accepted = 0; accepted < config_.accept_burst; ++accepted) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    int fd = ::accept4(node.listen_fd, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or error: backlog drained for now
    if (config_.max_inbound_connections != 0 &&
        accepted_open_ >= config_.max_inbound_connections) {
      // At the connection cap: shed at accept, before the connection costs
      // a buffer or a watch. The peer sees an immediate close (reset once
      // it writes) — the connection-limit early rejection
      // (RejectReason::ConnectionLimit in the telemetry mirrors).
      ++stats_.connection_limit_sheds;
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    char host[INET_ADDRSTRLEN] = "127.0.0.1";
    if (peer.sin_family == AF_INET) {
      ::inet_ntop(AF_INET, &peer.sin_addr, host, sizeof(host));
    }
    add_connection(fd, /*accepted=*/true, node.id.value, host);
    ++stats_.accepted_connections;
  }
  // Burst budget spent with the backlog possibly non-empty: continue in
  // the next loop iteration (deferred tasks deferred from a deferred task
  // run one iteration later), so a connect flood drains in bounded slices
  // and established connections' I/O and due timers run in between.
  std::uint32_t id = node.id.value;
  loop_.defer([this, id] {
    if (auto it = locals_.find(id); it != locals_.end()) accept_ready(*it->second);
  });
}

TcpTransport::Connection* TcpTransport::route_to(std::uint32_t from, std::uint32_t to) {
  if (auto route = routes_.find(to); route != routes_.end()) return route->second;

  PeerAddress address;
  if (auto it = locals_.find(to); it != locals_.end()) {
    address = PeerAddress{"127.0.0.1", it->second->port};
  } else if (auto remote = remotes_.find(to); remote != remotes_.end()) {
    address = remote->second;
  }
  sockaddr_in addr;
  if (address.port == 0 || !resolve(address.host, address.port, addr)) return nullptr;

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  set_nodelay(fd);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }
  Connection& connection = add_connection(fd, /*accepted=*/false, from, address.host);
  connection.connected = (rc == 0);
  connection.routes.push_back(to);
  routes_[to] = &connection;
  return &connection;
}

void TcpTransport::learn_route(Connection& connection, std::uint32_t sender,
                               std::uint32_t sender_port) {
  auto route = routes_.find(sender);
  if (route != routes_.end() && route->second == &connection) return;  // the steady state
  // Local senders talk to themselves through our own listener: the
  // connection's other end already routes for them.
  if (connection.retired || locals_.contains(sender)) return;
  if (route == routes_.end()) {
    routes_.emplace(sender, &connection);
    connection.routes.push_back(sender);
    // Kept for re-dialing the sender once this connection is gone
    // (self-advertised port, peer IP from the socket). Port 0 means the
    // sender has no listener: only this connection reaches it.
    if (sender_port != 0) {
      remotes_[sender] =
          PeerAddress{connection.peer_host, static_cast<std::uint16_t>(sender_port)};
    }
    return;
  }
  // A second connection reaches the same peer transport (both ends
  // dialed, or the peer reconnected). Both ends keep the one dialed by the
  // lower node id; on a tie the newer one, which the peer chose last.
  Connection& current = *route->second;
  if (connection.dialer < current.dialer ||
      (connection.dialer == current.dialer && connection.serial > current.serial)) {
    retire(current, connection);
  }
}

void TcpTransport::retire(Connection& loser, Connection& winner) {
  for (std::uint32_t node : loser.routes) {
    auto route = routes_.find(node);
    if (route == routes_.end() || route->second != &loser) continue;
    route->second = &winner;
    if (std::find(winner.routes.begin(), winner.routes.end(), node) == winner.routes.end()) {
      winner.routes.push_back(node);
    }
  }
  loser.routes.clear();
  loser.retired = true;
  // Frames already queued on the loser still leave over it; once they
  // have, its dialer half-closes it (flush()), the peer answers with its
  // own close after its last frames, and both ends close on EOF.
  schedule_flush(loser);
}

void TcpTransport::connection_event(int fd, std::uint32_t events) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& connection = *it->second;
  if (!connection.connected) {
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0 || (events & (EPOLLERR | EPOLLHUP))) {
      // Connection refused / unreachable: fair-loss drop of everything queued.
      close_connection(connection);
      return;
    }
    connection.connected = true;
  }
  if (events & EPOLLOUT) {
    flush(connection);  // may close the connection on error
    if (!connections_.contains(fd)) return;
  }
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) read_ready(connection);
}

void TcpTransport::read_ready(Connection& connection) {
  const int fd = connection.fd;
  for (;;) {
    // Recv straight into the reader's reuse buffer: no intermediate copy,
    // and no allocation once the buffer has warmed up to the connection's
    // largest frame.
    std::span<std::byte> dst = connection.reader.write_span(config_.read_buffer_bytes);
    ssize_t n = ::recv(fd, dst.data(), dst.size(), 0);
    if (n > 0) {
      connection.reader.commit(static_cast<std::size_t>(n));
      connection.last_activity = loop_.now();
      bool completed_frame = false;
      bool ok = connection.reader.drain([&](std::uint32_t sender, std::uint32_t sender_port,
                                            std::uint32_t dest,
                                            std::span<const std::byte> payload) {
        completed_frame = true;
        if (connection.dialer == kNoDest) connection.dialer = sender;  // accepted: first frame
        learn_route(connection, sender, sender_port);
        auto local_it = locals_.find(dest == kNoDest ? connection.owner : dest);
        if (local_it == locals_.end()) return;
        try {
          auto message = msg::decode(payload);
          ++stats_.messages_delivered;
          local_it->second->endpoint->deliver(sim::NodeId{sender}, std::move(message));
        } catch (const CodecError&) {
          ++stats_.decode_errors;
        }
      });
      // Half-open tracking: a buffered partial frame starts (or keeps) the
      // eviction clock; completing any frame restarts it — so pipelined
      // bursts are safe while a trickled never-ending frame is not.
      if (!connection.reader.truncated()) {
        connection.partial_since = Connection::kNoPartial;
      } else if (completed_frame || connection.partial_since == Connection::kNoPartial) {
        connection.partial_since = loop_.now();
      }
      if (!ok) {
        // Oversized length header: poisoned stream, count and drop it.
        ++stats_.decode_errors;
        ++stats_.oversized_frames;
        LOG_WARN("tcp", "dropping connection of node ", connection.owner, " (oversized frame)");
        close_connection(connection);
        return;
      }
      // A short read drained the socket: stop here instead of paying one
      // more recv for the EAGAIN. epoll is level-triggered, so bytes (or a
      // FIN) arriving meanwhile fire the fd again.
      if (static_cast<std::size_t>(n) < dst.size()) return;
      continue;
    }
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      // Peer closed or reset. Bytes of an unfinished frame mean the stream
      // was cut mid-message: account for the truncated frame.
      if (connection.reader.truncated()) ++stats_.decode_errors;
      if (n == 0 && !connection.out.empty()) {
        // A half-close (a retired duplicate): what we still owe the peer
        // goes out before we close our end.
        flush(connection);
        if (!connections_.contains(fd)) return;
      }
      close_connection(connection);
      return;
    }
    return;  // EAGAIN: wait for more data
  }
}

void TcpTransport::close_connection(Connection& connection) {
  const int fd = connection.fd;
  loop_.unwatch(fd);
  ::close(fd);
  // Drop the routes that still point here (another connection may have
  // taken some over — leave those alone); the next send re-dials.
  for (std::uint32_t node : connection.routes) {
    if (auto route = routes_.find(node); route != routes_.end() && route->second == &connection) {
      routes_.erase(route);
    }
  }
  if (connection.accepted) --accepted_open_;
  connections_.erase(fd);
}

void TcpTransport::schedule_flush(Connection& connection) {
  // Coalescing point: every send during this loop iteration appends to the
  // pending queue, and one deferred flush writes them all with a single
  // sendmsg. The deferred task re-resolves the connection by fd — it may
  // have been closed (and the fd recycled) before the end of the
  // iteration, in which case flushing the new connection's queue early is
  // harmless.
  if (connection.flush_scheduled) return;
  connection.flush_scheduled = true;
  const int fd = connection.fd;
  loop_.defer([this, fd] {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    it->second->flush_scheduled = false;
    if (it->second->connected) flush(*it->second);
  });
}

void TcpTransport::flush(Connection& connection) {
  while (!connection.out.empty()) {
    iovec iov[kMaxFlushIov];
    std::size_t n_iov = connection.out.fill_iovec(iov, kMaxFlushIov);
    msghdr header{};
    header.msg_iov = iov;
    header.msg_iovlen = n_iov;
    ssize_t n = ::sendmsg(connection.fd, &header, MSG_NOSIGNAL);
    if (n > 0) {
      ++stats_.write_syscalls;
      connection.out.consume(static_cast<std::size_t>(n));
      connection.last_activity = loop_.now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.modify(connection.fd, EPOLLIN | EPOLLOUT);
      return;
    }
    close_connection(connection);  // peer gone; invalidates `connection`
    return;
  }
  if (connection.retired && !connection.accepted && !connection.write_shut) {
    // A drained duplicate we dialed: tell the peer we are done with it.
    ::shutdown(connection.fd, SHUT_WR);
    connection.write_shut = true;
  }
  // Fully flushed: only wake for reads until there is more to send.
  loop_.modify(connection.fd, EPOLLIN);
}

void TcpTransport::arm_sweep() {
  if (config_.idle_timeout <= 0 && config_.half_open_timeout <= 0) return;
  Duration interval = config_.sweep_interval;
  if (interval <= 0) {
    Duration shortest = config_.idle_timeout > 0 ? config_.idle_timeout : 0;
    if (config_.half_open_timeout > 0 &&
        (shortest == 0 || config_.half_open_timeout < shortest)) {
      shortest = config_.half_open_timeout;
    }
    interval = std::clamp<Duration>(shortest / 4, 10 * kMillisecond, kSecond);
  }
  sweep_timer_ = loop_.schedule_after(interval, [this] {
    sweep_connections();
    arm_sweep();
  });
}

void TcpTransport::sweep_connections() {
  const Time now = loop_.now();
  // Two-phase: collect first, then evict — close_connection mutates
  // connections_.
  std::vector<int> half_open;
  std::vector<int> idle;
  for (const auto& [fd, connection] : connections_) {
    if (config_.half_open_timeout > 0 &&
        connection->partial_since != Connection::kNoPartial &&
        now - connection->partial_since >= config_.half_open_timeout) {
      half_open.push_back(fd);
    } else if (config_.idle_timeout > 0 &&
               now - connection->last_activity >= config_.idle_timeout) {
      idle.push_back(fd);
    }
  }
  for (int fd : half_open) {
    if (auto it = connections_.find(fd); it != connections_.end()) {
      ++stats_.half_open_evictions;
      ++stats_.decode_errors;  // the trickled frame dies truncated
      close_connection(*it->second);
    }
  }
  for (int fd : idle) {
    if (auto it = connections_.find(fd); it != connections_.end()) {
      ++stats_.idle_evictions;
      close_connection(*it->second);
    }
  }
}

std::size_t TcpTransport::pending_write_bytes() const {
  std::size_t total = 0;
  for (const auto& [fd, connection] : connections_) total += connection->out.total_bytes;
  return total;
}

TransportMemory TcpTransport::memory() const {
  TransportMemory memory;
  memory.inbound_connections = inbound_connections();
  memory.outbound_connections = outbound_connections();
  for (const auto& [fd, connection] : connections_) {
    memory.inbound_buffer_bytes += connection->reader.capacity();
    memory.pending_write_bytes += connection->out.total_bytes;
  }
  return memory;
}

void TcpTransport::send(sim::NodeId from, sim::NodeId to, sim::PayloadPtr message) {
  const auto* typed = dynamic_cast<const msg::Message*>(message.get());
  Connection* connection = typed == nullptr ? nullptr : route_to(from.value, to.value);
  if (connection == nullptr) {
    ++stats_.dropped;
    return;
  }

  std::uint32_t sender_port = 0;
  if (auto sender_it = locals_.find(from.value); sender_it != locals_.end()) {
    sender_port = sender_it->second->port;
  }
  std::vector<std::byte> frame = frame_message(*typed, from.value, sender_port, to.value);
  if (connection->out.total_bytes + frame.size() > config_.max_pending_write_bytes) {
    // The peer stopped draining: shed this frame (fair loss) rather than
    // buffer without bound.
    ++stats_.send_queue_overflows;
    ++stats_.dropped;
    return;
  }
  stats_.messages_sent += 1;
  stats_.bytes_sent += frame.size();
  connection->out.push(std::move(frame));
  // A dialed connection's first frame names its dialer, exactly as the
  // peer will read it.
  if (connection->dialer == kNoDest) connection->dialer = from.value;
  // Not yet connected: connection_event() flushes once the connect
  // completes.
  if (connection->connected) schedule_flush(*connection);
}

}  // namespace idem::rpc
