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
  std::vector<int> inbound_fds;  // accepted connections delivering to this node
};

struct TcpTransport::InboundConnection {
  static constexpr Time kNoPartial = -1;

  int fd = -1;
  std::uint32_t local_node = 0;  // destination of the frames on this connection
  std::string peer_host;         // learned at accept; return address for senders
  FrameReader reader;
  /// Listener-less senders (port-0 frames) whose replies route back over
  /// this connection; one entry in practice (one session per socket).
  std::vector<std::uint32_t> route_nodes;
  PendingWrites out;             // reply-over-inbound frames awaiting write
  bool flush_scheduled = false;  ///< a deferred end-of-iteration flush is queued
  Time last_activity = 0;        ///< accept time, then the last recv that moved bytes
  Time partial_since = kNoPartial;  ///< when the currently buffered partial
                                    ///< frame started (completed frames reset it)

  InboundConnection(std::size_t max_frame, std::size_t initial_capacity)
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

struct TcpTransport::OutboundConnection {
  int fd = -1;
  std::uint32_t dest = 0;
  bool connected = false;
  bool flush_scheduled = false;  ///< a deferred end-of-iteration flush is queued
  PendingWrites out;
};

TcpTransport::TcpTransport(EventLoop& loop, TcpTransportConfig config)
    : loop_(loop), config_(std::move(config)) {
  arm_sweep();
}

TcpTransport::~TcpTransport() {
  if (sweep_timer_.valid()) loop_.cancel(sweep_timer_);
  for (auto& [fd, connection] : inbound_) {
    loop_.unwatch(fd);
    ::close(fd);
  }
  for (auto& [dest, connection] : outbound_) {
    if (connection->fd >= 0) {
      loop_.unwatch(connection->fd);
      ::close(connection->fd);
    }
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
  for (int fd : node.inbound_fds) {
    auto conn_it = inbound_.find(fd);
    if (conn_it != inbound_.end()) {
      loop_.unwatch(fd);
      ::close(fd);
      inbound_.erase(conn_it);
    }
  }
  locals_.erase(it);
}

std::uint16_t TcpTransport::port_of(sim::NodeId id) const {
  auto it = locals_.find(id.value);
  return it == locals_.end() ? 0 : it->second->port;
}

void TcpTransport::set_remote(sim::NodeId id, const PeerAddress& address) {
  remotes_[id.value] = address;
}

void TcpTransport::accept_ready(LocalNode& node) {
  for (std::size_t accepted = 0; accepted < config_.accept_burst; ++accepted) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    int fd = ::accept4(node.listen_fd, reinterpret_cast<sockaddr*>(&peer), &peer_len,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or error: backlog drained for now
    if (config_.max_inbound_connections != 0 &&
        inbound_.size() >= config_.max_inbound_connections) {
      // At the connection cap: shed at accept, before the connection costs
      // a buffer or a watch. The peer sees an immediate close (reset once
      // it writes) — the connection-limit early rejection
      // (RejectReason::ConnectionLimit in the telemetry mirrors).
      ++stats_.connection_limit_sheds;
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    auto connection = std::make_unique<InboundConnection>(config_.max_frame_bytes,
                                                          config_.read_buffer_bytes);
    connection->fd = fd;
    connection->local_node = node.id.value;
    connection->last_activity = loop_.now();
    char host[INET_ADDRSTRLEN] = "127.0.0.1";
    if (peer.sin_family == AF_INET) {
      ::inet_ntop(AF_INET, &peer.sin_addr, host, sizeof(host));
    }
    connection->peer_host = host;
    ++stats_.accepted_connections;
    node.inbound_fds.push_back(fd);
    inbound_[fd] = std::move(connection);
    loop_.watch(fd, EPOLLIN, [this, fd](std::uint32_t events) { inbound_event(fd, events); });
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

void TcpTransport::close_inbound(int fd, InboundConnection& connection) {
  loop_.unwatch(fd);
  ::close(fd);
  // Detach from the owning node so remove_node never touches a recycled
  // fd number.
  if (auto local_it = locals_.find(connection.local_node); local_it != locals_.end()) {
    auto& fds = local_it->second->inbound_fds;
    std::erase(fds, fd);
  }
  // Retire reply routes that still point at this connection (a reconnect
  // may already have repointed them at a newer fd — leave those alone).
  for (std::uint32_t node : connection.route_nodes) {
    if (auto route = inbound_routes_.find(node);
        route != inbound_routes_.end() && route->second == fd) {
      inbound_routes_.erase(route);
    }
  }
  inbound_.erase(fd);
}

void TcpTransport::inbound_event(int fd, std::uint32_t events) {
  if (events & EPOLLOUT) {
    auto it = inbound_.find(fd);
    if (it == inbound_.end()) return;
    flush_inbound(*it->second);         // may close the connection on error
    if (!inbound_.contains(fd)) return;
  }
  if (events & (EPOLLIN | EPOLLERR | EPOLLHUP)) inbound_ready(fd);
}

void TcpTransport::inbound_ready(int fd) {
  auto it = inbound_.find(fd);
  if (it == inbound_.end()) return;
  InboundConnection& connection = *it->second;

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
      bool ok = connection.reader.drain(
          [&](std::uint32_t sender, std::uint32_t sender_port,
              std::span<const std::byte> payload) {
            completed_frame = true;
            // Learn the sender's return address (self-advertised port, peer
            // IP from the socket): this is how replicas can answer clients
            // they were never configured with in multi-process deployments.
            // Port 0 means the sender has no listener at all — replies to
            // it go back over this very connection.
            if (!locals_.contains(sender)) {
              if (sender_port != 0) {
                remotes_[sender] =
                    PeerAddress{connection.peer_host, static_cast<std::uint16_t>(sender_port)};
              } else {
                inbound_routes_[sender] = fd;  // newest connection wins
                auto& routed = connection.route_nodes;
                if (std::find(routed.begin(), routed.end(), sender) == routed.end()) {
                  routed.push_back(sender);
                }
              }
            }
            auto local_it = locals_.find(connection.local_node);
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
        connection.partial_since = InboundConnection::kNoPartial;
      } else if (completed_frame ||
                 connection.partial_since == InboundConnection::kNoPartial) {
        connection.partial_since = loop_.now();
      }
      if (!ok) {
        // Oversized length header: poisoned stream, count and drop it.
        ++stats_.decode_errors;
        ++stats_.oversized_frames;
        LOG_WARN("tcp", "dropping connection to node ", connection.local_node,
                 " (oversized frame)");
        close_inbound(fd, connection);
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
      close_inbound(fd, connection);
      return;
    }
    return;  // EAGAIN: wait for more data
  }
}

TcpTransport::OutboundConnection* TcpTransport::connect_to(std::uint32_t dest,
                                                           const PeerAddress& address) {
  sockaddr_in addr;
  if (!resolve(address.host, address.port, addr)) return nullptr;

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  set_nodelay(fd);

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno != EINPROGRESS) {
    ::close(fd);
    return nullptr;
  }

  auto connection = std::make_unique<OutboundConnection>();
  connection->fd = fd;
  connection->dest = dest;
  connection->connected = (rc == 0);
  OutboundConnection* raw = connection.get();
  outbound_[dest] = std::move(connection);
  loop_.watch(fd, EPOLLOUT, [this, dest](std::uint32_t events) { outbound_ready(dest, events); });
  return raw;
}

void TcpTransport::drop_outbound(std::uint32_t dest) {
  auto it = outbound_.find(dest);
  if (it == outbound_.end()) return;
  if (it->second->fd >= 0) {
    loop_.unwatch(it->second->fd);
    ::close(it->second->fd);
  }
  outbound_.erase(it);
}

void TcpTransport::outbound_ready(std::uint32_t dest, std::uint32_t events) {
  auto it = outbound_.find(dest);
  if (it == outbound_.end()) return;
  OutboundConnection& connection = *it->second;

  if (events & (EPOLLERR | EPOLLHUP)) {
    // Connection refused / reset: fair-loss drop of everything queued.
    drop_outbound(dest);
    return;
  }
  if (!connection.connected) {
    int error = 0;
    socklen_t len = sizeof(error);
    ::getsockopt(connection.fd, SOL_SOCKET, SO_ERROR, &error, &len);
    if (error != 0) {
      drop_outbound(dest);
      return;
    }
    connection.connected = true;
  }
  flush(connection);
}

void TcpTransport::schedule_flush(OutboundConnection& connection) {
  // Coalescing point: every send during this loop iteration appends to the
  // pending queue, and one deferred flush writes them all with a single
  // sendmsg. The deferred task re-resolves the connection by destination —
  // it may have been dropped (or dropped and re-established) before the
  // end of the iteration.
  if (connection.flush_scheduled) return;
  connection.flush_scheduled = true;
  std::uint32_t dest = connection.dest;
  loop_.defer([this, dest] {
    auto it = outbound_.find(dest);
    if (it == outbound_.end()) return;
    it->second->flush_scheduled = false;
    if (it->second->connected) flush(*it->second);
  });
}

void TcpTransport::flush(OutboundConnection& connection) {
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
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.modify(connection.fd, EPOLLOUT);
      return;
    }
    drop_outbound(connection.dest);  // invalidates `connection`
    return;
  }
  // Fully flushed: only wake on errors until there is more to send.
  loop_.modify(connection.fd, 0);
}

void TcpTransport::schedule_inbound_flush(InboundConnection& connection) {
  // Same write-coalescing shape as outbound: replies queued during one
  // loop iteration leave in a single sendmsg. The deferred task re-resolves
  // the connection by fd — it may have been closed (and the fd recycled)
  // before the end of the iteration, in which case flushing the new
  // connection's (empty) queue is a harmless no-op.
  if (connection.flush_scheduled) return;
  connection.flush_scheduled = true;
  int fd = connection.fd;
  loop_.defer([this, fd] {
    auto it = inbound_.find(fd);
    if (it == inbound_.end()) return;
    it->second->flush_scheduled = false;
    flush_inbound(*it->second);
  });
}

void TcpTransport::flush_inbound(InboundConnection& connection) {
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
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.modify(connection.fd, EPOLLIN | EPOLLOUT);
      return;
    }
    close_inbound(connection.fd, connection);  // peer gone; invalidates `connection`
    return;
  }
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
  // Two-phase: collect first, then evict — close_inbound mutates inbound_.
  std::vector<int> half_open;
  std::vector<int> idle;
  for (const auto& [fd, connection] : inbound_) {
    if (config_.half_open_timeout > 0 &&
        connection->partial_since != InboundConnection::kNoPartial &&
        now - connection->partial_since >= config_.half_open_timeout) {
      half_open.push_back(fd);
    } else if (config_.idle_timeout > 0 &&
               now - connection->last_activity >= config_.idle_timeout) {
      idle.push_back(fd);
    }
  }
  for (int fd : half_open) {
    if (auto it = inbound_.find(fd); it != inbound_.end()) {
      ++stats_.half_open_evictions;
      ++stats_.decode_errors;  // the trickled frame dies truncated
      close_inbound(fd, *it->second);
    }
  }
  for (int fd : idle) {
    if (auto it = inbound_.find(fd); it != inbound_.end()) {
      ++stats_.idle_evictions;
      close_inbound(fd, *it->second);
    }
  }
}

std::size_t TcpTransport::pending_write_bytes() const {
  std::size_t total = 0;
  for (const auto& [dest, connection] : outbound_) total += connection->out.total_bytes;
  for (const auto& [fd, connection] : inbound_) total += connection->out.total_bytes;
  return total;
}

TransportMemory TcpTransport::memory() const {
  TransportMemory memory;
  memory.inbound_connections = inbound_.size();
  memory.outbound_connections = outbound_.size();
  for (const auto& [fd, connection] : inbound_) {
    memory.inbound_buffer_bytes += connection->reader.capacity();
    memory.pending_write_bytes += connection->out.total_bytes;
  }
  for (const auto& [dest, connection] : outbound_) {
    memory.pending_write_bytes += connection->out.total_bytes;
  }
  return memory;
}

void TcpTransport::send(sim::NodeId from, sim::NodeId to, sim::PayloadPtr message) {
  const auto* typed = dynamic_cast<const msg::Message*>(message.get());
  if (typed == nullptr) {
    ++stats_.dropped;
    return;
  }

  std::uint32_t sender_port_adv = 0;
  if (auto sender_it = locals_.find(from.value); sender_it != locals_.end()) {
    sender_port_adv = sender_it->second->port;
  }

  PeerAddress address;
  if (auto it = locals_.find(to.value); it != locals_.end()) {
    address = PeerAddress{"127.0.0.1", it->second->port};
  } else if (auto remote = remotes_.find(to.value); remote != remotes_.end()) {
    address = remote->second;
  }
  if (address.port == 0) {
    // Not dialable — but a listener-less peer (port-0 frames) may have an
    // inbound connection we can answer over.
    if (auto route = inbound_routes_.find(to.value); route != inbound_routes_.end()) {
      if (auto conn_it = inbound_.find(route->second); conn_it != inbound_.end()) {
        InboundConnection& connection = *conn_it->second;
        std::vector<std::byte> frame =
            encode_frame(from.value, sender_port_adv, typed->encode());
        if (connection.out.total_bytes + frame.size() > config_.max_pending_write_bytes) {
          ++stats_.send_queue_overflows;
          ++stats_.dropped;
          return;
        }
        stats_.messages_sent += 1;
        stats_.bytes_sent += frame.size();
        connection.out.push(std::move(frame));
        schedule_inbound_flush(connection);
        return;
      }
    }
    ++stats_.dropped;
    return;
  }

  auto it = outbound_.find(to.value);
  OutboundConnection* connection =
      it != outbound_.end() ? it->second.get() : connect_to(to.value, address);
  if (connection == nullptr) {
    ++stats_.dropped;
    return;
  }

  std::vector<std::byte> frame = encode_frame(from.value, sender_port_adv, typed->encode());
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
  if (connection->connected) schedule_flush(*connection);
  // Not yet connected: the EPOLLOUT watcher flushes once the connect
  // completes.
}

}  // namespace idem::rpc
