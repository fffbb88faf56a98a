#include "real/storm.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "consensus/addresses.hpp"
#include "consensus/messages.hpp"

namespace idem::real {

namespace {

/// Sessions spawned or destroyed per reconciliation step outside a ramp —
/// a flash crowd arrives in bursts of this size with an event-loop
/// iteration between bursts, so established sessions' I/O keeps running.
constexpr std::size_t kSpawnChunk = 256;

/// Minimum gap between ramp steps; finer ramps batch several spawns per
/// step instead of scheduling sub-millisecond timers.
constexpr Duration kMinRampStep = 2 * kMillisecond;

/// Payload bytes a loris session's forever-unfinished frame claims.
constexpr std::size_t kLorisClaim = 64;

}  // namespace

/// One TCP connection of a session (session → one replica).
struct StormEngine::Conn {
  enum class State : std::uint8_t { Dead, Connecting, Connected };

  explicit Conn(std::size_t read_buffer)
      : reader(rpc::kMaxFrameBytes, read_buffer) {}

  int fd = -1;
  State state = State::Dead;
  std::uint32_t replica = 0;  ///< index into options_.replicas
  bool want_write = false;    ///< EPOLLOUT currently armed
  Time connect_started = 0;
  rpc::FrameReader reader;
  rpc::PendingWrites out;
};

/// One client session: per-session protocol state machine.
struct StormEngine::Session {
  std::size_t index = 0;
  ClientId cid;
  bool loris = false;
  bool active = false;  ///< at least one connection established
  /// Bumped by every teardown; lets re-entrant paths (drain callbacks that
  /// complete an operation which tears the connections down) detect that
  /// the connection they were reading from is gone.
  std::uint64_t conn_epoch = 0;
  std::vector<Conn> conns;

  // In-flight operation (one at a time, like the real client).
  std::uint64_t onr = 0;
  bool pending = false;
  RequestId pending_id;
  Time issued_at = 0;
  std::vector<std::byte> pending_frame;  ///< kept for retransmission
  std::uint64_t reject_mask = 0;  ///< replicas that rejected *this try*
  bool ambiv_armed = false;
  std::size_t ops_since_connect = 0;
  bool arrival_pending = false;  ///< open loop: an arrival found us busy

  std::unique_ptr<app::YcsbWorkload> workload;
  Rng* arrivals = nullptr;

  // Slow loris: the partial frame being trickled.
  std::vector<std::byte> loris_frame;
  std::size_t loris_sent = 0;

  sim::EventId retry_timer;
  sim::EventId timeout_timer;
  sim::EventId ambiv_timer;
  sim::EventId backoff_timer;
  sim::EventId arrival_timer;
  sim::EventId reconnect_timer;
  sim::EventId loris_timer;
};

StormEngine::StormEngine(StormOptions options)
    : options_(std::move(options)), loop_(options_.seed, options_.epoch) {
  const std::size_t n = options_.replicas.size();
  f_ = options_.f != std::size_t(-1) ? options_.f : (n >= 3 ? (n - 1) / 2 : 0);
  issue_rate_ = options_.issue_rate;
  jitter_ = &loop_.rng("storm.jitter");
}

StormEngine::~StormEngine() {
  for (auto& session : sessions_) destroy_session(*session);
  sessions_.clear();
}

std::size_t StormEngine::raise_fd_limit(std::size_t fds) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur >= fds) return lim.rlim_cur;
  rlimit want = lim;
  want.rlim_cur = fds;
  if (want.rlim_max < fds) want.rlim_max = fds;  // root may raise the hard cap
  if (::setrlimit(RLIMIT_NOFILE, &want) == 0) return want.rlim_cur;
  // Raising the hard limit needs privilege; settle for the existing cap.
  want.rlim_cur = lim.rlim_max;
  want.rlim_max = lim.rlim_max;
  if (::setrlimit(RLIMIT_NOFILE, &want) == 0) return want.rlim_cur;
  return lim.rlim_cur;
}

void StormEngine::start() {
  target_ = options_.sessions;
  ramp_active_ = options_.ramp > 0 && target_ > 0;
  if (ramp_active_) {
    const Duration per_session = options_.ramp / static_cast<Duration>(target_);
    if (per_session >= kMinRampStep) {
      ramp_chunk_ = 1;
      ramp_interval_ = per_session;
    } else {
      ramp_interval_ = kMinRampStep;
      ramp_chunk_ = per_session > 0
                        ? (kMinRampStep + per_session - 1) / per_session
                        : target_;
    }
  }
  schedule_spawn_step();
}

void StormEngine::run_for(Duration span) { loop_.run_for(span); }

void StormEngine::set_target_sessions(std::size_t n) {
  target_ = n;
  ramp_active_ = false;  // population jumps reconcile in chunked bursts
  schedule_spawn_step();
}

void StormEngine::set_issue_rate(double ops_per_sec) {
  issue_rate_ = ops_per_sec;
  for (auto& owned : sessions_) {
    Session& session = *owned;
    if (session.arrival_timer.valid()) {
      loop_.cancel(session.arrival_timer);
      session.arrival_timer = {};
    }
    if (!session.active || session.loris) continue;
    if (issue_rate_ > 0) {
      arm_arrival(session);
    } else if (!session.pending && !session.backoff_timer.valid()) {
      // Closed loop restarts from a completion; kick the idle sessions.
      Session* s = &session;
      session.backoff_timer = loop_.schedule_after(0, [this, s] {
        s->backoff_timer = {};
        if (s->active && !s->pending) issue_op(*s);
      });
    }
  }
}

void StormEngine::reconnect_all() {
  for (auto& owned : sessions_) {
    if (!owned->reconnect_timer.valid()) teardown_conns(*owned, /*reconnect=*/true);
  }
}

StormGauges StormEngine::gauges() const {
  StormGauges g;
  g.target_sessions = target_;
  g.sessions = sessions_.size();
  g.open_connections = open_connections_;
  g.connecting = connecting_;
  return g;
}

Duration StormEngine::reconnect_jitter() {
  const Duration lo = options_.reconnect_delay_min;
  const Duration hi = std::max(options_.reconnect_delay_max, lo);
  Duration delay = hi > lo ? lo + jitter_->uniform_int(0, hi - lo) : lo;
  return std::max<Duration>(delay, kMillisecond);
}

// --- population reconciliation -------------------------------------------

void StormEngine::schedule_spawn_step() {
  if (spawn_scheduled_) return;
  spawn_scheduled_ = true;
  if (ramp_active_ && ramp_interval_ > 0) {
    loop_.schedule_after(ramp_interval_, [this] { spawn_step(); });
  } else {
    loop_.defer([this] { spawn_step(); });
  }
}

void StormEngine::spawn_step() {
  spawn_scheduled_ = false;
  const std::size_t chunk = ramp_active_ ? ramp_chunk_ : kSpawnChunk;
  std::size_t moved = 0;
  while (sessions_.size() > target_ && moved < chunk) {
    destroy_session(*sessions_.back());
    sessions_.pop_back();
    ++moved;
  }
  while (sessions_.size() < target_ && moved < chunk) {
    spawn_session();
    ++moved;
  }
  if (sessions_.size() != target_) {
    schedule_spawn_step();
  } else {
    ramp_active_ = false;
  }
}

void StormEngine::spawn_session() {
  auto owned = std::make_unique<Session>();
  Session& session = *owned;
  session.index = next_index_++;
  session.cid = ClientId{options_.client_id_base + session.index};
  // Deterministic interleaved striping instead of a random draw: every
  // prefix of the population carries (about) the configured loris
  // fraction, so small runs still mix both kinds.
  const double frac = options_.slow_loris_fraction;
  session.loris =
      frac > 0 && static_cast<std::uint64_t>(static_cast<double>(session.index + 1) * frac) >
                      static_cast<std::uint64_t>(static_cast<double>(session.index) * frac);
  if (!session.loris) {
    session.workload = std::make_unique<app::YcsbWorkload>(
        options_.workload, loop_.rng("storm.wl.c" + std::to_string(session.cid.value)));
    if (options_.issue_rate > 0 || issue_rate_ > 0) {
      session.arrivals = &loop_.rng("storm.arr.c" + std::to_string(session.cid.value));
    }
  }
  sessions_.push_back(std::move(owned));
  connect_session(*sessions_.back());
}

void StormEngine::destroy_session(Session& session) {
  teardown_conns(session, /*reconnect=*/false);
  if (session.reconnect_timer.valid()) {
    loop_.cancel(session.reconnect_timer);
    session.reconnect_timer = {};
  }
}

// --- connection lifecycle -------------------------------------------------

void StormEngine::connect_session(Session& session) {
  session.ops_since_connect = 0;
  const std::size_t n = options_.replicas.size();
  const std::size_t targets = session.loris ? 1 : n;
  session.conns.clear();
  session.conns.reserve(targets);
  for (std::size_t ci = 0; ci < targets; ++ci) {
    Conn& conn = session.conns.emplace_back(options_.read_buffer_bytes);
    // Loris sessions hold one connection each, striped across replicas.
    conn.replica = session.loris
                       ? static_cast<std::uint32_t>(session.index % n)
                       : static_cast<std::uint32_t>(ci);
  }
  for (std::size_t ci = 0; ci < session.conns.size(); ++ci) open_conn(session, ci);
  // Whole cluster unreachable (or fd exhaustion): retry later instead of
  // leaving the session permanently dark.
  bool any = false;
  for (const Conn& conn : session.conns) any |= conn.state != Conn::State::Dead;
  if (!any && !session.reconnect_timer.valid()) {
    Session* s = &session;
    session.reconnect_timer = loop_.schedule_after(reconnect_jitter(), [this, s] {
      s->reconnect_timer = {};
      connect_session(*s);
    });
  }
}

void StormEngine::open_conn(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  const rpc::PeerAddress& address = options_.replicas[conn.replica];
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    ++window_.connect_failures;
    return;
  }
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(address.port);
  if (::inet_pton(AF_INET, address.host.c_str(), &sa.sin_addr) != 1) {
    ::close(fd);
    ++window_.connect_failures;
    return;
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    ++window_.connect_failures;
    return;
  }
  conn.fd = fd;
  conn.state = Conn::State::Connecting;
  conn.connect_started = loop_.now();
  ++connecting_;
  Session* s = &session;
  loop_.watch(fd, EPOLLOUT,
              [this, s, ci](std::uint32_t events) { conn_event(*s, ci, events); });
}

void StormEngine::teardown_conns(Session& session, bool reconnect) {
  ++session.conn_epoch;
  cancel_op_timers(session);
  if (session.arrival_timer.valid()) {
    loop_.cancel(session.arrival_timer);
    session.arrival_timer = {};
  }
  if (session.loris_timer.valid()) {
    loop_.cancel(session.loris_timer);
    session.loris_timer = {};
  }
  session.pending = false;
  session.arrival_pending = false;
  session.active = false;
  for (Conn& conn : session.conns) {
    if (conn.fd >= 0) {
      loop_.unwatch(conn.fd);
      ::close(conn.fd);
      conn.fd = -1;
    }
    if (conn.state == Conn::State::Connected) --open_connections_;
    if (conn.state == Conn::State::Connecting) --connecting_;
    conn.state = Conn::State::Dead;
    conn.out.clear();
  }
  if (reconnect && !session.reconnect_timer.valid()) {
    Session* s = &session;
    session.reconnect_timer = loop_.schedule_after(reconnect_jitter(), [this, s] {
      s->reconnect_timer = {};
      connect_session(*s);
    });
  }
}

void StormEngine::cancel_op_timers(Session& session) {
  for (sim::EventId* timer : {&session.retry_timer, &session.timeout_timer,
                              &session.ambiv_timer, &session.backoff_timer}) {
    if (timer->valid()) {
      loop_.cancel(*timer);
      *timer = {};
    }
  }
}

void StormEngine::conn_event(Session& session, std::size_t ci, std::uint32_t events) {
  Conn& conn = session.conns[ci];
  if (conn.state == Conn::State::Connecting) {
    int err = 0;
    socklen_t len = sizeof err;
    if ((events & (EPOLLERR | EPOLLHUP)) != 0 ||
        ::getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ++window_.connect_failures;
      loop_.unwatch(conn.fd);
      ::close(conn.fd);
      conn.fd = -1;
      conn.state = Conn::State::Dead;
      --connecting_;
      conn.out.clear();
      // A refused replica (crashed leader after a stampede) is left dead —
      // the session carries on with the survivors. Only a fully dark
      // session retries from scratch.
      bool any = false;
      for (const Conn& c : session.conns) any |= c.state != Conn::State::Dead;
      if (!any) teardown_conns(session, /*reconnect=*/true);
      return;
    }
    conn_established(session, ci);
    return;
  }
  if (conn.state != Conn::State::Connected) return;
  if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    on_reset(session, ci);
    return;
  }
  if ((events & EPOLLOUT) != 0) {
    if (!flush_conn(session, ci)) return;
  }
  if ((events & EPOLLIN) != 0) conn_readable(session, ci);
}

void StormEngine::conn_established(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  conn.state = Conn::State::Connected;
  --connecting_;
  ++open_connections_;
  ++window_.connects;
  window_.connect_latency.record(loop_.now() - conn.connect_started);
  int one = 1;
  ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  conn.want_write = !conn.out.empty();
  loop_.modify(conn.fd, EPOLLIN | (conn.want_write ? EPOLLOUT : 0u));
  if (session.loris) {
    loris_start(session, ci);
    return;
  }
  if (!session.active) session_active(session);
}

void StormEngine::on_reset(Session& session, std::size_t ci) {
  ++window_.resets;
  if (session.loris) ++window_.loris_evictions;
  (void)ci;
  // Any established connection dropping makes the session reconnect all of
  // them after a jittered delay — the behavior that turns a replica crash
  // into a reconnect stampede.
  teardown_conns(session, /*reconnect=*/true);
}

// --- data path ------------------------------------------------------------

bool StormEngine::flush_conn(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  while (!conn.out.empty()) {
    iovec iov[rpc::kMaxFlushIov];
    const std::size_t count = conn.out.fill_iovec(iov, rpc::kMaxFlushIov);
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = count;
    const ssize_t written = ::sendmsg(conn.fd, &mh, MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          loop_.modify(conn.fd, EPOLLIN | EPOLLOUT);
        }
        return true;
      }
      on_reset(session, ci);
      return false;
    }
    conn.out.consume(static_cast<std::size_t>(written));
  }
  if (conn.want_write) {
    conn.want_write = false;
    loop_.modify(conn.fd, EPOLLIN);
  }
  return true;
}

void StormEngine::conn_readable(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  const std::uint64_t epoch = session.conn_epoch;
  // One recv per readiness: level-triggered epoll re-arms if more bytes
  // wait, which keeps one chatty connection from starving 10k quiet ones.
  std::span<std::byte> span = conn.reader.write_span(options_.read_buffer_bytes);
  const ssize_t received = ::recv(conn.fd, span.data(), span.size(), 0);
  if (received == 0) {
    on_reset(session, ci);
    return;
  }
  if (received < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    on_reset(session, ci);
    return;
  }
  conn.reader.commit(static_cast<std::size_t>(received));
  const bool ok = conn.reader.drain(
      [this, &session, epoch](std::uint32_t sender, std::uint32_t /*sender_port*/,
                              std::uint32_t /*dest*/, std::span<const std::byte> payload) {
        // A frame earlier in this batch may have completed the operation
        // and torn the connections down (reconnect_every_ops churn).
        if (session.conn_epoch != epoch) return;
        on_frame(session, sender, payload);
      });
  if (session.conn_epoch != epoch) return;
  if (!ok) on_reset(session, ci);
}

void StormEngine::on_frame(Session& session, std::uint32_t sender,
                           std::span<const std::byte> payload) {
  if (!session.pending) return;
  std::shared_ptr<const msg::Message> message;
  try {
    message = msg::decode(payload);
  } catch (const std::exception&) {
    return;  // replicas don't send malformed frames; tolerate anyway
  }
  switch (message->type()) {
    case msg::Type::Reply: {
      const auto& reply = static_cast<const msg::Reply&>(*message);
      if (reply.id != session.pending_id) return;
      ++window_.replies;
      window_.reply_latency.record(loop_.now() - session.issued_at);
      complete_op(session, /*was_reply=*/true);
      return;
    }
    case msg::Type::Reject: {
      const auto& reject = static_cast<const msg::Reject&>(*message);
      if (reject.id != session.pending_id) return;
      on_reject(session, sender);
      return;
    }
    default:
      return;
  }
}

void StormEngine::on_reject(Session& session, std::uint32_t replica) {
  if (replica < 64) session.reject_mask |= 1ull << replica;
  const std::size_t distinct =
      static_cast<std::size_t>(std::popcount(session.reject_mask));
  const std::size_t n = options_.replicas.size();
  if (distinct >= n) {
    // Unanimous for this try: definitive rejection, notification latency
    // runs from issue to the n-th distinct REJECT.
    ++window_.rejects;
    window_.reject_latency.record(loop_.now() - session.issued_at);
    complete_op(session, /*was_reply=*/false);
    return;
  }
  if (!session.ambiv_armed && distinct >= n - f_) {
    // Ambivalence (paper Section 4.5): n-f rejections can never become a
    // reply unless a retry lands; wait out the optimistic window, then
    // treat it as rejected.
    session.ambiv_armed = true;
    Session* s = &session;
    session.ambiv_timer = loop_.schedule_after(options_.optimistic_wait, [this, s] {
      s->ambiv_timer = {};
      if (!s->pending) return;
      ++window_.rejects;
      window_.reject_latency.record(loop_.now() - s->issued_at);
      complete_op(*s, /*was_reply=*/false);
    });
  }
}

void StormEngine::session_active(Session& session) {
  session.active = true;
  if (session.loris) return;
  if (issue_rate_ > 0) {
    arm_arrival(session);
  } else if (!session.pending) {
    issue_op(session);
  }
}

void StormEngine::issue_op(Session& session) {
  ++session.onr;
  session.pending_id = RequestId{session.cid, OpNum{session.onr}};
  const msg::Request request(session.pending_id,
                             session.workload->next_operation().encode());
  // Sender-port 0: no listener to re-dial. kNoDest: the same frame goes
  // to every replica, each delivering it to the replica that accepted the
  // connection. Replies come back over this very connection.
  session.pending_frame =
      rpc::frame_message(request, consensus::client_address(session.cid).value, 0);
  session.pending = true;
  session.issued_at = loop_.now();
  session.reject_mask = 0;
  session.ambiv_armed = false;
  ++window_.issued;
  send_pending_frame(session);
  Session* s = &session;
  if (options_.retry_interval > 0) arm_retry(session);
  if (options_.op_timeout > 0) {
    session.timeout_timer = loop_.schedule_after(options_.op_timeout, [this, s] {
      s->timeout_timer = {};
      if (!s->pending) return;
      ++window_.timeouts;
      complete_op(*s, /*was_reply=*/false);
    });
  }
}

void StormEngine::arm_retry(Session& session) {
  Session* s = &session;
  session.retry_timer = loop_.schedule_after(options_.retry_interval, [this, s] {
    s->retry_timer = {};
    if (!s->pending) return;
    // A retransmission is a new try: rejections of the previous multicast
    // no longer count (paper Section 4.5, same rule as the core client).
    s->reject_mask = 0;
    ++window_.retransmits;
    send_pending_frame(*s);
    if (s->pending) arm_retry(*s);
  });
}

void StormEngine::send_pending_frame(Session& session) {
  for (std::size_t ci = 0; ci < session.conns.size(); ++ci) {
    Conn& conn = session.conns[ci];
    if (conn.state == Conn::State::Dead) continue;
    conn.out.push(session.pending_frame);
    // Connecting conns flush when the handshake completes.
    if (conn.state == Conn::State::Connected) {
      if (!flush_conn(session, ci)) return;
    }
  }
}

void StormEngine::complete_op(Session& session, bool was_reply) {
  cancel_op_timers(session);
  session.pending = false;
  ++session.ops_since_connect;
  if (options_.reconnect_every_ops != 0 &&
      session.ops_since_connect >= options_.reconnect_every_ops) {
    teardown_conns(session, /*reconnect=*/true);
    return;
  }
  if (issue_rate_ > 0) {
    if (session.arrival_pending) {
      session.arrival_pending = false;
      issue_op(session);
    }
    return;
  }
  // Closed loop: zero think time, but back off after a non-REPLY outcome
  // (paper Section 7.1). Issue through the loop so the stack unwinds.
  Duration delay = 0;
  if (!was_reply && options_.backoff_max > 0) {
    delay = options_.backoff_min +
            jitter_->uniform_int(0, std::max<Duration>(
                                        options_.backoff_max - options_.backoff_min, 0));
  }
  Session* s = &session;
  session.backoff_timer = loop_.schedule_after(delay, [this, s] {
    s->backoff_timer = {};
    if (s->active && !s->pending) issue_op(*s);
  });
}

void StormEngine::arm_arrival(Session& session) {
  if (issue_rate_ <= 0 || session.arrivals == nullptr) return;
  const double gap_sec = session.arrivals->exponential(1.0 / issue_rate_);
  Session* s = &session;
  session.arrival_timer = loop_.schedule_after(
      static_cast<Duration>(gap_sec * kSecond), [this, s] {
        s->arrival_timer = {};
        if (!s->active) return;  // re-armed by session_active on reconnect
        if (s->pending) {
          s->arrival_pending = true;
        } else {
          issue_op(*s);
        }
        arm_arrival(*s);
      });
}

// --- slow loris -----------------------------------------------------------

void StormEngine::loris_start(Session& session, std::size_t ci) {
  Conn& conn = session.conns[ci];
  const std::vector<std::byte> claim(kLorisClaim, std::byte{0});
  session.loris_frame =
      rpc::encode_frame(consensus::client_address(session.cid).value, 0, claim);
  session.loris_sent = 0;
  // Ship the header plus the first payload byte at once — from here on the
  // server is holding an incomplete frame.
  const std::size_t head = rpc::kFrameHeaderBytes + 1;
  const ssize_t sent = ::send(conn.fd, session.loris_frame.data(), head, MSG_NOSIGNAL);
  if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    on_reset(session, ci);
    return;
  }
  session.loris_sent = sent > 0 ? static_cast<std::size_t>(sent) : 0;
  Session* s = &session;
  session.loris_timer = loop_.schedule_after(options_.loris_trickle, [this, s] {
    s->loris_timer = {};
    loris_tick(*s);
  });
}

void StormEngine::loris_tick(Session& session) {
  if (session.conns.empty() || session.conns[0].state != Conn::State::Connected) return;
  // Trickle one byte per tick, but never the last one: the frame must stay
  // incomplete so only the half-open eviction can reclaim the connection.
  if (session.loris_sent + 1 < session.loris_frame.size()) {
    const ssize_t sent = ::send(session.conns[0].fd,
                                session.loris_frame.data() + session.loris_sent, 1,
                                MSG_NOSIGNAL);
    if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      on_reset(session, 0);
      return;
    }
    if (sent > 0) ++session.loris_sent;
  }
  Session* s = &session;
  session.loris_timer = loop_.schedule_after(options_.loris_trickle, [this, s] {
    s->loris_timer = {};
    loris_tick(*s);
  });
}

}  // namespace idem::real
