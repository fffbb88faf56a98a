// Tests for the real-time runtime and TCP transport: event-loop timers,
// frame reassembly, socket round trips, and — the headline — the complete
// IDEM protocol running over real kernel TCP instead of the simulator.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <set>

#include "app/kv_store.hpp"
#include "idem/acceptance.hpp"
#include "idem/client.hpp"
#include "idem/replica.hpp"
#include "rpc/event_loop.hpp"
#include "rpc/framing.hpp"
#include "rpc/tcp_transport.hpp"
#include "test_util.hpp"

namespace idem {
namespace {

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

TEST(EventLoopTest, TimersFireInOrder) {
  rpc::EventLoop loop;
  std::vector<int> order;
  loop.schedule_after(20 * kMillisecond, [&] { order.push_back(2); });
  loop.schedule_after(5 * kMillisecond, [&] { order.push_back(1); });
  loop.schedule_after(40 * kMillisecond, [&] {
    order.push_back(3);
    loop.stop();
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopTest, CancelPreventsTimer) {
  rpc::EventLoop loop;
  bool fired = false;
  auto id = loop.schedule_after(5 * kMillisecond, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(id));
  loop.run_for(20 * kMillisecond);
  EXPECT_FALSE(fired);
}

TEST(EventLoopTest, NowAdvancesWithWallClock) {
  rpc::EventLoop loop;
  Time before = loop.now();
  loop.run_for(10 * kMillisecond);
  EXPECT_GE(loop.now() - before, 9 * kMillisecond);
}

TEST(EventLoopTest, RngStreamsAreDeterministic) {
  rpc::EventLoop a(7), b(7);
  EXPECT_EQ(a.rng("x").next_u64(), b.rng("x").next_u64());
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(FramingTest, RoundTripSingleFrame) {
  auto payload = test::put_cmd("k", "v");
  auto frame = rpc::encode_frame(42, 9999, payload);
  rpc::FrameReader reader;
  int frames = 0;
  ASSERT_TRUE(reader.feed(frame, [&](std::uint32_t sender, std::uint32_t sender_port, std::uint32_t,
                                     std::span<const std::byte> body) {
    ++frames;
    EXPECT_EQ(sender, 42u);
    EXPECT_EQ(sender_port, 9999u);
    EXPECT_TRUE(std::equal(body.begin(), body.end(), payload.begin(), payload.end()));
  }));
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FramingTest, ReassemblesSplitFrames) {
  auto payload = test::put_cmd("key", "value");
  auto frame = rpc::encode_frame(7, 0, payload);
  rpc::FrameReader reader;
  int frames = 0;
  // Feed one byte at a time.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    ASSERT_TRUE(reader.feed(
        std::span<const std::byte>(&frame[i], 1),
        [&](std::uint32_t, std::uint32_t, std::uint32_t, std::span<const std::byte>) {
          ++frames;
        }));
  }
  EXPECT_EQ(frames, 1);
}

TEST(FramingTest, MultipleFramesPerRead) {
  auto a = rpc::encode_frame(1, 0, test::put_cmd("a", "1"));
  auto b = rpc::encode_frame(2, 0, test::put_cmd("b", "2"));
  std::vector<std::byte> both = a;
  both.insert(both.end(), b.begin(), b.end());
  rpc::FrameReader reader;
  std::vector<std::uint32_t> senders;
  ASSERT_TRUE(reader.feed(
      both, [&](std::uint32_t sender, std::uint32_t, std::uint32_t, std::span<const std::byte>) {
        senders.push_back(sender);
      }));
  EXPECT_EQ(senders, (std::vector<std::uint32_t>{1, 2}));
}

TEST(FramingTest, RejectsOversizedFrame) {
  std::vector<std::byte> bogus(12);
  bogus[0] = std::byte{0xFF};
  bogus[1] = std::byte{0xFF};
  bogus[2] = std::byte{0xFF};
  bogus[3] = std::byte{0xFF};  // length = 4 GiB
  rpc::FrameReader reader;
  EXPECT_FALSE(reader.feed(
      bogus, [](std::uint32_t, std::uint32_t, std::uint32_t, std::span<const std::byte>) {}));
  EXPECT_EQ(reader.error(), rpc::FrameReader::Error::Oversized);
  // The stream is poisoned: further feeds fail without invoking the callback.
  int frames = 0;
  auto good = rpc::encode_frame(1, 0, test::put_cmd("k", "v"));
  EXPECT_FALSE(reader.feed(
      good, [&](std::uint32_t, std::uint32_t, std::uint32_t, std::span<const std::byte>) {
        ++frames;
      }));
  EXPECT_EQ(frames, 0);
}

TEST(FramingTest, ConfigurableBoundRejectsJustAboveLimit) {
  rpc::FrameReader reader(/*max_frame=*/16);
  std::vector<std::byte> payload(17, std::byte{0xAB});
  auto frame = rpc::encode_frame(3, 0, payload);
  EXPECT_FALSE(reader.feed(
      frame, [](std::uint32_t, std::uint32_t, std::uint32_t, std::span<const std::byte>) {}));
  EXPECT_EQ(reader.error(), rpc::FrameReader::Error::Oversized);

  // At the limit the frame passes.
  rpc::FrameReader ok_reader(/*max_frame=*/16);
  std::vector<std::byte> fitting(16, std::byte{0xCD});
  int frames = 0;
  EXPECT_TRUE(ok_reader.feed(
      rpc::encode_frame(3, 0, fitting),
      [&](std::uint32_t, std::uint32_t, std::uint32_t, std::span<const std::byte> body) {
        ++frames;
        EXPECT_EQ(body.size(), 16u);
      }));
  EXPECT_EQ(frames, 1);
}

TEST(FramingTest, ReportsTruncatedStream) {
  auto frame = rpc::encode_frame(5, 0, test::put_cmd("key", "value"));
  rpc::FrameReader reader;
  EXPECT_FALSE(reader.truncated());
  // Feed all but the last byte: a peer closing now left a frame in flight.
  auto ignore = [](std::uint32_t, std::uint32_t, std::uint32_t, std::span<const std::byte>) {};
  ASSERT_TRUE(reader.feed(std::span<const std::byte>(frame.data(), frame.size() - 1), ignore));
  EXPECT_TRUE(reader.truncated());
  // The final byte completes the frame; nothing is left buffered.
  ASSERT_TRUE(reader.feed(std::span<const std::byte>(frame.data() + frame.size() - 1, 1), ignore));
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.error(), rpc::FrameReader::Error::None);
}

TEST(FramingTest, DestinationRoundTrips) {
  auto payload = test::put_cmd("k", "v");
  std::vector<std::uint32_t> dests;
  auto collect = [&](std::uint32_t sender, std::uint32_t sender_port, std::uint32_t dest,
                     std::span<const std::byte> body) {
    EXPECT_EQ(sender, 42u);
    EXPECT_EQ(sender_port, 9999u);
    EXPECT_TRUE(std::equal(body.begin(), body.end(), payload.begin(), payload.end()));
    dests.push_back(dest);
  };
  rpc::FrameReader reader;
  ASSERT_TRUE(reader.feed(rpc::encode_frame(42, 9999, payload, 7), collect));
  ASSERT_TRUE(reader.feed(rpc::encode_frame(42, 9999, payload), collect));
  EXPECT_EQ(dests, (std::vector<std::uint32_t>{7, rpc::kNoDest}));

  // frame_message encodes the message behind the header: same bytes as
  // framing the message's own encoding.
  const msg::Reject reject(RequestId{ClientId{5}, OpNum{9}});
  auto framed = rpc::frame_message(reject, 3, 0, 11);
  EXPECT_EQ(framed, rpc::encode_frame(3, 0, reject.encode(), 11));
  EXPECT_EQ(framed.size(), rpc::kFrameHeaderBytes + reject.wire_size());
}

TEST(FramingTest, PartialHeaderYieldsNothing) {
  auto frame = rpc::encode_frame(5, 0, test::put_cmd("key", "value"), 2);
  rpc::FrameReader reader;
  int frames = 0;
  auto count = [&](std::uint32_t, std::uint32_t, std::uint32_t, std::span<const std::byte>) {
    ++frames;
  };
  // One byte short of a full header: no frame, no error, all buffered.
  ASSERT_TRUE(reader.feed(std::span<const std::byte>(frame).first(rpc::kFrameHeaderBytes - 1),
                          count));
  EXPECT_EQ(frames, 0);
  EXPECT_EQ(reader.error(), rpc::FrameReader::Error::None);
  EXPECT_EQ(reader.buffered(), rpc::kFrameHeaderBytes - 1);
  ASSERT_TRUE(
      reader.feed(std::span<const std::byte>(frame).subspan(rpc::kFrameHeaderBytes - 1), count));
  EXPECT_EQ(frames, 1);
}

// ---------------------------------------------------------------------------
// Address parsing
// ---------------------------------------------------------------------------

TEST(ParseAddressTest, AcceptsHostPortForms) {
  auto full = rpc::parse_address("10.1.2.3:9100");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->host, "10.1.2.3");
  EXPECT_EQ(full->port, 9100);

  auto bare_port = rpc::parse_address("9100");
  ASSERT_TRUE(bare_port.has_value());
  EXPECT_EQ(bare_port->host, "127.0.0.1");
  EXPECT_EQ(bare_port->port, 9100);

  auto colon_port = rpc::parse_address(":9100");
  ASSERT_TRUE(colon_port.has_value());
  EXPECT_EQ(colon_port->host, "127.0.0.1");
  EXPECT_EQ(colon_port->port, 9100);
}

TEST(ParseAddressTest, RejectsMalformedInput) {
  EXPECT_FALSE(rpc::parse_address("").has_value());
  EXPECT_FALSE(rpc::parse_address("host:").has_value());
  EXPECT_FALSE(rpc::parse_address("127.0.0.1:0").has_value());
  EXPECT_FALSE(rpc::parse_address("127.0.0.1:70000").has_value());
  EXPECT_FALSE(rpc::parse_address("127.0.0.1:abc").has_value());
  EXPECT_FALSE(rpc::parse_address("not-an-ip:9100").has_value());
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

class CollectingEndpoint final : public sim::Endpoint {
 public:
  std::vector<std::pair<sim::NodeId, sim::PayloadPtr>> received;
  void deliver(sim::NodeId from, sim::PayloadPtr message) override {
    received.emplace_back(from, std::move(message));
  }
};

TEST(TcpTransportTest, DeliversBetweenLocalNodes) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a, b;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  transport.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);
  EXPECT_GT(transport.port_of(sim::NodeId{1}), 0);

  auto request = std::make_shared<const msg::Request>(RequestId{ClientId{9}, OpNum{1}},
                                                      test::put_cmd("k", "v"));
  transport.send(sim::NodeId{1}, sim::NodeId{2}, request);
  loop.run_for(200 * kMillisecond);

  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, sim::NodeId{1});
  const auto* typed = dynamic_cast<const msg::Request*>(b.received[0].second.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->id.cid.value, 9u);
}

TEST(TcpTransportTest, ManyMessagesKeepOrderPerConnection) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a, b;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  transport.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);

  for (std::uint64_t i = 1; i <= 500; ++i) {
    transport.send(sim::NodeId{1}, sim::NodeId{2},
                   std::make_shared<const msg::Reject>(RequestId{ClientId{1}, OpNum{i}}));
  }
  loop.run_for(300 * kMillisecond);

  ASSERT_EQ(b.received.size(), 500u);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto* typed = dynamic_cast<const msg::Reject*>(b.received[i].second.get());
    ASSERT_NE(typed, nullptr);
    EXPECT_EQ(typed->id.onr.value, i + 1);  // TCP preserves per-link order
  }
}

TEST(TcpTransportTest, SendToUnknownNodeIsDropped) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  transport.send(sim::NodeId{1}, sim::NodeId{99},
                 std::make_shared<const msg::Reject>(RequestId{}));
  EXPECT_EQ(transport.stats().dropped, 1u);
}

TEST(TcpTransportTest, RemovedNodeStopsReceiving) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a, b;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  transport.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);
  transport.remove_node(sim::NodeId{2});
  transport.send(sim::NodeId{1}, sim::NodeId{2},
                 std::make_shared<const msg::Reject>(RequestId{}));
  loop.run_for(100 * kMillisecond);
  EXPECT_TRUE(b.received.empty());
}

namespace {

/// Blocking loopback connection to a transport listener (simulating a
/// buggy or hostile peer speaking raw TCP).
int connect_raw(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

}  // namespace

TEST(TcpTransportTest, OversizedInboundFrameCountsDecodeError) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.max_frame_bytes = 1024;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  // Header claiming a 1 MiB payload on a 1 KiB-bounded transport.
  auto frame = rpc::encode_frame(9, 0, std::vector<std::byte>(8));
  frame[2] = std::byte{0x10};  // length: 0x100008
  ASSERT_EQ(::write(fd, frame.data(), frame.size()), static_cast<ssize_t>(frame.size()));
  loop.run_for(200 * kMillisecond);

  EXPECT_EQ(transport.stats().decode_errors, 1u);
  EXPECT_TRUE(a.received.empty());
  ::close(fd);
}

TEST(TcpTransportTest, TruncatedInboundStreamCountsDecodeError) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  // A well-formed header followed by only part of the promised payload,
  // then a close: the frame in flight was truncated.
  auto frame = rpc::encode_frame(9, 0, std::vector<std::byte>(100));
  ASSERT_EQ(::write(fd, frame.data(), 40), 40);
  loop.run_for(100 * kMillisecond);
  ::close(fd);
  loop.run_for(200 * kMillisecond);

  EXPECT_EQ(transport.stats().decode_errors, 1u);
  EXPECT_TRUE(a.received.empty());
}

TEST(TcpTransportTest, CleanCloseBetweenFramesIsNotAnError) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  auto frame = rpc::encode_frame(
      9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode());
  ASSERT_EQ(::write(fd, frame.data(), frame.size()), static_cast<ssize_t>(frame.size()));
  loop.run_for(100 * kMillisecond);
  ::close(fd);
  loop.run_for(100 * kMillisecond);

  EXPECT_EQ(transport.stats().decode_errors, 0u);
  EXPECT_EQ(a.received.size(), 1u);
}

// ---------------------------------------------------------------------------
// Accept-path hardening (connection storms)
// ---------------------------------------------------------------------------

namespace {

/// True when the peer has closed (or reset) our end of `fd`.
bool peer_closed(int fd) {
  char byte = 0;
  ssize_t n = ::recv(fd, &byte, 1, MSG_DONTWAIT);
  if (n == 0) return true;                                   // clean EOF
  return n < 0 && errno != EAGAIN && errno != EWOULDBLOCK;   // reset
}

}  // namespace

TEST(TcpTransportTest, ConnectionLimitShedsExcessConnections) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.max_inbound_connections = 2;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  const std::uint16_t port = transport.port_of(sim::NodeId{1});
  std::vector<int> fds;
  for (int i = 0; i < 4; ++i) fds.push_back(connect_raw(port));
  loop.run_for(200 * kMillisecond);

  // Two kept, two shed at accept; the shed peers observe a closed socket
  // (the early-rejection signal, RejectReason::ConnectionLimit in
  // telemetry) instead of queueing behind an overloaded server.
  EXPECT_EQ(transport.stats().connection_limit_sheds, 2u);
  EXPECT_EQ(transport.memory().inbound_connections, 2u);
  int closed = 0;
  for (int fd : fds) closed += peer_closed(fd) ? 1 : 0;
  EXPECT_EQ(closed, 2);

  // The connections under the cap still deliver frames.
  auto frame = rpc::encode_frame(
      9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode());
  for (int fd : fds) {
    if (!peer_closed(fd)) {
      ASSERT_EQ(::write(fd, frame.data(), frame.size()),
                static_cast<ssize_t>(frame.size()));
      break;
    }
  }
  loop.run_for(100 * kMillisecond);
  EXPECT_EQ(a.received.size(), 1u);
  for (int fd : fds) ::close(fd);
}

TEST(TcpTransportTest, IdleTimeoutEvictsSilentConnections) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.idle_timeout = 80 * kMillisecond;
  config.sweep_interval = 20 * kMillisecond;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  int silent = connect_raw(transport.port_of(sim::NodeId{1}));
  int chatty = connect_raw(transport.port_of(sim::NodeId{1}));
  auto frame = rpc::encode_frame(
      9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode());
  // The chatty peer completes a frame every ~40ms and must survive; the
  // silent one sends nothing and must be evicted.
  for (int round = 0; round < 6; ++round) {
    ASSERT_EQ(::write(chatty, frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    loop.run_for(40 * kMillisecond);
  }

  EXPECT_EQ(transport.stats().idle_evictions, 1u);
  EXPECT_TRUE(peer_closed(silent));
  EXPECT_FALSE(peer_closed(chatty));
  EXPECT_EQ(a.received.size(), 6u);
  ::close(silent);
  ::close(chatty);
}

TEST(TcpTransportTest, HalfOpenTimeoutEvictsPartialFrame) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.half_open_timeout = 80 * kMillisecond;
  config.sweep_interval = 20 * kMillisecond;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // The loris peer starts a frame and never finishes it; the quiet peer
  // completed its frame and sits idle between frames — with only
  // half_open_timeout set (no idle_timeout) it must NOT be evicted.
  int loris = connect_raw(transport.port_of(sim::NodeId{1}));
  int quiet = connect_raw(transport.port_of(sim::NodeId{1}));
  auto frame = rpc::encode_frame(
      9, 0, msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode());
  ASSERT_EQ(::write(quiet, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  ASSERT_EQ(::write(loris, frame.data(), frame.size() / 2),
            static_cast<ssize_t>(frame.size() / 2));
  loop.run_for(300 * kMillisecond);

  EXPECT_EQ(transport.stats().half_open_evictions, 1u);
  EXPECT_EQ(transport.stats().idle_evictions, 0u);
  EXPECT_TRUE(peer_closed(loris));
  EXPECT_FALSE(peer_closed(quiet));
  EXPECT_EQ(a.received.size(), 1u);
  ::close(loris);
  ::close(quiet);
}

TEST(TcpTransportTest, AcceptBurstDrainsFloodWithoutStarvingTimers) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.accept_burst = 8;  // tiny burst: a 100-connection flood needs
                            // many deferred continuations to drain
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  const std::uint16_t port = transport.port_of(sim::NodeId{1});
  std::vector<int> fds;
  for (int i = 0; i < 100; ++i) fds.push_back(connect_raw(port));
  bool timer_fired = false;
  loop.schedule_after(50 * kMillisecond, [&] { timer_fired = true; });
  loop.run_for(300 * kMillisecond);

  // Every connection in the flood gets accepted (in bursts of 8), and
  // the accept loop never monopolized an iteration: the timer fired.
  EXPECT_EQ(transport.stats().accepted_connections, 100u);
  EXPECT_EQ(transport.memory().inbound_connections, 100u);
  EXPECT_TRUE(timer_fired);
  for (int fd : fds) ::close(fd);
}

TEST(TcpTransportTest, RepliesRouteOverTheInboundConnection) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // A listener-less client (sender-port 0, like the storm driver) sends a
  // REQUEST; the transport must route the reply back over the same
  // inbound connection instead of dialing the advertised port.
  int fd = connect_raw(transport.port_of(sim::NodeId{1}));
  const std::uint32_t client_node = 1'000'777;
  auto request = rpc::encode_frame(
      client_node, 0,
      msg::Request{RequestId{ClientId{777}, OpNum{1}}, test::put_cmd("k", "v")}.encode());
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  loop.run_for(100 * kMillisecond);
  ASSERT_EQ(a.received.size(), 1u);

  transport.send(sim::NodeId{1}, sim::NodeId{client_node},
                 std::make_shared<const msg::Reject>(RequestId{ClientId{777}, OpNum{1}}));
  loop.run_for(100 * kMillisecond);

  rpc::FrameReader reader;
  char buf[4096];
  ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
  ASSERT_GT(n, 0);
  std::size_t frames = 0;
  reader.feed(std::as_bytes(std::span(buf, static_cast<std::size_t>(n))),
              [&](std::uint32_t sender, std::uint32_t, std::uint32_t,
                  std::span<const std::byte> payload) {
                ++frames;
                EXPECT_EQ(sender, 1u);
                auto message = msg::decode(payload);
                ASSERT_EQ(message->type(), msg::Type::Reject);
                EXPECT_EQ(static_cast<const msg::Reject&>(*message).id.cid.value, 777u);
              });
  EXPECT_EQ(frames, 1u);
  EXPECT_EQ(transport.stats().dropped, 0u);
  ::close(fd);
}

TEST(TcpTransportTest, NoDestFrameReachesTheListenersNode) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a, b;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  transport.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);

  // Over node 2's listener: a kNoDest frame (a storm session's) lands at
  // node 2, a frame addressed to node 1 lands at node 1.
  int fd = connect_raw(transport.port_of(sim::NodeId{2}));
  const auto payload = msg::Reject{RequestId{ClientId{1}, OpNum{1}}}.encode();
  auto to_listener = rpc::encode_frame(1'000'001, 0, payload);
  auto to_one = rpc::encode_frame(1'000'001, 0, payload, 1);
  ASSERT_EQ(::write(fd, to_listener.data(), to_listener.size()),
            static_cast<ssize_t>(to_listener.size()));
  ASSERT_EQ(::write(fd, to_one.data(), to_one.size()), static_cast<ssize_t>(to_one.size()));
  loop.run_for(100 * kMillisecond);

  EXPECT_EQ(a.received.size(), 1u);
  EXPECT_EQ(b.received.size(), 1u);
  ::close(fd);
}

namespace {

/// A small, numbered message for the transport tests.
std::shared_ptr<const msg::Reject> reject_of(std::uint64_t cid, std::uint64_t onr) {
  return std::make_shared<const msg::Reject>(RequestId{ClientId{cid}, OpNum{onr}});
}

std::uint64_t onr_of(const sim::PayloadPtr& message) {
  return dynamic_cast<const msg::Reject&>(*message).id.onr.value;
}

}  // namespace

TEST(TcpTransportTest, DuplexTrafficSharesOneConnection) {
  rpc::EventLoop loop;
  rpc::TcpTransport left(loop), right(loop);
  CollectingEndpoint a, b;
  left.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  right.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);
  left.set_remote(sim::NodeId{2}, right.port_of(sim::NodeId{2}));
  right.set_remote(sim::NodeId{1}, left.port_of(sim::NodeId{1}));

  for (std::uint64_t round = 1; round <= 5; ++round) {
    left.send(sim::NodeId{1}, sim::NodeId{2}, reject_of(1, round));
    loop.run_for(20 * kMillisecond);
    right.send(sim::NodeId{2}, sim::NodeId{1}, reject_of(2, round));
    loop.run_for(20 * kMillisecond);
  }

  EXPECT_EQ(a.received.size(), 5u);
  EXPECT_EQ(b.received.size(), 5u);
  // Node 1 dialed; node 2 answered over the accepted connection instead
  // of dialing node 1's listener.
  EXPECT_EQ(left.outbound_connections(), 1u);
  EXPECT_EQ(left.inbound_connections(), 0u);
  EXPECT_EQ(right.outbound_connections(), 0u);
  EXPECT_EQ(right.inbound_connections(), 1u);
}

TEST(TcpTransportTest, SimultaneousDialsConvergeOnTheLowerIdsConnection) {
  // One loop per end, run in turns, so the race is staged exactly.
  rpc::EventLoop left_loop, right_loop;
  rpc::TcpTransport left(left_loop), right(right_loop);
  CollectingEndpoint a, b;
  left.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);
  right.add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);
  left.set_remote(sim::NodeId{2}, right.port_of(sim::NodeId{2}));
  right.set_remote(sim::NodeId{1}, left.port_of(sim::NodeId{1}));
  auto request_of = [](std::uint64_t cid, std::uint64_t onr) {
    return std::make_shared<const msg::Request>(RequestId{ClientId{cid}, OpNum{onr}},
                                                std::vector<std::byte>(2048, std::byte{0x42}));
  };
  auto run_both = [&](Duration each) {
    right_loop.run_for(each);
    left_loop.run_for(each);
  };

  // Both first sends happen before either end has heard from the other:
  // each end dials its own connection.
  left.send(sim::NodeId{1}, sim::NodeId{2}, request_of(1, 1));
  right.send(sim::NodeId{2}, sim::NodeId{1}, request_of(2, 1));
  ASSERT_EQ(left.outbound_connections(), 1u);
  ASSERT_EQ(right.outbound_connections(), 1u);
  left_loop.run_for(20 * kMillisecond);  // node 1's frame is on its way

  // Node 2 queues far more than the socket buffers hold before it reads
  // node 1's frame, so the connection it then retires still holds queued
  // frames.
  constexpr std::uint64_t kFrames = 2000;
  for (std::uint64_t onr = 2; onr <= kFrames; ++onr) {
    right.send(sim::NodeId{2}, sim::NodeId{1}, request_of(2, onr));
  }
  right_loop.run_for(20 * kMillisecond);
  ASSERT_EQ(b.received.size(), 1u);  // node 1's frame arrived: node 2 switched
  ASSERT_GT(right.pending_write_bytes(), 0u);

  for (int turn = 0; turn < 400 && a.received.size() < kFrames; ++turn) {
    run_both(2 * kMillisecond);
  }
  run_both(50 * kMillisecond);
  run_both(50 * kMillisecond);

  // No frame lost while the duplicate was retired...
  ASSERT_EQ(a.received.size(), kFrames);
  std::set<std::uint64_t> onrs;
  for (const auto& [from, message] : a.received) {
    onrs.insert(dynamic_cast<const msg::Request&>(*message).id.onr.value);
  }
  EXPECT_EQ(onrs.size(), kFrames);
  EXPECT_EQ(left.stats().dropped + right.stats().dropped, 0u);
  // ...and both ends kept the connection node 1 dialed.
  EXPECT_EQ(left.outbound_connections(), 1u);
  EXPECT_EQ(left.inbound_connections(), 0u);
  EXPECT_EQ(right.outbound_connections(), 0u);
  EXPECT_EQ(right.inbound_connections(), 1u);

  // It carries traffic both ways.
  left.send(sim::NodeId{1}, sim::NodeId{2}, reject_of(1, 1));
  right.send(sim::NodeId{2}, sim::NodeId{1}, reject_of(2, 1));
  run_both(20 * kMillisecond);
  run_both(20 * kMillisecond);
  EXPECT_EQ(a.received.size(), kFrames + 1);
  EXPECT_EQ(b.received.size(), 2u);
  EXPECT_EQ(left.outbound_connections() + left.inbound_connections(), 1u);
}

TEST(TcpTransportTest, RetiredDuplicateStillDeliversWhatWasQueuedOnIt) {
  // A replica dials a client process (node 100) while another client of
  // that process (node 101) dials the replica. The client side keeps the
  // replica's connection (lower dialer id) and half-closes its own; a
  // reply the replica had already queued on that one must still arrive.
  rpc::EventLoop client_loop, server_loop;
  rpc::TcpTransport clients(client_loop), server(server_loop);
  CollectingEndpoint c100, c101, replica;
  clients.add_node(sim::NodeId{100}, sim::NodeKind::Client, &c100);
  clients.add_node(sim::NodeId{101}, sim::NodeKind::Client, &c101);
  server.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &replica);
  clients.set_remote(sim::NodeId{1}, server.port_of(sim::NodeId{1}));
  server.set_remote(sim::NodeId{100}, clients.port_of(sim::NodeId{100}));

  server.send(sim::NodeId{1}, sim::NodeId{100}, reject_of(100, 1));
  clients.send(sim::NodeId{101}, sim::NodeId{1}, reject_of(101, 1));
  client_loop.run_for(20 * kMillisecond);  // 101's frame leaves
  server_loop.run_for(20 * kMillisecond);  // replica hears 101; its frame to 100 leaves
  ASSERT_EQ(replica.received.size(), 1u);
  server.send(sim::NodeId{1}, sim::NodeId{101}, reject_of(101, 2));  // queued, not yet sent
  client_loop.run_for(20 * kMillisecond);  // clients switch and half-close theirs
  ASSERT_EQ(c100.received.size(), 1u);

  for (int turn = 0; turn < 5; ++turn) {
    server_loop.run_for(10 * kMillisecond);
    client_loop.run_for(10 * kMillisecond);
  }
  ASSERT_EQ(c101.received.size(), 1u);
  EXPECT_EQ(onr_of(c101.received[0].second), 2u);
  EXPECT_EQ(clients.outbound_connections() + clients.inbound_connections(), 1u);
  EXPECT_EQ(server.outbound_connections() + server.inbound_connections(), 1u);

  // The surviving connection serves both clients.
  clients.send(sim::NodeId{101}, sim::NodeId{1}, reject_of(101, 3));
  client_loop.run_for(10 * kMillisecond);
  server_loop.run_for(10 * kMillisecond);
  server.send(sim::NodeId{1}, sim::NodeId{101}, reject_of(101, 3));
  server.send(sim::NodeId{1}, sim::NodeId{100}, reject_of(100, 3));
  server_loop.run_for(10 * kMillisecond);
  client_loop.run_for(10 * kMillisecond);
  EXPECT_EQ(c100.received.size(), 2u);
  EXPECT_EQ(c101.received.size(), 2u);
  EXPECT_EQ(server.outbound_connections() + server.inbound_connections(), 1u);
}

TEST(TcpTransportTest, CoLocatedClientsShareOneConnection) {
  rpc::EventLoop loop;
  rpc::TcpTransport clients(loop), server(loop);
  CollectingEndpoint c1, c2, replica;
  clients.add_node(sim::NodeId{100}, sim::NodeKind::Client, &c1);
  clients.add_node(sim::NodeId{101}, sim::NodeKind::Client, &c2);
  server.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &replica);
  clients.set_remote(sim::NodeId{1}, server.port_of(sim::NodeId{1}));

  clients.send(sim::NodeId{100}, sim::NodeId{1}, reject_of(100, 1));
  clients.send(sim::NodeId{101}, sim::NodeId{1}, reject_of(101, 1));
  loop.run_for(50 * kMillisecond);
  ASSERT_EQ(replica.received.size(), 2u);

  // Both replies are queued in one iteration: they leave in one sendmsg
  // over the shared connection, and each reaches only its own client.
  server.send(sim::NodeId{1}, sim::NodeId{100}, reject_of(100, 1));
  server.send(sim::NodeId{1}, sim::NodeId{101}, reject_of(101, 1));
  loop.run_for(50 * kMillisecond);

  ASSERT_EQ(c1.received.size(), 1u);
  ASSERT_EQ(c2.received.size(), 1u);
  EXPECT_EQ(dynamic_cast<const msg::Reject&>(*c1.received[0].second).id.cid.value, 100u);
  EXPECT_EQ(dynamic_cast<const msg::Reject&>(*c2.received[0].second).id.cid.value, 101u);
  EXPECT_EQ(server.stats().write_syscalls, 1u);
  EXPECT_EQ(clients.outbound_connections(), 1u);
  EXPECT_EQ(server.inbound_connections(), 1u);
  EXPECT_EQ(server.outbound_connections(), 0u);
}

TEST(TcpTransportTest, PeerResetDropsTheRouteAndTheNextSendRedials) {
  rpc::EventLoop loop;
  rpc::TcpTransport left(loop);
  CollectingEndpoint a, b, b_again;
  left.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  auto right = std::make_unique<rpc::TcpTransport>(loop);
  right->add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b);
  left.set_remote(sim::NodeId{2}, right->port_of(sim::NodeId{2}));
  left.send(sim::NodeId{1}, sim::NodeId{2}, reject_of(1, 1));
  loop.run_for(50 * kMillisecond);
  ASSERT_EQ(b.received.size(), 1u);
  ASSERT_EQ(left.outbound_connections(), 1u);

  // The peer process dies: its sockets close, and the route goes with
  // the connection.
  right.reset();
  loop.run_for(50 * kMillisecond);
  EXPECT_EQ(left.outbound_connections(), 0u);

  // It comes back on a new port; the next send dials it afresh.
  right = std::make_unique<rpc::TcpTransport>(loop);
  right->add_node(sim::NodeId{2}, sim::NodeKind::Replica, &b_again);
  left.set_remote(sim::NodeId{2}, right->port_of(sim::NodeId{2}));
  left.send(sim::NodeId{1}, sim::NodeId{2}, reject_of(1, 2));
  loop.run_for(50 * kMillisecond);
  ASSERT_EQ(b_again.received.size(), 1u);
  EXPECT_EQ(onr_of(b_again.received[0].second), 2u);
  EXPECT_EQ(left.outbound_connections(), 1u);
}

TEST(TcpTransportTest, ListenerlessSessionsGetRepliesOverTheirOwnSockets) {
  rpc::EventLoop loop;
  rpc::TcpTransport transport(loop);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // Two storm-style sessions: sender-port 0, kNoDest, one socket each.
  const std::uint32_t sessions[2] = {1'000'001, 1'000'002};
  int fds[2];
  for (int i = 0; i < 2; ++i) {
    fds[i] = connect_raw(transport.port_of(sim::NodeId{1}));
    auto request = rpc::encode_frame(sessions[i], 0, reject_of(sessions[i], 1)->encode());
    ASSERT_EQ(::write(fds[i], request.data(), request.size()),
              static_cast<ssize_t>(request.size()));
  }
  loop.run_for(50 * kMillisecond);
  ASSERT_EQ(a.received.size(), 2u);

  for (std::uint32_t session : sessions) {
    transport.send(sim::NodeId{1}, sim::NodeId{session}, reject_of(session, 1));
  }
  loop.run_for(50 * kMillisecond);

  for (int i = 0; i < 2; ++i) {
    char buf[4096];
    ssize_t n = ::recv(fds[i], buf, sizeof buf, MSG_DONTWAIT);
    ASSERT_GT(n, 0);
    rpc::FrameReader reader;
    std::vector<std::uint64_t> cids;
    reader.feed(std::as_bytes(std::span(buf, static_cast<std::size_t>(n))),
                [&](std::uint32_t, std::uint32_t, std::uint32_t dest,
                    std::span<const std::byte> payload) {
                  EXPECT_EQ(dest, sessions[i]);
                  auto message = msg::decode(payload);
                  cids.push_back(static_cast<const msg::Reject&>(*message).id.cid.value);
                });
    EXPECT_EQ(cids, (std::vector<std::uint64_t>{sessions[i]}));
    ::close(fds[i]);
  }
  EXPECT_EQ(transport.outbound_connections(), 0u);  // nothing was dialed
  EXPECT_EQ(transport.stats().dropped, 0u);
}

TEST(TcpTransportTest, IdleTimeoutCountsBytesInBothDirections) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.idle_timeout = 80 * kMillisecond;
  config.sweep_interval = 20 * kMillisecond;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // `listening` sends one frame and then only reads what we keep writing
  // to it; `silent` never moves a byte either way.
  const std::uint32_t session = 1'000'003;
  int listening = connect_raw(transport.port_of(sim::NodeId{1}));
  int silent = connect_raw(transport.port_of(sim::NodeId{1}));
  auto request = rpc::encode_frame(session, 0, reject_of(session, 1)->encode());
  ASSERT_EQ(::write(listening, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  for (std::uint64_t round = 1; round <= 6; ++round) {
    loop.run_for(40 * kMillisecond);
    transport.send(sim::NodeId{1}, sim::NodeId{session}, reject_of(session, round));
  }
  loop.run_for(20 * kMillisecond);

  EXPECT_EQ(transport.stats().idle_evictions, 1u);
  EXPECT_TRUE(peer_closed(silent));
  EXPECT_FALSE(peer_closed(listening));
  EXPECT_EQ(transport.stats().dropped, 0u);
  ::close(listening);
  ::close(silent);
}

TEST(FramingTest, DecodeBufferIsReusedAcrossFrames) {
  rpc::FrameReader reader;
  const std::size_t warm = reader.capacity();
  ASSERT_GT(warm, 0u);

  std::size_t delivered = 0;
  auto count = [&](std::uint32_t, std::uint32_t, std::uint32_t, std::span<const std::byte>) {
    ++delivered;
  };

  // Steady state: frames smaller than the warm buffer, each split across
  // two reads to exercise the partial-frame path. The grow-only buffer
  // must never reallocate — zero allocation per frame is the contract the
  // transport's recv loop relies on.
  auto frame = rpc::encode_frame(1, 0, std::vector<std::byte>(1000));
  const std::size_t half = frame.size() / 2;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(reader.feed(std::span<const std::byte>(frame).first(half), count));
    ASSERT_TRUE(reader.feed(std::span<const std::byte>(frame).subspan(half), count));
    EXPECT_EQ(reader.capacity(), warm) << "iteration " << i;
  }
  EXPECT_EQ(delivered, 200u);
  EXPECT_EQ(reader.buffered(), 0u);

  // A frame larger than anything seen grows the buffer once; repeats of
  // the same size reuse the grown arena.
  auto big = rpc::encode_frame(1, 0, std::vector<std::byte>(3 * warm));
  ASSERT_TRUE(reader.feed(big, count));
  const std::size_t grown = reader.capacity();
  EXPECT_GT(grown, warm);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(reader.feed(big, count));
  EXPECT_EQ(reader.capacity(), grown);
  EXPECT_EQ(delivered, 206u);
}

// ---------------------------------------------------------------------------
// PendingWrites: the per-connection queue behind sendmsg coalescing
// ---------------------------------------------------------------------------

namespace {

std::vector<std::byte> frame_of(std::size_t size, int fill) {
  return std::vector<std::byte>(size, std::byte(fill));
}

}  // namespace

TEST(TcpTransportTest, PendingWritesResumeExactlyAfterPartialWrite) {
  rpc::PendingWrites out;
  out.push(frame_of(10, 1));
  out.push(frame_of(20, 2));
  out.push(frame_of(30, 3));
  EXPECT_EQ(out.total_bytes, 60u);

  iovec iov[8];
  ASSERT_EQ(out.fill_iovec(iov, 8), 3u);
  EXPECT_EQ(iov[0].iov_len, 10u);
  EXPECT_EQ(iov[1].iov_len, 20u);
  EXPECT_EQ(iov[2].iov_len, 30u);

  // sendmsg moved 25 bytes before EAGAIN: frame 0 fully, frame 1 to byte
  // 15. The next fill must start mid-frame, not re-send written bytes.
  out.consume(25);
  EXPECT_EQ(out.total_bytes, 35u);
  ASSERT_EQ(out.fill_iovec(iov, 8), 2u);
  EXPECT_EQ(iov[0].iov_base, out.frames.front().data() + 15);
  EXPECT_EQ(iov[0].iov_len, 5u);
  EXPECT_EQ(iov[1].iov_len, 30u);

  // Exactly finishing the partial frame resets the offset.
  out.consume(5);
  EXPECT_EQ(out.front_offset, 0u);
  ASSERT_EQ(out.fill_iovec(iov, 8), 1u);
  EXPECT_EQ(iov[0].iov_len, 30u);

  out.consume(30);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.total_bytes, 0u);
}

TEST(TcpTransportTest, PendingWritesCapIovecEntries) {
  rpc::PendingWrites out;
  for (int i = 0; i < 5; ++i) out.push(frame_of(8, i));
  iovec iov[5];
  EXPECT_EQ(out.fill_iovec(iov, 2), 2u);  // kMaxFlushIov-style cap
  EXPECT_EQ(out.fill_iovec(iov, 5), 5u);
}

TEST(TcpTransportTest, PendingWriteBoundShedsFramesAndCounts) {
  rpc::EventLoop loop;
  rpc::TcpTransportConfig config;
  config.max_pending_write_bytes = 600;
  rpc::TcpTransport transport(loop, config);
  CollectingEndpoint a;
  transport.add_node(sim::NodeId{1}, sim::NodeKind::Replica, &a);

  // A listener that completes handshakes but is never served by an event
  // loop on our side: the loop never runs, so nothing is flushed and every
  // send stays in the connection's pending-write queue.
  int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  transport.set_remote(sim::NodeId{2}, ntohs(addr.sin_port));

  const std::string value(200, 'x');
  for (std::uint64_t i = 1; i <= 10; ++i) {
    transport.send(sim::NodeId{1}, sim::NodeId{2},
                   std::make_shared<const msg::Request>(RequestId{ClientId{7}, OpNum{i}},
                                                        test::put_cmd("key", value)));
  }

  const rpc::TransportStats& stats = transport.stats();
  // ~220-byte frames against a 600-byte bound: the first few queue, the
  // rest are shed (fair loss) instead of buffering without bound.
  EXPECT_GT(stats.send_queue_overflows, 0u);
  EXPECT_EQ(stats.send_queue_overflows, stats.dropped);
  EXPECT_EQ(stats.messages_sent + stats.send_queue_overflows, 10u);
  EXPECT_LE(stats.bytes_sent, config.max_pending_write_bytes);
  ::close(listener);
}

// ---------------------------------------------------------------------------
// The full IDEM protocol over real TCP
// ---------------------------------------------------------------------------

TEST(RealtimeIdem, PutGetOverRealSockets) {
  rpc::EventLoop loop(3);
  rpc::TcpTransport transport(loop);

  core::IdemConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = 50;
  // Keep simulated CPU costs off the real-time path.
  config.costs.per_message = 0;
  config.costs.ns_per_byte = 0;
  config.costs.send_per_message = 0;
  config.costs.send_ns_per_byte = 0;
  config.costs.jitter = 0;

  std::vector<std::unique_ptr<core::IdemReplica>> replicas;
  for (std::uint32_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<core::IdemReplica>(
        loop, transport, ReplicaId{i}, config,
        std::make_unique<app::KvStore>(app::KvStore::Costs{0, 0, 0}),
        core::make_default_acceptance(config, 1)));
  }
  core::IdemClient client(loop, transport, ClientId{0}, {});

  std::optional<consensus::Outcome> put;
  client.invoke(test::put_cmd("greeting", "over-tcp"),
                [&](const consensus::Outcome& o) {
                  put = o;
                  loop.stop();
                });
  loop.run_for(5 * kSecond);
  ASSERT_TRUE(put.has_value());
  EXPECT_EQ(put->kind, consensus::Outcome::Kind::Reply);

  std::optional<consensus::Outcome> get;
  client.invoke(test::get_cmd("greeting"), [&](const consensus::Outcome& o) {
    get = o;
    loop.stop();
  });
  loop.run_for(5 * kSecond);
  ASSERT_TRUE(get.has_value());
  ASSERT_EQ(get->kind, consensus::Outcome::Kind::Reply);
  EXPECT_EQ(app::KvResult::decode(get->result).values.at(0), "over-tcp");

  // Every replica executed both operations.
  for (const auto& replica : replicas) {
    EXPECT_EQ(replica->last_executed(ClientId{0}), OpNum{2});
  }
}

TEST(RealtimeIdem, RejectionOverRealSockets) {
  rpc::EventLoop loop(4);
  rpc::TcpTransport transport(loop);

  core::IdemConfig config;
  config.n = 3;
  config.f = 1;
  config.reject_threshold = 0;  // reject everything
  config.costs = consensus::CostModel{0, 0, 0, 0, 0, 0, 1};

  std::vector<std::unique_ptr<core::IdemReplica>> replicas;
  for (std::uint32_t i = 0; i < 3; ++i) {
    replicas.push_back(std::make_unique<core::IdemReplica>(
        loop, transport, ReplicaId{i}, config,
        std::make_unique<app::KvStore>(app::KvStore::Costs{0, 0, 0}),
        core::make_default_acceptance(config, 1)));
  }
  core::IdemClient client(loop, transport, ClientId{0}, {});

  std::optional<consensus::Outcome> outcome;
  client.invoke(test::put_cmd("k", "v"), [&](const consensus::Outcome& o) {
    outcome = o;
    loop.stop();
  });
  loop.run_for(5 * kSecond);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->kind, consensus::Outcome::Kind::Rejected);
  EXPECT_EQ(outcome->rejects_seen, 3u);
}

}  // namespace
}  // namespace idem
