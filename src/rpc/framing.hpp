// Wire framing for the TCP transport.
//
// Every frame is [u32 length][u32 sender-node-id][u32 sender-listen-port]
// [u32 dest-node-id][payload bytes], with the payload being a
// consensus::messages binary encoding. The destination lets one
// connection carry traffic for every node of the transports at its two
// ends: co-located clients share one connection to each replica, and the
// replies to all of them travel back over it. kNoDest frames (a storm
// session multicasting one REQUEST frame to every replica) go to the node
// whose listener accepted the connection. Every sender's frames teach the
// receiver a route back over the connection they arrived on, so replies
// never dial out to a sender's listener while that connection lives; the
// advertised listening port (0 for listener-less senders) only serves to
// re-dial after the connection is lost. FrameReader reassembles frames
// from an arbitrary stream of socket reads.
//
// Hot-path shape: the reader owns one grow-only buffer that sockets recv
// directly into (write_span()/commit()), and parsing tracks a head offset
// instead of erasing consumed bytes from the front — so the steady state
// does zero allocation and zero per-frame memmove. The buffer compacts
// (one memmove of the partial-frame tail) only when a frame straddles the
// buffer end, and grows only when a frame is larger than anything seen
// before on this connection. On the send side frame_message() encodes a
// message straight into the frame buffer behind the header: one
// allocation per frame.
//
// Hardening: decode enforces a maximum frame size (configurable per
// reader; kMaxFrameBytes by default) so one malformed or hostile length
// header cannot make a replica buffer gigabytes — checked as soon as the
// length word is buffered, before the rest of the header arrives. The
// reader reports *why* it gave up (error()) and whether a closed stream
// ended mid-frame (truncated()), so transports can count both conditions
// instead of dropping connections silently.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace idem::rpc {

/// u32 length + u32 sender + u32 sender port + u32 destination.
constexpr std::size_t kFrameHeaderBytes = 16;
/// The length word alone, enough to reject an oversized frame.
constexpr std::size_t kFrameLengthBytes = 4;
/// Destination of frames addressed to "whichever node accepted this
/// connection".
constexpr std::uint32_t kNoDest = 0xFFFFFFFF;
constexpr std::size_t kMaxFrameBytes = 64 * 1024 * 1024;

/// Default size of the span write_span() offers to recv into; also the
/// reader's initial buffer capacity, so typical connections never grow.
constexpr std::size_t kReadChunkBytes = 16 * 1024;

/// Fills the kFrameHeaderBytes at the front of `frame`; the payload is
/// everything after them.
inline void write_frame_header(std::vector<std::byte>& frame, std::uint32_t sender,
                               std::uint32_t sender_port, std::uint32_t dest) {
  const std::uint32_t fields[4] = {
      static_cast<std::uint32_t>(frame.size() - kFrameHeaderBytes), sender, sender_port, dest};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t b = 0; b < 4; ++b) {
      frame[4 * i + b] = std::byte((fields[i] >> (8 * b)) & 0xFF);
    }
  }
}

/// Builds one frame around already-encoded payload bytes. `sender_port`
/// is the port on which the sending node accepts connections (0 when it
/// has none).
inline std::vector<std::byte> encode_frame(std::uint32_t sender, std::uint32_t sender_port,
                                           std::span<const std::byte> payload,
                                           std::uint32_t dest = kNoDest) {
  std::vector<std::byte> out(kFrameHeaderBytes + payload.size());
  if (!payload.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, payload.data(), payload.size());
  }
  write_frame_header(out, sender, sender_port, dest);
  return out;
}

/// Builds one frame around a message in a single allocation: the message
/// encodes straight into the frame buffer behind a reserved header
/// (`encode(headroom)`, exactly sized from the message's wire size).
template <typename Message>
std::vector<std::byte> frame_message(const Message& message, std::uint32_t sender,
                                     std::uint32_t sender_port,
                                     std::uint32_t dest = kNoDest) {
  std::vector<std::byte> frame = message.encode(kFrameHeaderBytes);
  write_frame_header(frame, sender, sender_port, dest);
  return frame;
}

/// Incremental frame decoder: recv into write_span(), commit() the byte
/// count, then drain() complete frames through the callback. feed() wraps
/// the three for callers that already hold the bytes. Tolerates frames
/// split across any number of reads, and multiple frames per read.
class FrameReader {
 public:
  enum class Error : std::uint8_t {
    None = 0,
    Oversized,  ///< a length header exceeded the frame-size bound
  };

  /// `max_frame` bounds the payload size decode will accept; larger length
  /// headers poison the stream (drain() returns false and stays false).
  /// The buffer is pre-sized to `initial_capacity` so steady-state reads
  /// never allocate.
  explicit FrameReader(std::size_t max_frame = kMaxFrameBytes,
                       std::size_t initial_capacity = kReadChunkBytes)
      : max_frame_(max_frame) {
    buffer_.resize(initial_capacity);
  }

  /// Writable space to recv into, at least `min_bytes` long. Compacts the
  /// buffered partial frame to the front if the tail space ran out, and
  /// grows the buffer only if even a compacted buffer cannot hold
  /// `min_bytes` more.
  std::span<std::byte> write_span(std::size_t min_bytes = kReadChunkBytes) {
    if (buffer_.size() - fill_ < min_bytes) {
      compact();
      if (buffer_.size() - fill_ < min_bytes) {
        std::size_t grown = std::max(buffer_.size() * 2, fill_ + min_bytes);
        buffer_.resize(grown);
      }
    }
    return std::span<std::byte>(buffer_.data() + fill_, buffer_.size() - fill_);
  }

  /// Marks `n` bytes of the last write_span() as filled by the socket.
  void commit(std::size_t n) { fill_ += n; }

  /// Parses every complete frame out of the buffer, invoking
  /// `callback(sender, sender_port, dest, payload)` for each. Returns
  /// false if the stream is malformed (oversized frame; see error()) — the
  /// caller should drop the connection and account for the bad frame.
  /// Templated on the callback so hot-path callers pass a raw lambda with
  /// no std::function conversion (which could allocate).
  template <typename Callback>
  bool drain(const Callback& callback) {
    if (error_ != Error::None) return false;
    while (fill_ - head_ >= kFrameLengthBytes) {
      std::uint32_t length = read_u32(head_);
      if (length > max_frame_) {
        error_ = Error::Oversized;
        return false;
      }
      if (fill_ - head_ < kFrameHeaderBytes + std::size_t{length}) break;
      callback(read_u32(head_ + 4), read_u32(head_ + 8), read_u32(head_ + 12),
               std::span<const std::byte>(buffer_.data() + head_ + kFrameHeaderBytes, length));
      head_ += kFrameHeaderBytes + length;
    }
    if (head_ == fill_) {
      // Everything parsed: rewind for free instead of compacting later.
      head_ = 0;
      fill_ = 0;
    }
    return true;
  }

  /// Appends `data` and parses; equivalent to write_span+memcpy+commit+
  /// drain. Kept for callers (and tests) that already hold the bytes.
  template <typename Callback>
  bool feed(std::span<const std::byte> data, const Callback& callback) {
    if (error_ != Error::None) return false;
    if (!data.empty()) {
      std::span<std::byte> dst = write_span(data.size());
      std::memcpy(dst.data(), data.data(), data.size());
      commit(data.size());
    }
    return drain(callback);
  }

  /// Bytes received but not yet consumed as complete frames.
  std::size_t buffered() const { return fill_ - head_; }
  /// Current buffer capacity — stable across reads once warmed up.
  std::size_t capacity() const { return buffer_.size(); }
  std::size_t max_frame() const { return max_frame_; }
  Error error() const { return error_; }

  /// True when the stream holds a partial frame — meaningful when the
  /// peer closed the connection: the frame in flight was truncated.
  bool truncated() const { return buffered() != 0; }

 private:
  void compact() {
    if (head_ == 0) return;
    std::memmove(buffer_.data(), buffer_.data() + head_, fill_ - head_);
    fill_ -= head_;
    head_ = 0;
  }

  std::uint32_t read_u32(std::size_t at) const {
    return static_cast<std::uint32_t>(buffer_[at]) |
           (static_cast<std::uint32_t>(buffer_[at + 1]) << 8) |
           (static_cast<std::uint32_t>(buffer_[at + 2]) << 16) |
           (static_cast<std::uint32_t>(buffer_[at + 3]) << 24);
  }

  std::size_t max_frame_;
  Error error_ = Error::None;
  std::vector<std::byte> buffer_;
  std::size_t head_ = 0;  ///< start of unparsed bytes
  std::size_t fill_ = 0;  ///< end of valid bytes
};

}  // namespace idem::rpc
