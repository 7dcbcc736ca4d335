#pragma once

// The Ev-Edge event-native wire protocol (EVWP): a compact binary AER
// packet format for streaming event-camera data over lossy transports.
//
// Every packet is a fixed 24-byte little-endian header plus a
// type-dependent payload:
//
//   offset size field
//   0      4    magic "EVWP"
//   4      1    version (1)
//   5      1    type (hello / data / end-of-stream / heartbeat / ack /
//               resume)
//   6      2    event_count (data packets; 0 otherwise)
//   8      4    session_id
//   12     4    seq (data/end-of-stream packets consume consecutive
//               sequence numbers starting at 0; see session.hpp)
//   16     4    t_base (low 32 bits of the packet reference timestamp,
//               microseconds — the wire carries 32-bit wrapping time)
//   20     4    crc (CRC-32 over header bytes [0, 20) ++ payload)
//
// Data payload packs one event in 8 bytes:
//
//   u16 x | u16 (polarity << 15 | y) | u32 dt
//
// where dt is the microsecond offset from the packet's (unwrapped)
// t_base; offsets are non-decreasing within a packet. Timestamps on the
// wire are 32-bit and wrap every ~71.6 minutes; the receiver unwraps
// them onto the monotone 64-bit timeline via TimestampUnwrapper, seeded
// by the hello packet's full 64-bit epoch. The end-of-stream packet is
// an explicit marker (consuming the final sequence number) so a clean
// stream end is distinguishable from a dead peer.
//
// PacketFramer turns a raw byte stream into packets, resynchronizing on
// the magic after garbage, truncated packets or CRC failures — a
// hostile byte stream yields a deterministic sequence of rejected
// packets, never a crash or a stuck framer. Decoded views are
// zero-copy: payload spans point into the framer's buffer.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "events/event.hpp"

namespace evedge::wire {

inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderBytes = 24;
inline constexpr std::size_t kEventBytes = 8;
/// Data packets carry at most this many events (bounds the framing
/// buffer and the damage any one lost packet can do).
inline constexpr std::size_t kMaxEventsPerPacket = 512;
/// Ack sentinel: nothing received yet.
inline constexpr std::uint32_t kNoneAcked = 0xFFFFFFFFu;

enum class PacketType : std::uint8_t {
  kHello = 0,        ///< stream header: geometry + 64-bit epoch
  kData = 1,         ///< packed events
  kEndOfStream = 2,  ///< explicit clean end marker (consumes a seq)
  kHeartbeat = 3,    ///< keep-alive while the sender is idle/pacing
  kAck = 4,          ///< receiver -> sender cumulative acknowledgement
  kResume = 5,       ///< sender -> receiver reconnect handshake
};

[[nodiscard]] const char* to_string(PacketType type) noexcept;

/// Why the framer/decoder rejected a packet (or a stretch of bytes).
enum class PacketError : std::uint8_t {
  kNone = 0,
  kBadMagic,        ///< garbage bytes skipped while resynchronizing
  kBadVersion,      ///< unknown protocol version
  kBadType,         ///< unknown packet type
  kBadLength,       ///< event_count exceeds kMaxEventsPerPacket
  kBadCrc,          ///< CRC-32 mismatch (corruption or framing slip)
  kMalformedEvents, ///< payload events out of geometry / non-monotone
  kUnresolvedGap,   ///< buffered out-of-order packet orphaned at stream end
  kBadHello,        ///< hello payload malformed, zero extent or inverted span
};

[[nodiscard]] const char* to_string(PacketError error) noexcept;

struct PacketHeader {
  std::uint8_t version = kWireVersion;
  PacketType type = PacketType::kData;
  std::uint16_t event_count = 0;
  std::uint32_t session_id = 0;
  std::uint32_t seq = 0;
  std::uint32_t t_base = 0;
};

/// Hello payload: everything the receiver needs to rebuild the exact
/// offline framing grid (FrameClock::spanning) and to seed timestamp
/// unwrapping. 24 bytes on the wire.
struct StreamHeader {
  std::uint16_t width = 0;
  std::uint16_t height = 0;
  std::int64_t epoch_us = 0;  ///< full 64-bit timestamp of the first event
  std::int64_t t_end_us = 0;  ///< full 64-bit timestamp of the last event
  std::uint32_t data_packets = 0;  ///< total data packets (0 = unknown/live)

  friend bool operator==(const StreamHeader&,
                         const StreamHeader&) = default;
};

/// One framed packet: when `error` is kNone the header and payload view
/// are valid (payload points into the framer's buffer — valid until the
/// next feed()); otherwise this records a rejection.
struct Framed {
  PacketError error = PacketError::kNone;
  PacketHeader header{};
  std::span<const std::uint8_t> payload{};
};

// ----------------------------------------------------------- encoding

/// Appends a hello packet to `out`.
void encode_hello(std::uint32_t session_id, const StreamHeader& header,
                  std::vector<std::uint8_t>& out);

/// Appends a data packet holding `events` (size <= kMaxEventsPerPacket,
/// non-decreasing timestamps spanning < 2^32 us, y < 2^15 — throws
/// std::invalid_argument otherwise). t_base is the first event's
/// timestamp truncated to 32 bits.
void encode_data(std::uint32_t session_id, std::uint32_t seq,
                 std::span<const events::Event> events,
                 std::vector<std::uint8_t>& out);

/// Appends an end-of-stream marker consuming `seq`.
void encode_eos(std::uint32_t session_id, std::uint32_t seq,
                std::int64_t t_end_us, std::vector<std::uint8_t>& out);

/// Appends a heartbeat (does not consume a seq; `last_seq` echoes the
/// highest data/eos seq sent so far, kNoneAcked when none).
void encode_heartbeat(std::uint32_t session_id, std::uint32_t last_seq,
                      std::int64_t last_t_us,
                      std::vector<std::uint8_t>& out);

/// Appends a cumulative ack: every data/eos seq <= `acked` was received
/// (kNoneAcked = nothing yet).
void encode_ack(std::uint32_t session_id, std::uint32_t acked,
                std::vector<std::uint8_t>& out);

/// Appends a resume handshake: the sender reconnected and will
/// retransmit from wherever the receiver's answering ack points.
void encode_resume(std::uint32_t session_id, std::uint32_t last_sent,
                   std::vector<std::uint8_t>& out);

// ----------------------------------------------------------- decoding

/// Parses a hello payload. Returns false on a size mismatch, a zero
/// width or height, or t_end_us < epoch_us — no framing grid or sensor
/// geometry can be built from such a header.
[[nodiscard]] bool decode_hello(std::span<const std::uint8_t> payload,
                                StreamHeader& out);

/// Parses the u32 of an ack/resume payload (returns false on size
/// mismatch).
[[nodiscard]] bool decode_u32_payload(std::span<const std::uint8_t> payload,
                                      std::uint32_t& out);

/// Decodes a data payload into `out` (appended). `base_us` is the
/// packet's unwrapped 64-bit t_base; events must be non-decreasing,
/// start at or after `min_t_us`, and lie inside width x height —
/// returns kMalformedEvents (appending nothing) otherwise.
[[nodiscard]] PacketError decode_events(
    std::span<const std::uint8_t> payload, std::uint16_t event_count,
    std::int64_t base_us, std::int64_t min_t_us, std::uint16_t width,
    std::uint16_t height, std::vector<events::Event>& out);

/// Unwraps 32-bit wire timestamps onto the monotone 64-bit timeline.
/// Forward-only: each unwrapped value is the smallest t >= the previous
/// one whose low 32 bits match the wire value, so reference points must
/// be < 2^32 us (~71.6 min) apart — trivially true for consecutive AER
/// packets.
class TimestampUnwrapper {
 public:
  explicit TimestampUnwrapper(std::int64_t epoch_us) noexcept
      : last_(epoch_us) {}

  [[nodiscard]] std::int64_t unwrap(std::uint32_t wire) noexcept {
    const std::uint32_t delta =
        wire - static_cast<std::uint32_t>(last_);
    last_ += static_cast<std::int64_t>(delta);
    return last_;
  }

  /// Advances the timeline anchor past decoded event times.
  void advance(std::int64_t t_us) noexcept {
    if (t_us > last_) last_ = t_us;
  }

  [[nodiscard]] std::int64_t last() const noexcept { return last_; }

 private:
  std::int64_t last_;
};

/// Streaming packet framer: feed() raw bytes, next() framed packets.
/// Tolerates arbitrary garbage: unknown bytes, truncated packets and
/// CRC failures surface as Framed rejections while the framer
/// resynchronizes on the next magic. next() returns std::nullopt when
/// more bytes are needed. The Framed sequence is a function of the
/// bytes alone: any split of the same bytes into feed() calls yields
/// the same sequence.
class PacketFramer {
 public:
  void feed(const void* data, std::size_t n);

  [[nodiscard]] std::optional<Framed> next();

  /// Drops buffered bytes (a reconnect starts framing clean).
  void reset() noexcept;

  /// Bytes currently buffered but not yet consumed.
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - pos_;
  }

 private:
  void compact();

  std::vector<std::uint8_t> buffer_;
  std::size_t pos_ = 0;
  /// A garbage run reached the end of the buffered bytes: its kBadMagic
  /// is already reported, so bytes skipped in later feeds extend it.
  bool in_garbage_ = false;
};

}  // namespace evedge::wire
