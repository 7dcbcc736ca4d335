#include "wire/packet.hpp"

#include <cstring>
#include <stdexcept>
#include <string>

#include "wire/crc32.hpp"

namespace evedge::wire {

namespace {

constexpr std::uint8_t kMagic[4] = {'E', 'V', 'W', 'P'};
constexpr std::uint8_t kMaxType =
    static_cast<std::uint8_t>(PacketType::kResume);
constexpr std::uint16_t kPolarityBit = 0x8000u;

// Little-endian scalar append/read. The repo's persistence (events/io)
// already assumes a little-endian host; the wire keeps that convention
// but goes through explicit byte packing so the format is pinned by
// construction, not by host layout.
template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(value) >> (8 * i)));
  }
}

template <typename T>
[[nodiscard]] T get(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return static_cast<T>(v);
}

/// Appends the 24-byte header (crc patched afterwards) and returns the
/// offset where it starts.
std::size_t begin_packet(std::vector<std::uint8_t>& out, PacketType type,
                         std::uint16_t event_count,
                         std::uint32_t session_id, std::uint32_t seq,
                         std::uint32_t t_base) {
  const std::size_t start = out.size();
  out.insert(out.end(), kMagic, kMagic + 4);
  put<std::uint8_t>(out, kWireVersion);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(type));
  put<std::uint16_t>(out, event_count);
  put<std::uint32_t>(out, session_id);
  put<std::uint32_t>(out, seq);
  put<std::uint32_t>(out, t_base);
  put<std::uint32_t>(out, 0);  // crc placeholder
  return start;
}

/// Computes and patches the crc of the packet starting at `start`.
void finish_packet(std::vector<std::uint8_t>& out, std::size_t start) {
  std::uint8_t* p = out.data() + start;
  std::uint32_t crc = crc32(p, kHeaderBytes - 4);
  crc = crc32(p + kHeaderBytes, out.size() - start - kHeaderBytes, crc);
  std::memcpy(p + kHeaderBytes - 4, &crc, sizeof crc);
}

/// Payload length implied by a (valid) header.
[[nodiscard]] std::size_t payload_length(PacketType type,
                                         std::uint16_t event_count) {
  switch (type) {
    case PacketType::kData:
      return static_cast<std::size_t>(event_count) * kEventBytes;
    case PacketType::kHello:
      return 24;
    case PacketType::kAck:
    case PacketType::kResume:
      return 4;
    case PacketType::kHeartbeat:
    case PacketType::kEndOfStream:
      return 0;
  }
  return 0;
}

}  // namespace

const char* to_string(PacketType type) noexcept {
  switch (type) {
    case PacketType::kHello: return "hello";
    case PacketType::kData: return "data";
    case PacketType::kEndOfStream: return "end-of-stream";
    case PacketType::kHeartbeat: return "heartbeat";
    case PacketType::kAck: return "ack";
    case PacketType::kResume: return "resume";
  }
  return "unknown";
}

const char* to_string(PacketError error) noexcept {
  switch (error) {
    case PacketError::kNone: return "none";
    case PacketError::kBadMagic: return "bad-magic";
    case PacketError::kBadVersion: return "bad-version";
    case PacketError::kBadType: return "bad-type";
    case PacketError::kBadLength: return "bad-length";
    case PacketError::kBadCrc: return "bad-crc";
    case PacketError::kMalformedEvents: return "malformed-events";
    case PacketError::kUnresolvedGap: return "unresolved-gap";
    case PacketError::kBadHello: return "bad-hello";
  }
  return "unknown";
}

void encode_hello(std::uint32_t session_id, const StreamHeader& header,
                  std::vector<std::uint8_t>& out) {
  const std::size_t start =
      begin_packet(out, PacketType::kHello, 0, session_id, 0,
                   static_cast<std::uint32_t>(header.epoch_us));
  put<std::uint16_t>(out, header.width);
  put<std::uint16_t>(out, header.height);
  put<std::uint64_t>(out, static_cast<std::uint64_t>(header.epoch_us));
  put<std::uint64_t>(out, static_cast<std::uint64_t>(header.t_end_us));
  put<std::uint32_t>(out, header.data_packets);
  finish_packet(out, start);
}

void encode_data(std::uint32_t session_id, std::uint32_t seq,
                 std::span<const events::Event> events,
                 std::vector<std::uint8_t>& out) {
  if (events.size() > kMaxEventsPerPacket) {
    throw std::invalid_argument("encode_data: " +
                                std::to_string(events.size()) +
                                " events exceed the per-packet cap");
  }
  const std::int64_t base = events.empty() ? 0 : events.front().t;
  const std::size_t start = begin_packet(
      out, PacketType::kData, static_cast<std::uint16_t>(events.size()),
      session_id, seq, static_cast<std::uint32_t>(base));
  std::int64_t prev = base;
  for (const events::Event& e : events) {
    if (e.y >= kPolarityBit) {
      throw std::invalid_argument(
          "encode_data: y coordinate exceeds the 15-bit wire field");
    }
    if (e.t < prev) {
      throw std::invalid_argument(
          "encode_data: events must be time-ordered");
    }
    const std::int64_t dt = e.t - base;
    if (dt > 0xFFFFFFFFll) {
      throw std::invalid_argument(
          "encode_data: packet spans >= 2^32 us — split it");
    }
    put<std::uint16_t>(out, e.x);
    put<std::uint16_t>(out,
                       static_cast<std::uint16_t>(
                           e.y | (e.p == events::Polarity::kPositive
                                      ? kPolarityBit
                                      : 0)));
    put<std::uint32_t>(out, static_cast<std::uint32_t>(dt));
    prev = e.t;
  }
  finish_packet(out, start);
}

void encode_eos(std::uint32_t session_id, std::uint32_t seq,
                std::int64_t t_end_us, std::vector<std::uint8_t>& out) {
  const std::size_t start =
      begin_packet(out, PacketType::kEndOfStream, 0, session_id, seq,
                   static_cast<std::uint32_t>(t_end_us));
  finish_packet(out, start);
}

void encode_heartbeat(std::uint32_t session_id, std::uint32_t last_seq,
                      std::int64_t last_t_us,
                      std::vector<std::uint8_t>& out) {
  const std::size_t start =
      begin_packet(out, PacketType::kHeartbeat, 0, session_id, last_seq,
                   static_cast<std::uint32_t>(last_t_us));
  finish_packet(out, start);
}

void encode_ack(std::uint32_t session_id, std::uint32_t acked,
                std::vector<std::uint8_t>& out) {
  const std::size_t start =
      begin_packet(out, PacketType::kAck, 0, session_id, 0, 0);
  put<std::uint32_t>(out, acked);
  finish_packet(out, start);
}

void encode_resume(std::uint32_t session_id, std::uint32_t last_sent,
                   std::vector<std::uint8_t>& out) {
  const std::size_t start =
      begin_packet(out, PacketType::kResume, 0, session_id, 0, 0);
  put<std::uint32_t>(out, last_sent);
  finish_packet(out, start);
}

bool decode_hello(std::span<const std::uint8_t> payload,
                  StreamHeader& out) {
  if (payload.size() != 24) return false;
  const std::uint8_t* p = payload.data();
  out.width = get<std::uint16_t>(p);
  out.height = get<std::uint16_t>(p + 2);
  out.epoch_us = static_cast<std::int64_t>(get<std::uint64_t>(p + 4));
  out.t_end_us = static_cast<std::int64_t>(get<std::uint64_t>(p + 12));
  out.data_packets = get<std::uint32_t>(p + 20);
  return out.width > 0 && out.height > 0 && out.t_end_us >= out.epoch_us;
}

bool decode_u32_payload(std::span<const std::uint8_t> payload,
                        std::uint32_t& out) {
  if (payload.size() != 4) return false;
  out = get<std::uint32_t>(payload.data());
  return true;
}

PacketError decode_events(std::span<const std::uint8_t> payload,
                          std::uint16_t event_count, std::int64_t base_us,
                          std::int64_t min_t_us, std::uint16_t width,
                          std::uint16_t height,
                          std::vector<events::Event>& out) {
  if (payload.size() !=
      static_cast<std::size_t>(event_count) * kEventBytes) {
    return PacketError::kBadLength;
  }
  const std::size_t mark = out.size();
  std::uint32_t prev_dt = 0;
  for (std::uint16_t i = 0; i < event_count; ++i) {
    const std::uint8_t* p = payload.data() + i * kEventBytes;
    const auto x = get<std::uint16_t>(p);
    const auto yp = get<std::uint16_t>(p + 2);
    const auto dt = get<std::uint32_t>(p + 4);
    const auto y = static_cast<std::uint16_t>(yp & ~kPolarityBit);
    const std::int64_t t = base_us + dt;
    if (x >= width || y >= height || dt < prev_dt || t < min_t_us) {
      out.resize(mark);  // reject the whole packet, keep nothing
      return PacketError::kMalformedEvents;
    }
    out.push_back(events::Event{
        x, y, t,
        (yp & kPolarityBit) != 0 ? events::Polarity::kPositive
                                 : events::Polarity::kNegative});
    prev_dt = dt;
  }
  return PacketError::kNone;
}

void PacketFramer::feed(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + n);
}

void PacketFramer::reset() noexcept {
  buffer_.clear();
  pos_ = 0;
  in_garbage_ = false;
}

void PacketFramer::compact() {
  if (pos_ == 0) return;
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
  pos_ = 0;
}

std::optional<Framed> PacketFramer::next() {
  // Resynchronize: skip to the next magic. A contiguous run of garbage
  // (or an abandoned false sync) counts as ONE kBadMagic rejection, at
  // its first skipped byte, however feed() splits the run — so hostile
  // bytes cannot inflate counters without bound, and the Framed
  // sequence depends on the bytes only, not on how they arrive.
  std::size_t skipped = 0;
  while (buffer_.size() - pos_ >= 4 &&
         std::memcmp(buffer_.data() + pos_, kMagic, 4) != 0) {
    ++pos_;
    ++skipped;
  }
  const bool run_open = in_garbage_;
  if (buffer_.size() - pos_ < 4) {
    // Fewer than 4 bytes left: they may be a magic prefix — keep them.
    while (buffer_.size() - pos_ > 0 &&
           std::memcmp(buffer_.data() + pos_, kMagic,
                       buffer_.size() - pos_) != 0) {
      ++pos_;
      ++skipped;
    }
    compact();
    if (skipped == 0 || run_open) return std::nullopt;
    in_garbage_ = true;  // the run may continue in the next feed()
    return Framed{PacketError::kBadMagic, {}, {}};
  }
  in_garbage_ = false;  // at a magic: any garbage run ends here
  if (skipped > 0 && !run_open) {
    return Framed{PacketError::kBadMagic, {}, {}};
  }

  if (buffer_.size() - pos_ < kHeaderBytes) return std::nullopt;
  const std::uint8_t* h = buffer_.data() + pos_;
  PacketHeader header;
  header.version = h[4];
  const std::uint8_t raw_type = h[5];
  header.event_count = get<std::uint16_t>(h + 6);
  header.session_id = get<std::uint32_t>(h + 8);
  header.seq = get<std::uint32_t>(h + 12);
  header.t_base = get<std::uint32_t>(h + 16);
  const auto crc_stored = get<std::uint32_t>(h + 20);

  // A bad header field: step past this magic and rescan — if this was a
  // false sync inside a payload, the scan recovers the true boundary.
  if (header.version != kWireVersion) {
    pos_ += 4;
    return Framed{PacketError::kBadVersion, header, {}};
  }
  if (raw_type > kMaxType) {
    pos_ += 4;
    return Framed{PacketError::kBadType, header, {}};
  }
  header.type = static_cast<PacketType>(raw_type);
  if (header.type == PacketType::kData &&
      header.event_count > kMaxEventsPerPacket) {
    pos_ += 4;
    return Framed{PacketError::kBadLength, header, {}};
  }
  const std::size_t body = payload_length(header.type, header.event_count);
  if (buffer_.size() - pos_ < kHeaderBytes + body) {
    compact();
    return std::nullopt;  // truncated so far; more bytes may complete it
  }

  std::uint32_t crc = crc32(h, kHeaderBytes - 4);
  crc = crc32(h + kHeaderBytes, body, crc);
  if (crc != crc_stored) {
    pos_ += 4;  // corrupted or a framing slip: rescan inside it
    return Framed{PacketError::kBadCrc, header, {}};
  }

  Framed framed;
  framed.header = header;
  framed.payload = std::span<const std::uint8_t>(h + kHeaderBytes, body);
  pos_ += kHeaderBytes + body;
  return framed;
}

}  // namespace evedge::wire
