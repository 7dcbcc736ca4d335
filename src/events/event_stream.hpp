#pragma once

// EventStream: an in-memory, time-ordered AER event sequence plus the
// geometry of the sensor that produced it. This is the hand-off type
// between the sensing substrate (DVS simulator / synthesizers) and the
// Ev-Edge runtime front end (E2SF).

#include <cstddef>
#include <span>
#include <vector>

#include "events/event.hpp"

namespace evedge::events {

/// Time-ordered event sequence. Invariants (checked by validate()):
///  - events are sorted by non-decreasing timestamp
///  - every event lies inside the sensor geometry
class EventStream {
 public:
  EventStream() = default;
  explicit EventStream(SensorGeometry geometry) : geometry_(geometry) {
    validate_geometry(geometry_);
  }
  EventStream(SensorGeometry geometry, std::vector<Event> events);

  [[nodiscard]] const SensorGeometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] std::span<const Event> events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// First/last timestamps; both throw std::logic_error when empty.
  [[nodiscard]] TimeUs t_begin() const;
  [[nodiscard]] TimeUs t_end() const;
  /// Duration in microseconds (0 when fewer than two events).
  [[nodiscard]] TimeUs duration() const;

  /// Appends one event; must not decrease the timestamp and must lie
  /// inside the geometry (throws std::invalid_argument otherwise).
  void push_back(const Event& e);

  /// Appends all events of `other` (same geometry required); `other`'s
  /// first timestamp must be >= our last.
  void append(const EventStream& other);

  /// Events with timestamp in [t0, t1). Binary-searched; O(log n + k).
  [[nodiscard]] std::span<const Event> slice(TimeUs t0, TimeUs t1) const;

  /// Number of events with timestamp in [t0, t1).
  [[nodiscard]] std::size_t count_in(TimeUs t0, TimeUs t1) const;

  /// Throws std::logic_error when an invariant is violated. Intended for
  /// tests and for validating externally constructed streams.
  void validate() const;

 private:
  SensorGeometry geometry_{};
  std::vector<Event> events_;
};

/// Grayscale (APS) frame timestamps emitted alongside events by DAVIS-style
/// sensors. E2SF bins events between consecutive entries (Tstart, Tend).
struct FrameClock {
  std::vector<TimeUs> timestamps;  ///< strictly increasing

  /// Uniform clock: n_frames timestamps starting at t0, spaced period_us.
  [[nodiscard]] static FrameClock uniform(TimeUs t0, TimeUs period_us,
                                          std::size_t n_frames);

  /// Uniform clock spanning [t_begin, t_end] at `frame_rate_hz`
  /// (period = round(1e6 / rate), padded by one interval so an event at
  /// t_end falls inside a closed interval). This is THE grayscale
  /// camera model shared by the pipeline simulation and the serving
  /// ingress (in-process and wire) — one construction, so all frame
  /// identically by design. Throws std::invalid_argument for
  /// t_end < t_begin or a non-positive rate.
  [[nodiscard]] static FrameClock spanning(TimeUs t_begin, TimeUs t_end,
                                           double frame_rate_hz);

  /// spanning(stream.t_begin(), stream.t_end(), rate); also throws for
  /// an empty stream.
  [[nodiscard]] static FrameClock spanning(const EventStream& stream,
                                           double frame_rate_hz);

  /// Number of (Tstart, Tend) intervals, i.e. timestamps.size() - 1.
  [[nodiscard]] std::size_t interval_count() const noexcept {
    return timestamps.empty() ? 0 : timestamps.size() - 1;
  }
};

}  // namespace evedge::events
