#include "events/event_stream.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace evedge::events {

namespace {

[[nodiscard]] bool time_less(const Event& e, TimeUs t) noexcept {
  return e.t < t;
}

}  // namespace

EventStream::EventStream(SensorGeometry geometry, std::vector<Event> events)
    : geometry_(geometry), events_(std::move(events)) {
  validate_geometry(geometry_);
  validate();
}

TimeUs EventStream::t_begin() const {
  if (events_.empty()) throw std::logic_error("t_begin() on empty stream");
  return events_.front().t;
}

TimeUs EventStream::t_end() const {
  if (events_.empty()) throw std::logic_error("t_end() on empty stream");
  return events_.back().t;
}

TimeUs EventStream::duration() const {
  return events_.size() < 2 ? 0 : events_.back().t - events_.front().t;
}

void EventStream::push_back(const Event& e) {
  if (!geometry_.contains(e.x, e.y)) {
    throw std::invalid_argument("event (" + std::to_string(e.x) + "," +
                                std::to_string(e.y) +
                                ") outside sensor geometry");
  }
  if (!events_.empty() && e.t < events_.back().t) {
    throw std::invalid_argument("event timestamp decreases: " +
                                std::to_string(e.t) + " < " +
                                std::to_string(events_.back().t));
  }
  events_.push_back(e);
}

void EventStream::append(const EventStream& other) {
  if (!(other.geometry_ == geometry_)) {
    throw std::invalid_argument("append: geometry mismatch");
  }
  if (!events_.empty() && !other.events_.empty() &&
      other.events_.front().t < events_.back().t) {
    throw std::invalid_argument("append: other stream starts in the past");
  }
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

std::span<const Event> EventStream::slice(TimeUs t0, TimeUs t1) const {
  if (t1 < t0) throw std::invalid_argument("slice: t1 < t0");
  const auto first =
      std::lower_bound(events_.begin(), events_.end(), t0, time_less);
  const auto last =
      std::lower_bound(first, events_.end(), t1, time_less);
  return {std::to_address(first),
          static_cast<std::size_t>(std::distance(first, last))};
}

std::size_t EventStream::count_in(TimeUs t0, TimeUs t1) const {
  return slice(t0, t1).size();
}

void EventStream::validate() const {
  TimeUs prev = events_.empty() ? 0 : events_.front().t;
  for (const Event& e : events_) {
    if (!geometry_.contains(e.x, e.y)) {
      throw std::logic_error("event outside geometry at t=" +
                             std::to_string(e.t));
    }
    if (e.t < prev) {
      throw std::logic_error("events not time-ordered at t=" +
                             std::to_string(e.t));
    }
    prev = e.t;
  }
}

FrameClock FrameClock::uniform(TimeUs t0, TimeUs period_us,
                               std::size_t n_frames) {
  if (period_us <= 0) {
    throw std::invalid_argument("FrameClock::uniform: period must be > 0");
  }
  FrameClock clock;
  clock.timestamps.reserve(n_frames);
  for (std::size_t i = 0; i < n_frames; ++i) {
    clock.timestamps.push_back(t0 +
                               static_cast<TimeUs>(i) * period_us);
  }
  return clock;
}

FrameClock FrameClock::spanning(TimeUs t_begin, TimeUs t_end,
                                double frame_rate_hz) {
  if (t_end < t_begin) {
    throw std::invalid_argument("FrameClock::spanning: t_end < t_begin");
  }
  if (frame_rate_hz <= 0.0) {
    throw std::invalid_argument("FrameClock::spanning: bad frame rate");
  }
  const auto period_us =
      static_cast<TimeUs>(std::llround(1e6 / frame_rate_hz));
  const auto n_frames =
      static_cast<std::size_t>((t_end - t_begin) / period_us) + 2;
  return uniform(t_begin, period_us, n_frames);
}

FrameClock FrameClock::spanning(const EventStream& stream,
                                double frame_rate_hz) {
  if (stream.empty()) {
    throw std::invalid_argument("FrameClock::spanning: empty event stream");
  }
  return spanning(stream.t_begin(), stream.t_end(), frame_rate_hz);
}

}  // namespace evedge::events
