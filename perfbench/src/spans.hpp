#pragma once

// In-memory span recorder for the traced run. Every benchmark-owned
// thread gets its own ThreadSpans buffer, created and reserved before
// the timed window, so recording a span is a clock read and a write
// into preallocated memory: no allocation, no lock, nothing shared
// between threads. A full buffer counts drops instead of growing.
// Spans nest through a per-thread open stack; a span's parent is the
// innermost span open on the same thread when it was opened.
//
// Timestamps are raw steady_clock nanoseconds, the same clock the
// engine's ExecObserver reports, so node spans nest under the spans
// around run_batched without conversion. Export rebases them onto the
// program's trace epoch and writes them through
// obs::write_chrome_trace_file, so evedge_trace reads them unchanged.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

[[nodiscard]] inline std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline std::uint64_t steady_ns(
    std::chrono::steady_clock::time_point tp) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

/// Whether a span's self time is work or waiting (a blocked push, an
/// idle collator, a recv poll, a pacing sleep).
enum class SpanKind : std::uint8_t { kBusy, kWait };

struct Span {
  const char* name = "";  ///< string literal or obs::intern_name
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::int64_t stream = -1;
  std::int64_t seq = -1;
  std::int32_t parent = -1;
  SpanKind kind = SpanKind::kBusy;
};

class ThreadSpans {
 public:
  ThreadSpans(std::string role, std::size_t capacity) : role_(std::move(role)) {
    spans_.reserve(capacity);
  }

  /// Opens a span nested in the innermost open one; -1 when full.
  std::int32_t open(const char* name, SpanKind kind, std::int64_t stream = -1,
                    std::int64_t seq = -1) noexcept {
    if (spans_.size() == spans_.capacity() || depth_ == stack_.size()) {
      ++dropped_;
      return -1;
    }
    const auto handle = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, steady_ns(), 0, stream, seq, innermost(), kind});
    stack_[depth_++] = handle;
    return handle;
  }

  /// Closes the innermost span (which must be `handle`).
  void close(std::int32_t handle) noexcept {
    if (handle < 0) return;
    spans_[static_cast<std::size_t>(handle)].t1 = steady_ns();
    if (depth_ > 0) --depth_;
  }

  void set_args(std::int32_t handle, std::int64_t stream,
                std::int64_t seq) noexcept {
    if (handle < 0) return;
    spans_[static_cast<std::size_t>(handle)].stream = stream;
    spans_[static_cast<std::size_t>(handle)].seq = seq;
  }

  /// Records a finished span (a node the engine timed) as a child of
  /// the innermost open span.
  void add(const char* name, SpanKind kind, std::uint64_t t0,
           std::uint64_t t1, std::int64_t stream, std::int64_t seq) noexcept {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return;
    }
    spans_.push_back(Span{name, t0, t1, stream, seq, innermost(), kind});
  }

  /// The thread's life: the tiling check measures coverage inside it.
  void mark_begin() noexcept { begin_ns_ = steady_ns(); }
  void mark_end() noexcept { end_ns_ = steady_ns(); }

  [[nodiscard]] const std::string& role() const noexcept { return role_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::uint64_t begin_ns() const noexcept { return begin_ns_; }
  [[nodiscard]] std::uint64_t end_ns() const noexcept { return end_ns_; }

  /// Share of [begin, end) covered by this thread's top-level spans.
  [[nodiscard]] double coverage() const;

 private:
  [[nodiscard]] std::int32_t innermost() const noexcept {
    return depth_ > 0 ? stack_[depth_ - 1] : -1;
  }

  std::string role_;
  std::vector<Span> spans_;
  std::array<std::int32_t, 8> stack_{};
  std::size_t depth_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t end_ns_ = 0;
};

/// Closes a span at scope exit.
class SpanScope {
 public:
  SpanScope(ThreadSpans& spans, const char* name, SpanKind kind,
            std::int64_t stream = -1, std::int64_t seq = -1) noexcept
      : spans_(spans), handle_(spans.open(name, kind, stream, seq)) {}
  ~SpanScope() { spans_.close(handle_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_args(std::int64_t stream, std::int64_t seq) noexcept {
    spans_.set_args(handle_, stream, seq);
  }

 private:
  ThreadSpans& spans_;
  std::int32_t handle_;
};

/// Per-name totals over every thread of a recorder.
struct LayerTotals {
  std::string name;
  SpanKind kind = SpanKind::kBusy;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< summed span durations
  std::uint64_t self_ns = 0;   ///< summed self times
};

class SpanRecorder {
 public:
  /// Creates a thread buffer; call before the timed window. The
  /// reference stays valid for the recorder's life.
  ThreadSpans& add_thread(std::string role, std::size_t capacity) {
    threads_.push_back(std::make_unique<ThreadSpans>(std::move(role), capacity));
    return *threads_.back();
  }

  [[nodiscard]] const std::vector<std::unique_ptr<ThreadSpans>>& threads()
      const noexcept {
    return threads_;
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept;
  [[nodiscard]] std::size_t span_count() const noexcept;

  /// Totals per span name, in first-seen order.
  [[nodiscard]] std::vector<LayerTotals> layer_totals() const;

  /// Writes every span as a Chrome trace (cat "perfbench", args
  /// stream/seq, tid = thread index); false with *error on failure.
  bool write_chrome_trace(const std::string& path, std::string* error) const;

 private:
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

}  // namespace perfbench
