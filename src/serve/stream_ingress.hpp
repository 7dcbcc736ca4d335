#pragma once

// StreamIngress: the per-stream front half of the online pipeline
// (Fig. 4), run concurrently for N cameras, one thread each. Every
// stream runs the same ingress core (IngressCore): grayscale-clock
// intervals are E2SF-binned, the resulting sparse frames staged through
// a per-stream DSFA, and every dispatched merged frame passes one
// admission function into the shared FrameQueue as a ReadyFrame
// carrying the stream id, per-stream dispatch index, and DSFA's
// recent-density EMA (telemetry).
//
// Only the event source differs:
//   - in-process: an EventStream handed to the core whole, end of
//     stream included, in one call; the interval windows stay views
//     into the stream's storage. The replay is paced (pace_speedup) and
//     may carry the stream-site FaultInjector.
//   - wire: a hardened WireReceiver session — accept, re-accept after
//     disconnects, stall detection — forwards each accepted,
//     exactly-once, in-order event batch; the core buffers only the
//     events of the still-open interval. The wire peer paces itself and
//     network faults live in NetFaultProxy, so this source passes no
//     pacing origin and no injector.
//   - collect_frames(): the same core with a collecting sink, without
//     queue, faults, or validation — the offline reference that serial
//     baselines and parity checks consume.
//
// Interval closing: events arrive time-ordered, so an interval is
// provably complete once the core has seen an event at or beyond its
// right edge; only end of stream closes the rest. DSFA's ready output is
// dispatched after every closed interval, so the dispatched frames do
// not depend on how the source batched the events.
//
// Grid parity: the wire hello carries the stream's full 64-bit epoch
// and end timestamp, from which the wire source builds the same
// FrameClock::spanning grid as the in-process source — every frame
// decoded from an unaffected packet is bitwise identical to
// collect_frames / run_serial, (stream, seq) keys aligned.
//
// Robustness: each dispatched frame is validated before admission
// (frame_fault_of) — malformed frames (out-of-range COO coordinates,
// non-finite values, inverted bin timing, geometry mismatch) are
// quarantined with a typed FrameFault instead of flowing downstream to
// index kernels out of range. A quarantined frame still consumes its
// seq and counts as enqueued + failed, so (stream, seq) keys and the
// accounting invariant survive. An attached FaultInjector can corrupt,
// stall, or disconnect the stream at exact (stream, seq) sites; a
// disconnect (injected or a real ingress-thread exception, which the
// runtime routes to mark_failed) fails only this stream. On the wire,
// rejected packets (truncated / CRC-failed / malformed, or a hostile
// hello) are quarantined into the stream's packet lanes by the
// receiver — never an ingress-thread death; stalled peers trip the
// receiver's stall timeout and burn one session loss; reconnects resume
// from the last cumulative ack with zero acked frames lost.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/dsfa.hpp"
#include "core/e2sf.hpp"
#include "events/event_stream.hpp"
#include "serve/fault.hpp"
#include "serve/frame_queue.hpp"
#include "serve/journal.hpp"
#include "serve/serve_stats.hpp"
#include "wire/session.hpp"
#include "wire/transport.hpp"

namespace evedge::obs {
class Counter;
}  // namespace evedge::obs

namespace evedge::serve {

struct IngressConfig {
  core::E2sfConfig e2sf{};
  core::DsfaConfig dsfa{};
  double frame_rate_hz = 30.0;  ///< grayscale (APS) frame clock
  /// Real-time pacing: 0 = open loop (push as fast as produced —
  /// saturation benchmarking); otherwise the stream is replayed at
  /// `pace_speedup` x real time (1 = sensor-faithful arrival times).
  double pace_speedup = 0.0;
  /// Validate every dispatched frame (frame_fault_of) and quarantine
  /// malformed ones. Costs one pass over the frame's entries.
  bool validate_frames = true;
};

/// Supplies the receiver side of successive connections for one wire
/// stream: the first call yields the initial connection, later calls
/// the reconnects. nullptr = nothing within the timeout. Called only
/// from the ingress thread.
using TransportAcceptor = std::function<std::unique_ptr<wire::Transport>(
    std::chrono::milliseconds)>;

struct WireIngressConfig {
  wire::WireReceiverConfig receiver{};
  /// Patience per acceptor call.
  std::chrono::milliseconds accept_timeout{1000};
  /// Consecutive lost sessions (accept timeouts, dead or stalled
  /// peers) tolerated before the stream is marked failed.
  int max_session_losses = 10;
};

/// Structural validity check for one frame against the stream geometry:
/// kNone when well-formed, otherwise the first defect found (geometry
/// mismatch, out-of-range coordinate, non-finite value, t_end <
/// t_start). This is the ingress admission gate; downstream kernels
/// index COO coordinates unchecked and rely on it.
[[nodiscard]] FrameFault frame_fault_of(const sparse::SparseFrame& frame,
                                        int height, int width) noexcept;

/// Receives every merged frame the core dispatches, in dispatch order,
/// with DSFA's recent density at that moment; returns false to stop
/// the stream.
using FrameSink =
    std::function<bool(sparse::SparseFrame frame, double recent_density)>;

/// The one framing loop: owns the E2SF converter, the DSFA, the frame
/// clock and the interval cursor, and consumes time-ordered events in
/// batches of any size (see the interval-closing rule above).
class IngressCore {
 public:
  IngressCore(events::SensorGeometry geometry, events::FrameClock clock,
              const IngressConfig& config, FrameSink sink);

  /// Consumes the next events (time-ordered, continuing the previous
  /// call's), closing every interval they prove complete;
  /// `end_of_stream` closes the rest and releases what DSFA still
  /// stages. Events past the clock's last interval are ignored. Returns
  /// false once the sink stopped the stream; later calls do nothing.
  bool feed(std::span<const events::Event> events, bool end_of_stream);

  /// E2SF bins pushed into DSFA so far.
  [[nodiscard]] std::size_t raw_frames() const noexcept {
    return raw_frames_;
  }
  [[nodiscard]] double recent_density() const noexcept {
    return dsfa_.recent_density();
  }

 private:
  /// Converts the open interval over `window`, stages its bins in DSFA
  /// and hands DSFA's ready output to the sink.
  void close_interval(std::span<const events::Event> window);
  void drain();

  events::FrameClock clock_;
  core::Event2SparseFrame e2sf_;
  core::DynamicSparseFrameAggregator dsfa_;
  FrameSink sink_;
  std::size_t next_interval_ = 0;
  /// Events of the open interval held over from earlier feed() calls.
  std::vector<events::Event> open_;
  std::size_t raw_frames_ = 0;
  bool stopped_ = false;
};

class StreamIngress {
 public:
  /// In-process source: replays `stream`. The stream and queue must
  /// outlive the ingress. `stream_id` tags every enqueued frame.
  StreamIngress(int stream_id, const events::EventStream& stream,
                IngressConfig config, FrameQueue& queue);

  /// Wire source: serves the sessions `acceptor` yields until the
  /// peer's end of stream or `wire_config.max_session_losses`.
  StreamIngress(int stream_id, TransportAcceptor acceptor,
                WireIngressConfig wire_config, IngressConfig config,
                FrameQueue& queue);

  // run() hands `this` to the core's sink and runs on its own thread.
  StreamIngress(const StreamIngress&) = delete;
  StreamIngress& operator=(const StreamIngress&) = delete;

  /// Attaches a fault injector (nullptr detaches); must be called
  /// before run(). The injector must outlive the ingress.
  void attach_faults(FaultInjector* injector) noexcept {
    faults_ = injector;
  }

  /// Attaches the crash-consistent fault journal (nullptr detaches);
  /// fired faults, quarantines and rejected wire packets at this
  /// ingress are appended as (site, fault, action) entries. Must
  /// outlive the ingress.
  void attach_journal(FaultJournal* journal) noexcept {
    journal_ = journal;
  }

  /// Attaches this stream's labeled enqueue counter (nullptr detaches);
  /// bumped once per dispatched frame, mirroring stats().enqueued. The
  /// runtime resolves the series up front, so the hot path is one null
  /// check plus one atomic add. Must outlive the ingress.
  void attach_dispatch_counter(obs::Counter* counter) noexcept {
    dispatch_counter_ = counter;
  }

  /// Runs the stream to completion (call on a dedicated thread): source
  /// -> core -> admission -> queue. Returns when every dispatched frame
  /// was enqueued (or the queue closed early, an injected disconnect
  /// fired, or the wire session was lost). Single-shot.
  void run();

  /// Marks this stream failed (stats().ingress_failed + reason). The
  /// runtime calls this when the ingress thread dies on an exception;
  /// injected disconnects and lost wire sessions call it from run().
  void mark_failed(std::string reason);

  /// Per-stream accounting, valid after run() returns.
  [[nodiscard]] const StreamServeStats& stats() const noexcept {
    return stats_;
  }
  /// Frames this ingress quarantined (validation failures), in seq
  /// order; valid after run() returns.
  [[nodiscard]] const std::vector<QuarantinedFrame>& quarantined()
      const noexcept {
    return quarantined_;
  }

  /// The merged frames this stream dispatches, in dispatch order — the
  /// same core run offline (no queue, no threads, no faults). Serial
  /// baselines and parity checks consume this; element i corresponds
  /// to ReadyFrame seq i.
  [[nodiscard]] static std::vector<sparse::SparseFrame> collect_frames(
      const events::EventStream& stream, const IngressConfig& config);

 private:
  /// Builds the core that feeds admit() for a stream of `geometry`.
  void start(std::optional<IngressCore>& core,
             events::SensorGeometry geometry, events::FrameClock clock);
  /// The in-process source.
  void replay(std::optional<IngressCore>& core);
  /// The wire source: the accept / reconnect / session-loss loop.
  void receive(std::optional<IngressCore>& core);
  /// The admission function: pacing, stream-site faults, validation /
  /// quarantine, seq, enqueue. False stops the stream.
  bool admit(sparse::SparseFrame frame, double recent_density);
  /// Fires this (stream, seq)'s injected faults; false on a disconnect.
  bool inject(sparse::SparseFrame& frame);
  /// Appends "stream=<id> <detail>" to the journal, when attached.
  void note(const char* kind, const std::string& detail);

  int stream_id_;
  const events::EventStream* stream_ = nullptr;  ///< null: wire source
  TransportAcceptor acceptor_;
  WireIngressConfig wire_config_;
  IngressConfig config_;
  FrameQueue& queue_;
  FaultInjector* faults_ = nullptr;
  FaultJournal* journal_ = nullptr;
  obs::Counter* dispatch_counter_ = nullptr;
  StreamServeStats stats_;
  std::vector<QuarantinedFrame> quarantined_;

  // Admission state.
  int height_ = 0;
  int width_ = 0;
  /// Sensor time replayed at wall_start_; null = no pacing.
  std::optional<events::TimeUs> pace_origin_;
  std::chrono::steady_clock::time_point wall_start_{};
  std::int64_t seq_ = 0;
  double density_sum_ = 0.0;
};

}  // namespace evedge::serve
