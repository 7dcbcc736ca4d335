#include "serve/stream_ingress.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace evedge::serve {

namespace {

[[nodiscard]] FrameFault channel_fault(const sparse::CooChannel& channel,
                                       int height, int width) noexcept {
  for (const sparse::CooEntry& e : channel.entries()) {
    if (e.row < 0 || e.row >= height || e.col < 0 || e.col >= width) {
      return FrameFault::kOutOfBoundsCoordinate;
    }
    if (!std::isfinite(e.value)) return FrameFault::kNonFiniteValue;
  }
  return FrameFault::kNone;
}

}  // namespace

FrameFault frame_fault_of(const sparse::SparseFrame& frame, int height,
                          int width) noexcept {
  if (frame.height() != height || frame.width() != width) {
    return FrameFault::kGeometryMismatch;
  }
  if (frame.t_end < frame.t_start) return FrameFault::kBadTiming;
  if (const FrameFault f = channel_fault(frame.positive(), height, width);
      f != FrameFault::kNone) {
    return f;
  }
  return channel_fault(frame.negative(), height, width);
}

// ------------------------------------------------------------ IngressCore

IngressCore::IngressCore(events::SensorGeometry geometry,
                         events::FrameClock clock,
                         const IngressConfig& config, FrameSink sink)
    : clock_(std::move(clock)),
      e2sf_(geometry, config.e2sf),
      dsfa_(config.dsfa),
      sink_(std::move(sink)) {}

bool IngressCore::feed(std::span<const events::Event> events,
                       bool end_of_stream) {
  while (!stopped_ && next_interval_ < clock_.interval_count()) {
    const events::TimeUs t1 = clock_.timestamps[next_interval_ + 1];
    if (!end_of_stream && (events.empty() || events.back().t < t1)) break;
    const auto split = std::lower_bound(
        events.begin(), events.end(), t1,
        [](const events::Event& e, events::TimeUs t) { return e.t < t; });
    std::span<const events::Event> window(events.begin(), split);
    events = std::span<const events::Event>(split, events.end());
    if (!open_.empty()) {
      open_.insert(open_.end(), window.begin(), window.end());
      window = open_;
    }
    close_interval(window);
    open_.clear();
  }
  if (stopped_) return false;
  if (next_interval_ < clock_.interval_count()) {
    open_.insert(open_.end(), events.begin(), events.end());
  } else if (end_of_stream) {
    dsfa_.dispatch_available();
    drain();
  }
  return !stopped_;
}

void IngressCore::close_interval(std::span<const events::Event> window) {
  const events::TimeUs t0 = clock_.timestamps[next_interval_];
  const events::TimeUs t1 = clock_.timestamps[next_interval_ + 1];
  ++next_interval_;
  {
    // Span covers conversion + DSFA merge only; the sink (whose queue
    // push may block) runs in drain() outside it.
    const obs::ScopedSpan span("ingress", "e2sf.interval");
    for (sparse::SparseFrame& frame : e2sf_.convert(window, t0, t1)) {
      ++raw_frames_;
      dsfa_.push(std::move(frame));
    }
  }
  drain();
}

void IngressCore::drain() {
  while (auto batch = dsfa_.take_ready_batch()) {
    for (sparse::SparseFrame& frame : batch->frames) {
      if (!sink_(std::move(frame), dsfa_.recent_density())) {
        stopped_ = true;
        return;
      }
    }
  }
}

// ---------------------------------------------------------- StreamIngress

StreamIngress::StreamIngress(int stream_id,
                             const events::EventStream& stream,
                             IngressConfig config, FrameQueue& queue)
    : stream_id_(stream_id),
      stream_(&stream),
      config_(std::move(config)),
      queue_(queue) {
  stats_.stream_id = stream_id;
}

StreamIngress::StreamIngress(int stream_id, TransportAcceptor acceptor,
                             WireIngressConfig wire_config,
                             IngressConfig config, FrameQueue& queue)
    : stream_id_(stream_id),
      acceptor_(std::move(acceptor)),
      wire_config_(std::move(wire_config)),
      config_(std::move(config)),
      queue_(queue) {
  stats_.stream_id = stream_id;
}

void StreamIngress::mark_failed(std::string reason) {
  stats_.ingress_failed = true;
  if (stats_.failure_reason.empty()) {
    stats_.failure_reason = std::move(reason);
  }
}

void StreamIngress::run() {
  std::optional<IngressCore> core;
  if (stream_ != nullptr) {
    replay(core);
  } else {
    receive(core);
  }
  if (stats_.enqueued > 0) {
    stats_.mean_frame_density =
        density_sum_ / static_cast<double>(stats_.enqueued);
  }
  if (core.has_value()) {
    stats_.raw_frames = core->raw_frames();
    stats_.last_ingress_density = core->recent_density();
  }
}

void StreamIngress::start(std::optional<IngressCore>& core,
                          events::SensorGeometry geometry,
                          events::FrameClock clock) {
  height_ = geometry.height;
  width_ = geometry.width;
  core.emplace(geometry, std::move(clock), config_,
               [this](sparse::SparseFrame frame, double density) {
                 return admit(std::move(frame), density);
               });
}

void StreamIngress::replay(std::optional<IngressCore>& core) {
  // One shared clock construction with simulate_pipeline: serving and
  // the simulation frame identically by design, not by copy.
  start(core, stream_->geometry(),
        events::FrameClock::spanning(*stream_, config_.frame_rate_hz));
  if (config_.pace_speedup > 0.0) pace_origin_ = stream_->t_begin();
  wall_start_ = std::chrono::steady_clock::now();
  (void)core->feed(stream_->events(), /*end_of_stream=*/true);
}

void StreamIngress::receive(std::optional<IngressCore>& core) {
  bool stopped = false;  // the queue closed under us
  wire::Transport* current = nullptr;
  wire::WireSink sink;
  sink.hello = [&](const wire::StreamHeader& header) {
    if (header.data_packets == 0) return;  // no events: nothing to frame
    start(core, events::SensorGeometry{header.width, header.height},
          events::FrameClock::spanning(header.epoch_us, header.t_end_us,
                                       config_.frame_rate_hz));
  };
  sink.events = [&](std::span<const events::Event> batch, std::uint32_t) {
    if (core.has_value() && !stopped && !core->feed(batch, false)) {
      // Stop receiving: close the live transport so serve() unblocks.
      stopped = true;
      if (current != nullptr) current->close();
    }
  };
  sink.rejected = [this](wire::PacketError error) {
    note("wire-reject", std::string("fault=") + wire::to_string(error) +
                            " action=quarantine-packet");
  };
  wire::WireReceiver receiver(wire_config_.receiver, std::move(sink));

  int losses = 0;
  std::size_t accepted_transports = 0;
  while (!receiver.eos() && !stopped) {
    std::unique_ptr<wire::Transport> transport =
        acceptor_(wire_config_.accept_timeout);
    if (!transport) {
      if (++losses > wire_config_.max_session_losses) {
        mark_failed("wire: no connection");
        break;
      }
      continue;
    }
    // Every transport accepted beyond the first is a mid-stream
    // reconnect (the session state carried across the gap).
    if (accepted_transports++ > 0) {
      ++stats_.wire_reconnects;
      obs::Tracer::instant("wire", "wire.reaccept", "stream", stream_id_);
    }
    current = transport.get();
    const wire::ServeOutcome outcome = receiver.serve(*transport);
    if (outcome == wire::ServeOutcome::kEndOfStream && !stopped) {
      receiver.linger(*transport);  // let the peer consume the last ack
    }
    current = nullptr;
    transport->close();
    if (outcome == wire::ServeOutcome::kEndOfStream || stopped) break;
    // Peer closed or stalled: await the sender's reconnect. The session
    // state (next seq, unwrapper, pending buffer) carries across, so a
    // resumed sender loses nothing that was acked.
    if (++losses > wire_config_.max_session_losses) {
      mark_failed(std::string("wire: session lost (") +
                  wire::to_string(outcome) + ")");
      break;
    }
  }
  receiver.finish();
  if (receiver.eos() && core.has_value()) (void)core->feed({}, true);

  const wire::WireRecvStats& wire_stats = receiver.stats();
  stats_.wire_packets_seen = wire_stats.packets_seen;
  stats_.wire_packets_accepted = wire_stats.packets_accepted;
  stats_.rejected_packets = wire_stats.rejected_packets;
  stats_.duplicate_packets = wire_stats.duplicate_packets;
  stats_.wire_resumes = wire_stats.resumes_served;
  stats_.wire_heartbeats = wire_stats.heartbeats_seen;
  stats_.wire_rewinds = wire_stats.rewinds_seen;
  stats_.wire_resyncs = wire_stats.resyncs;
}

bool StreamIngress::admit(sparse::SparseFrame frame, double recent_density) {
  if (pace_origin_.has_value()) {
    // Sensor-faithful arrival: the merged frame exists once its last
    // bin closes (t_end), replayed at pace_speedup x.
    std::this_thread::sleep_until(
        wall_start_ +
        std::chrono::microseconds(static_cast<long long>(
            static_cast<double>(frame.t_end - *pace_origin_) /
            config_.pace_speedup)));
  }
  if (faults_ != nullptr && !inject(frame)) return false;
  density_sum_ += frame.density();
  // Admission gate: quarantine malformed frames here, where the defect
  // can still be attributed to its (stream, seq).
  if (config_.validate_frames) {
    const FrameFault fault = frame_fault_of(frame, height_, width_);
    if (fault != FrameFault::kNone) {
      quarantined_.push_back(QuarantinedFrame{stream_id_, seq_, fault, 0});
      note("quarantine", "seq=" + std::to_string(seq_) +
                             " fault=" + to_string(fault) +
                             " action=ingress-reject");
      ++stats_.enqueued;
      ++stats_.failed;
      if (dispatch_counter_ != nullptr) dispatch_counter_->add();
      ++seq_;  // the seq is consumed: downstream keys stay aligned
      return true;
    }
  }
  ReadyFrame ready;
  ready.stream_id = stream_id_;
  ready.seq = seq_;
  ready.frame = std::move(frame);
  ready.ingress_density = recent_density;
  obs::Tracer::instant("ingress", "frame.dispatch", "stream", stream_id_,
                       "seq", seq_);
  std::optional<ReadyFrame> rejected = queue_.push(std::move(ready));
  if (rejected.has_value() && rejected->stream_id == stream_id_ &&
      rejected->seq == seq_) {
    // Identity match = the queue closed and never accepted this frame
    // (a kDropOldest displacement would return an OLDER frame —
    // possibly ours, but with a smaller seq).
    return false;
  }
  // Under kDropOldest a displaced frame may belong to any stream; the
  // runtime reconciles per-stream drops as the enqueued - completed -
  // shed - failed residual once the queue drains.
  ++seq_;
  ++stats_.enqueued;
  if (dispatch_counter_ != nullptr) dispatch_counter_->add();
  return true;
}

bool StreamIngress::inject(sparse::SparseFrame& frame) {
  const auto fired = [&](FaultType type, const char* action,
                         const char* event) {
    faults_->record(type);
    note("inject", "seq=" + std::to_string(seq_) + " action=" + action);
    obs::Tracer::instant("fault", event, "stream", stream_id_, "seq", seq_);
  };
  for (const FaultSpec& spec : faults_->at_stream(stream_id_, seq_)) {
    switch (spec.type) {
      case FaultType::kStreamStall:
        fired(FaultType::kStreamStall, "stall", "fault.stream_stall");
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(spec.delay_ms));
        break;
      case FaultType::kStreamDisconnect:
        fired(FaultType::kStreamDisconnect, "disconnect",
              "fault.stream_disconnect");
        mark_failed("injected stream disconnect");
        return false;  // stop ingesting; the stream dies here
      case FaultType::kCorruptFrame:
        fired(FaultType::kCorruptFrame, "corrupt", "fault.corrupt_frame");
        FaultInjector::corrupt(spec, frame);
        break;
      default:
        break;  // worker-site faults never land here
    }
  }
  return true;
}

void StreamIngress::note(const char* kind, const std::string& detail) {
  if (journal_ == nullptr) return;
  journal_->append(kind, "stream=" + std::to_string(stream_id_) + " " +
                             detail);
}

std::vector<sparse::SparseFrame> StreamIngress::collect_frames(
    const events::EventStream& stream, const IngressConfig& config) {
  std::vector<sparse::SparseFrame> frames;
  IngressCore core(stream.geometry(),
                   events::FrameClock::spanning(stream, config.frame_rate_hz),
                   config, [&frames](sparse::SparseFrame frame, double) {
                     frames.push_back(std::move(frame));
                     return true;
                   });
  (void)core.feed(stream.events(), /*end_of_stream=*/true);
  return frames;
}

}  // namespace evedge::serve
