#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "core/batch_executor.hpp"
#include "core/dsfa.hpp"
#include "core/e2sf.hpp"
#include "core/parallel.hpp"
#include "nn/exec_plan.hpp"
#include "obs/trace.hpp"
#include "serve/batch_collator.hpp"
#include "serve/frame_queue.hpp"
#include "serve/stream_ingress.hpp"
#include "wire/session.hpp"
#include "wire/transport.hpp"

namespace perfbench {

namespace ee = evedge::events;
namespace en = evedge::nn;
namespace es = evedge::sparse;
namespace ev = evedge::serve;
namespace ew = evedge::wire;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kSpansPerThread = std::size_t{1} << 16;
/// A wire ingress thread also records one span per 4 KiB recv.
constexpr std::size_t kSpansPerWireThread = std::size_t{1} << 18;
/// Per-worker wait samples reserved up front.
constexpr std::size_t kWaitSamples = std::size_t{1} << 14;

/// First error any thread hit; later ones are dropped.
class ErrorSlot {
 public:
  void set(const std::string& what) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (error_.empty()) error_ = what.empty() ? "unknown error" : what;
  }
  [[nodiscard]] std::string get() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return error_;
  }

 private:
  mutable std::mutex mutex_;
  std::string error_;
};

/// Runs `body`, recording its exception and closing the queue so every
/// other thread of the rep unblocks.
template <typename Body>
void guarded(ErrorSlot& errors, ev::FrameQueue& queue, const Body& body) {
  try {
    body();
  } catch (const std::exception& e) {
    errors.set(e.what());
    queue.close();
  } catch (...) {
    errors.set("non-standard exception");
    queue.close();
  }
}

struct IngressTally {
  std::size_t events = 0;
  std::size_t enqueued = 0;
  evedge::core::DsfaStats dsfa{};
  std::uint64_t transport_bytes = 0;
};

/// The framing loop of StreamIngress / WireStreamIngress, driven call by
/// call: E2SF per clock interval, DSFA staging, admission check, queue
/// push, with a span around each.
class TracedIngress {
 public:
  TracedIngress(int stream_id, const ev::IngressConfig& config,
                ee::SensorGeometry geometry, ev::FrameQueue& queue,
                ThreadSpans& spans)
      : stream_id_(stream_id),
        config_(config),
        geometry_(geometry),
        e2sf_(geometry, config.e2sf),
        dsfa_(config.dsfa),
        queue_(queue),
        spans_(spans) {}

  /// Sensor-rate replay: a merged frame is held until its last bin
  /// closes, wall_start + (t_end - t_begin) / pace_speedup.
  void pace_from(Clock::time_point wall_start, ee::TimeUs t_begin) {
    wall_start_ = wall_start;
    t_begin_ = t_begin;
  }

  /// Converts one clock interval and dispatches what DSFA releases;
  /// false once the queue closed.
  bool interval(std::span<const ee::Event> window, ee::TimeUs t0,
                ee::TimeUs t1) {
    std::vector<es::SparseFrame> bins;
    {
      const SpanScope span(spans_, "ingress.e2sf", SpanKind::kBusy,
                           stream_id_, seq_);
      bins = e2sf_.convert(window, t0, t1);
    }
    tally_.events += window.size();
    {
      const SpanScope span(spans_, "ingress.dsfa", SpanKind::kBusy,
                           stream_id_, seq_);
      for (es::SparseFrame& frame : bins) dsfa_.push(std::move(frame));
      take_ready();
    }
    return dispatch_ready();
  }

  /// End of stream: DSFA releases whatever it still stages.
  bool finish() {
    {
      const SpanScope span(spans_, "ingress.dsfa", SpanKind::kBusy,
                           stream_id_, seq_);
      dsfa_.dispatch_available();
      take_ready();
    }
    return dispatch_ready();
  }

  [[nodiscard]] IngressTally tally() const {
    IngressTally t = tally_;
    t.dsfa = dsfa_.stats();
    return t;
  }

 private:
  void take_ready() {
    while (auto batch = dsfa_.take_ready_batch()) {
      for (es::SparseFrame& frame : batch->frames) {
        ready_.push_back(std::move(frame));
      }
    }
  }

  bool dispatch_ready() {
    bool open = true;
    for (es::SparseFrame& frame : ready_) {
      if (open) open = dispatch(std::move(frame));
    }
    ready_.clear();
    return open;
  }

  bool dispatch(es::SparseFrame frame) {
    if (config_.pace_speedup > 0.0) {
      const SpanScope span(spans_, "ingress.pace", SpanKind::kWait,
                           stream_id_, seq_);
      std::this_thread::sleep_until(
          wall_start_ +
          std::chrono::microseconds(static_cast<long long>(
              static_cast<double>(frame.t_end - t_begin_) /
              config_.pace_speedup)));
    }
    if (config_.validate_frames) {
      const SpanScope span(spans_, "ingress.validate", SpanKind::kBusy,
                           stream_id_, seq_);
      if (ev::frame_fault_of(frame, geometry_.height, geometry_.width) !=
          ev::FrameFault::kNone) {
        throw std::runtime_error("traced ingress produced a malformed frame");
      }
    }
    ev::ReadyFrame ready;
    ready.stream_id = stream_id_;
    ready.seq = seq_;
    ready.frame = std::move(frame);
    ready.ingress_density = dsfa_.recent_density();
    std::optional<ev::ReadyFrame> rejected;
    {
      const SpanScope span(spans_, "queue.push", SpanKind::kWait, stream_id_,
                           seq_);
      rejected = queue_.push(std::move(ready));
    }
    if (rejected.has_value() && rejected->stream_id == stream_id_ &&
        rejected->seq == seq_) {
      return false;  // the queue closed under us
    }
    ++seq_;
    ++tally_.enqueued;
    return true;
  }

  int stream_id_;
  const ev::IngressConfig& config_;
  ee::SensorGeometry geometry_;
  evedge::core::Event2SparseFrame e2sf_;
  evedge::core::DynamicSparseFrameAggregator dsfa_;
  ev::FrameQueue& queue_;
  ThreadSpans& spans_;
  Clock::time_point wall_start_{};
  ee::TimeUs t_begin_ = 0;
  std::int64_t seq_ = 0;
  std::vector<es::SparseFrame> ready_;
  IngressTally tally_;
};

void stream_ingress(const ee::EventStream& stream, int stream_id,
                    const ev::IngressConfig& config, ev::FrameQueue& queue,
                    ThreadSpans& spans, IngressTally& tally) {
  spans.mark_begin();
  TracedIngress ingress(stream_id, config, stream.geometry(), queue, spans);
  ingress.pace_from(Clock::now(), stream.t_begin());
  const ee::FrameClock clock =
      ee::FrameClock::spanning(stream, config.frame_rate_hz);
  bool open = true;
  for (std::size_t i = 0; open && i < clock.interval_count(); ++i) {
    const ee::TimeUs t0 = clock.timestamps[i];
    const ee::TimeUs t1 = clock.timestamps[i + 1];
    open = ingress.interval(stream.slice(t0, t1), t0, t1);
  }
  if (open) ingress.finish();
  tally = ingress.tally();
  spans.mark_end();
}

/// Transport decorator: a wait span around every recv_some, and the
/// bytes received.
class RecvSpans final : public ew::Transport {
 public:
  RecvSpans(ew::Transport& inner, ThreadSpans& spans, int stream_id,
            std::uint64_t& bytes)
      : inner_(inner), spans_(spans), stream_id_(stream_id), bytes_(bytes) {}

  [[nodiscard]] bool send(const void* data, std::size_t n) override {
    return inner_.send(data, n);
  }
  [[nodiscard]] std::ptrdiff_t recv_some(
      void* data, std::size_t n, std::chrono::milliseconds timeout) override {
    const SpanScope span(spans_, "transport.recv", SpanKind::kWait,
                         stream_id_);
    const std::ptrdiff_t got = inner_.recv_some(data, n, timeout);
    if (got > 0) bytes_ += static_cast<std::uint64_t>(got);
    return got;
  }
  void close() override { inner_.close(); }
  [[nodiscard]] bool closed() const override { return inner_.closed(); }

 private:
  ew::Transport& inner_;
  ThreadSpans& spans_;
  int stream_id_;
  std::uint64_t& bytes_;
};

/// Receive side of one wire stream: WireReceiver over a RecvSpans
/// transport, feeding the same framing loop. The grid comes from the
/// hello packet exactly as WireStreamIngress rebuilds it.
void wire_ingress(ew::TcpListener& listener, int stream_id,
                  const ev::IngressConfig& config, ev::FrameQueue& queue,
                  ThreadSpans& spans, IngressTally& tally) {
  spans.mark_begin();
  const ev::WireIngressConfig wire_config;
  std::unique_ptr<ew::Transport> transport;
  {
    const SpanScope span(spans, "wire.accept", SpanKind::kWait, stream_id);
    transport = listener.accept(wire_config.accept_timeout);
  }
  if (!transport) throw std::runtime_error("wire: no connection");
  std::uint64_t bytes = 0;
  RecvSpans timed(*transport, spans, stream_id, bytes);

  std::optional<TracedIngress> ingress;
  ee::FrameClock clock;
  std::size_t next_interval = 0;
  std::vector<ee::Event> buffered;
  bool open = true;
  const auto process = [&](bool flush) {
    if (!ingress.has_value()) return;
    while (open && next_interval < clock.interval_count()) {
      const ee::TimeUs t0 = clock.timestamps[next_interval];
      const ee::TimeUs t1 = clock.timestamps[next_interval + 1];
      if (!flush && (buffered.empty() || buffered.back().t < t1)) break;
      const auto split = std::lower_bound(
          buffered.begin(), buffered.end(), t1,
          [](const ee::Event& e, ee::TimeUs t) { return e.t < t; });
      open = ingress->interval(
          std::span<const ee::Event>(
              buffered.data(),
              static_cast<std::size_t>(split - buffered.begin())),
          t0, t1);
      buffered.erase(buffered.begin(), split);
      ++next_interval;
    }
  };
  ew::WireSink sink;
  sink.hello = [&](const ew::StreamHeader& header) {
    ingress.emplace(stream_id, config,
                    ee::SensorGeometry{header.width, header.height}, queue,
                    spans);
    const auto period = static_cast<ee::TimeUs>(
        std::llround(1e6 / config.frame_rate_hz));
    clock = ee::FrameClock::uniform(
        header.epoch_us, period,
        static_cast<std::size_t>((header.t_end_us - header.epoch_us) /
                                 period) +
            2);
  };
  sink.events = [&](std::span<const ee::Event> batch, std::uint32_t) {
    buffered.insert(buffered.end(), batch.begin(), batch.end());
    process(false);
  };
  ew::WireReceiver receiver(wire_config.receiver, std::move(sink));
  ew::ServeOutcome outcome{};
  {
    const SpanScope span(spans, "wire.serve", SpanKind::kBusy, stream_id);
    outcome = receiver.serve(timed);
  }
  if (outcome == ew::ServeOutcome::kEndOfStream) {
    const SpanScope span(spans, "wire.linger", SpanKind::kWait, stream_id);
    receiver.linger(timed);
  }
  transport->close();
  if (outcome != ew::ServeOutcome::kEndOfStream || !ingress.has_value()) {
    throw std::runtime_error(std::string("wire: session ended with ") +
                             ew::to_string(outcome));
  }
  process(true);
  if (open) ingress->finish();
  tally = ingress->tally();
  tally.transport_bytes = bytes;
  spans.mark_end();
}

/// ExecObserver: one child span per node execution under the
/// "engine.run" span, plus per-node totals for the model cross-check.
class NodeSpans final : public en::ExecObserver {
 public:
  NodeSpans(const en::NetworkSpec& spec, ThreadSpans& spans) : spans_(spans) {
    for (const en::LayerNode& node : spec.graph.nodes()) {
      names_.push_back(evedge::obs::intern_name(node.spec.name));
      rows_.push_back({node.id, node.spec.name});
    }
  }

  void set_lead(std::int64_t stream, std::int64_t seq) noexcept {
    stream_ = stream;
    seq_ = seq;
  }

  void on_node(int node_id, en::Route /*route*/, int /*timestep*/,
               std::uint64_t t0_ns, std::uint64_t t1_ns, int tile,
               int /*tile_count*/) noexcept override {
    const auto idx = static_cast<std::size_t>(node_id);
    if (idx >= rows_.size()) return;
    spans_.add(names_[idx], SpanKind::kBusy, t0_ns, t1_ns, stream_, seq_);
    // Tile fragments of one execution count one run (LayerProfiler's rule).
    rows_[idx].runs += tile == 0 ? 1 : 0;
    rows_[idx].total_ns += t1_ns > t0_ns ? t1_ns - t0_ns : 0;
  }

  [[nodiscard]] const std::vector<evedge::obs::NodeRouteProfile>& rows()
      const noexcept {
    return rows_;
  }

 private:
  ThreadSpans& spans_;
  std::vector<const char*> names_;
  std::vector<evedge::obs::NodeRouteProfile> rows_;
  std::int64_t stream_ = -1;
  std::int64_t seq_ = -1;
};

void add_exec(en::ExecStats& into, const en::ExecStats& from) {
  into.node_executions += from.node_executions;
  into.sparse_node_runs += from.sparse_node_runs;
  into.sparsify_boundaries += from.sparsify_boundaries;
  into.densify_boundaries += from.densify_boundaries;
  into.sparse_macs += from.sparse_macs;
  into.dense_macs_avoided += from.dense_macs_avoided;
}

void add_rows(std::vector<evedge::obs::NodeRouteProfile>& into,
              const std::vector<evedge::obs::NodeRouteProfile>& from) {
  if (into.empty()) {
    into = from;
    return;
  }
  for (std::size_t i = 0; i < into.size() && i < from.size(); ++i) {
    into[i].runs += from[i].runs;
    into[i].total_ns += from[i].total_ns;
  }
}

struct WorkerTally {
  std::vector<double> queue_wait_ms;
  std::vector<double> collate_wait_ms;
  std::size_t batches = 0;
  std::size_t short_batches = 0;
  std::size_t samples = 0;
  en::ExecStats exec{};
  std::uint64_t dense_equivalent_macs = 0;
  std::vector<evedge::obs::NodeRouteProfile> nodes;
};

/// ServeWorker::process_batch's steps, call by call: adapt the batch,
/// calibrate the planner on the first batch (and on density drift),
/// run_batched with the node observer installed.
void worker(const en::FunctionalNetwork& prototype,
            const ev::WorkerConfig& config, ev::FrameQueue& queue,
            ThreadSpans& spans, WorkerTally& tally) {
  spans.mark_begin();
  ev::BatchCollator collator(config.collator);
  en::FunctionalNetwork net = prototype.clone();
  const en::NetworkSpec& spec = net.spec();
  NodeSpans observer(spec, spans);
  net.set_exec_observer(&observer);
  const es::TensorShape event_shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  const std::uint64_t dense_macs_per_sample =
      spec.graph.total_macs() * static_cast<std::uint64_t>(spec.timesteps);
  en::ExecutionPlan plan;
  bool plan_ready = false;
  std::vector<ev::ReadyFrame> batch;
  std::vector<es::SparseFrame> frames;
  std::vector<es::DenseTensor> steps;
  tally.queue_wait_ms.reserve(kWaitSamples);
  tally.collate_wait_ms.reserve(kWaitSamples);

  while (true) {
    const std::int32_t collate = spans.open("collate", SpanKind::kWait);
    const std::uint64_t c0 = steady_ns();
    const bool more = collator.collect(queue, batch);
    const std::uint64_t c1 = steady_ns();
    spans.close(collate);
    if (!more) break;
    const ev::ReadyFrame& lead = batch.front();
    spans.set_args(collate, lead.stream_id, lead.seq);
    for (const ev::ReadyFrame& ready : batch) {
      const std::uint64_t admitted = steady_ns(ready.enqueue_tp);
      const std::uint64_t popped = std::max(c0, admitted);
      tally.queue_wait_ms.push_back(static_cast<double>(popped - admitted) /
                                    1e6);
      tally.collate_wait_ms.push_back(
          static_cast<double>(c1 > popped ? c1 - popped : 0) / 1e6);
    }
    ++tally.batches;
    if (static_cast<int>(batch.size()) < config.collator.max_batch) {
      ++tally.short_batches;
    }
    tally.samples += batch.size();

    const SpanScope inference(spans, "inference", SpanKind::kBusy,
                              lead.stream_id, lead.seq);
    observer.set_lead(lead.stream_id, lead.seq);
    {
      const SpanScope span(spans, "inference.adapt", SpanKind::kBusy,
                           lead.stream_id, lead.seq);
      frames.clear();
      for (const ev::ReadyFrame& ready : batch) frames.push_back(ready.frame);
      evedge::core::frames_to_event_steps(frames, event_shape, spec.timesteps,
                                          steps);
    }
    if (config.use_planner &&
        (!plan_ready ||
         (config.recalibrate_on_drift &&
          !plan.density_in_band(steps.front().density(),
                                config.recalibration_band)))) {
      const SpanScope span(spans, "inference.plan", SpanKind::kBusy,
                           lead.stream_id, lead.seq);
      std::vector<es::DenseTensor> probe(steps.size());
      for (std::size_t t = 0; t < steps.size(); ++t) {
        es::copy_sample(steps[t], 0, probe[t]);
      }
      net.set_exec_observer(nullptr);  // calibration probes are not served
      net.set_execution_plan(nullptr);
      plan = en::ExecutionPlanner::calibrate(net, probe, nullptr,
                                             config.planner);
      net.set_execution_plan(&plan);
      net.set_exec_observer(&observer);
      plan_ready = true;
    }
    {
      const SpanScope span(spans, "engine.run", SpanKind::kBusy,
                           lead.stream_id, lead.seq);
      (void)net.run_batched(steps);
    }
    add_exec(tally.exec, net.last_exec_stats());
    tally.dense_equivalent_macs += dense_macs_per_sample * batch.size();
  }
  tally.nodes = observer.rows();
  spans.mark_end();
}

}  // namespace

TracedRun run_traced(const en::NetworkSpec& spec, const TimedInput& input) {
  const Workload& w = input.workload;
  if (spec.graph.input_ids().size() != 1) {
    throw std::invalid_argument("traced run: single-input networks only");
  }
  TracedRun run;
  const ev::ServeConfig config = serve_config(w);
  const en::FunctionalNetwork prototype(spec, kWeightSeed);
  (void)evedge::obs::trace_epoch();
  const int previous_threads =
      evedge::core::set_parallel_threads(config.kernel_threads);
  ErrorSlot errors;

  for (int rep = 0; rep < w.reps && errors.get().empty(); ++rep) {
    const std::vector<ee::EventStream> streams = input.rep(rep);
    ev::FrameQueue queue(config.queue_capacity, config.overflow);
    std::vector<IngressTally> ingress_tallies(streams.size());
    std::vector<WorkerTally> worker_tallies(
        static_cast<std::size_t>(config.n_workers));
    // Every buffer exists before the clock starts.
    std::vector<ThreadSpans*> ingress_spans;
    std::vector<ThreadSpans*> worker_spans;
    for (std::size_t s = 0; s < streams.size(); ++s) {
      ingress_spans.push_back(&run.recorder.add_thread(
          "ingress", w.wire ? kSpansPerWireThread : kSpansPerThread));
    }
    for (int i = 0; i < config.n_workers; ++i) {
      worker_spans.push_back(
          &run.recorder.add_thread("worker", kSpansPerThread));
    }
    std::optional<WireLinks> links;
    if (w.wire) links.emplace(streams);

    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> workers;
      for (int i = 0; i < config.n_workers; ++i) {
        const auto wi = static_cast<std::size_t>(i);
        workers.emplace_back([&, wi] {
          guarded(errors, queue, [&] {
            worker(prototype, config.worker, queue, *worker_spans[wi],
                   worker_tallies[wi]);
          });
        });
      }
      {
        std::vector<std::jthread> ingresses;
        for (std::size_t s = 0; s < streams.size(); ++s) {
          ingresses.emplace_back([&, s] {
            guarded(errors, queue, [&] {
              // Stream ids run on across reps, so every (stream, seq)
              // names one frame of the whole trace.
              const int id = rep * static_cast<int>(streams.size()) +
                             static_cast<int>(s);
              if (links.has_value()) {
                wire_ingress(links->listener(s), id, config.ingress, queue,
                             *ingress_spans[s], ingress_tallies[s]);
              } else {
                stream_ingress(streams[s], id, config.ingress, queue,
                               *ingress_spans[s], ingress_tallies[s]);
              }
            });
          });
        }
        if (links.has_value()) links->start();
      }  // joins the ingress threads
      queue.close();
    }  // joins the workers
    const auto t1 = Clock::now();
    if (links.has_value()) links->join();

    std::size_t completed = 0;
    for (WorkerTally& t : worker_tallies) {
      completed += t.samples;
      run.queue_wait_ms.insert(run.queue_wait_ms.end(),
                               t.queue_wait_ms.begin(), t.queue_wait_ms.end());
      run.collate_wait_ms.insert(run.collate_wait_ms.end(),
                                 t.collate_wait_ms.begin(),
                                 t.collate_wait_ms.end());
      run.batches += t.batches;
      run.short_batches += t.short_batches;
      run.samples += t.samples;
      add_exec(run.exec, t.exec);
      run.dense_equivalent_macs += t.dense_equivalent_macs;
      add_rows(run.nodes, t.nodes);
    }
    for (const IngressTally& t : ingress_tallies) {
      run.frames_enqueued += t.enqueued;
      run.events_converted += t.events;
      run.dsfa_frames_in += t.dsfa.frames_in;
      run.dsfa_buckets += t.dsfa.buckets_dispatched;
      run.dsfa_discarded += t.dsfa.frames_discarded;
      run.transport_bytes += t.transport_bytes;
    }
    run.frames_completed += completed;
    run.queue_peak_depth = std::max(run.queue_peak_depth, queue.peak_depth());
    const double wall_s = std::chrono::duration<double>(t1 - t0).count();
    run.rep_fps.push_back(wall_s > 0.0 ? static_cast<double>(completed) / wall_s
                                       : 0.0);
  }
  evedge::core::set_parallel_threads(previous_threads);
  run.error = errors.get();
  return run;
}

}  // namespace perfbench
