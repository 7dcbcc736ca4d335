// Concurrent serving benchmark: aggregate throughput and tail latency of
// the multi-stream serving runtime (cross-stream micro-batching, planner
// routing, worker pool) against per-stream serial execution of the SAME
// merged frames at 1/4/8/16 streams, in the paper's 0.5-5% event-density
// band. Both sides spend the same worker budget W:
//
//   serial_dense    per-stream serial batch-1, all-dense kernels, the
//                   W threads spent INSIDE the kernels (fork-join per
//                   layer) — the repo's pre-serving status quo.
//   serial_planned  the same serial loop with the density-adaptive
//                   planner on (the strongest serial baseline).
//   serve           the serving runtime: W single-threaded workers
//                   coalescing frames across streams into batched
//                   planner-routed run_batched calls.
//
// speedup_serve (gated in CI) is serve vs serial_dense; speedup_planned
// (serve vs serial_planned) isolates what concurrency + micro-batching
// add on top of the PR-4 planner. Doubles as the serving parity smoke
// test: every (stream, seq) output must be bitwise identical to the
// serial per-stream result (drop policy disabled) — exits non-zero
// otherwise. Results go to BENCH_serve.json.
//
// Usage: bench_serve [output.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "events/density_profile.hpp"
#include "events/event_synth.hpp"
#include "nn/zoo.hpp"
#include "serve/serving_runtime.hpp"
#include "sparse/tensor.hpp"

namespace ee = evedge::events;
namespace en = evedge::nn;
namespace es = evedge::sparse;
namespace ev = evedge::serve;
namespace eb = evedge::bench;

namespace {

/// Worker budget both sides spend (recorded as "threads" in the JSON;
/// constant so the regression gate compares like with like anywhere).
constexpr int kWorkers = 2;

struct Result {
  std::string network;
  int streams = 0;
  std::size_t frames = 0;
  double density = 0.0;        ///< mean merged-frame spatial density
  double serial_dense_fps = 0.0;
  double serial_planned_fps = 0.0;
  double serve_fps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
  double max_abs_diff = 0.0;   ///< serve vs serial per-stream (must be 0)

  [[nodiscard]] double speedup_serve() const {
    return serial_dense_fps > 0.0 ? serve_fps / serial_dense_fps : 0.0;
  }
  [[nodiscard]] double speedup_planned() const {
    return serial_planned_fps > 0.0 ? serve_fps / serial_planned_fps : 0.0;
  }
};

/// Paced closed-loop run: ingress replays each stream at
/// IngressConfig::pace_speedup x real time (sensor-faithful arrival
/// spacing) instead of open-loop saturation, so the steady-state
/// completion latency measures service time + queueing under the
/// OFFERED load, not under backpressure. ontime_ratio is the fraction
/// of frames completing within kPacedDeadlineMs of admission — the
/// closed-loop SLO metric the regression gate tracks.
constexpr double kPaceSpeedup = 2.0;
constexpr double kPacedDeadlineMs = 50.0;

struct PacedResult {
  std::string network;
  int streams = 0;
  std::size_t frames = 0;
  double serve_fps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double ontime_ratio = 0.0;
  double wall_ms = 0.0;
  double target_ms = 0.0;  ///< stream span / pace_speedup (ideal wall)
};

/// Stream at network-input geometry whose E2SF/DSFA output lands in the
/// paper's 0.5-5% merged-frame density band (rate tuned empirically for
/// the 30 Hz clock and default DSFA merge depth).
[[nodiscard]] ee::EventStream make_stream(int h, int w, ee::TimeUs duration,
                                          std::uint64_t seed) {
  ee::SynthConfig cfg;
  cfg.geometry = ee::SensorGeometry{w, h};
  cfg.seed = seed;
  cfg.blob_count = 4;
  cfg.background_weight = 0.3;
  const ee::DensityProfile profile("serve-band", 3.2, {}, 1.2, 0.5);
  return ee::PoissonEventSynthesizer(profile, cfg).generate(0, duration);
}

[[nodiscard]] eb::BenchRecord to_record(const Result& r) {
  return {{eb::jstr("network", r.network), eb::jint("streams", r.streams)},
          {eb::jnum("speedup_serve", r.speedup_serve(), "%.2f")},
          {eb::jint("frames", static_cast<long long>(r.frames)),
           eb::jnum("density", r.density),
           eb::jnum("serial_dense_fps", r.serial_dense_fps, "%.2f"),
           eb::jnum("serial_planned_fps", r.serial_planned_fps, "%.2f"),
           eb::jnum("serve_fps", r.serve_fps, "%.2f"),
           eb::jnum("speedup_planned", r.speedup_planned(), "%.2f"),
           eb::jnum("p50_ms", r.p50_ms, "%.2f"),
           eb::jnum("p95_ms", r.p95_ms, "%.2f"),
           eb::jnum("p99_ms", r.p99_ms, "%.2f"),
           eb::jnum("mean_batch", r.mean_batch, "%.2f"),
           eb::jnum("max_abs_diff", r.max_abs_diff, "%.3g")}};
}

[[nodiscard]] eb::BenchRecord to_record(const PacedResult& r) {
  return {{eb::jstr("mode", "paced"), eb::jstr("network", r.network),
           eb::jint("streams", r.streams)},
          {eb::jnum("ontime_ratio", r.ontime_ratio)},
          {eb::jint("frames", static_cast<long long>(r.frames)),
           eb::jnum("pace_speedup", kPaceSpeedup, "%.1f"),
           eb::jnum("deadline_ms", kPacedDeadlineMs, "%.1f"),
           eb::jnum("serve_fps", r.serve_fps, "%.2f"),
           eb::jnum("p50_ms", r.p50_ms, "%.2f"),
           eb::jnum("p99_ms", r.p99_ms, "%.2f"),
           eb::jnum("wall_ms", r.wall_ms, "%.1f"),
           eb::jnum("target_ms", r.target_ms, "%.1f")}};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  // Mid scale in the paper's spiking band (see bench_sparse_engine):
  // large enough that the planner's sparse routes engage, small enough
  // for a bounded CI run at 16 streams.
  const en::ZooConfig scale{96, 128, 16, 5, 2.0f};
  const en::NetworkId nets[] = {en::NetworkId::kDotie,
                                en::NetworkId::kAdaptiveSpikeNet};
  const int stream_counts[] = {1, 4, 8, 16};
  constexpr ee::TimeUs kDuration = 250'000;  // ~7 merged frames per stream

  std::printf("serving runtime benchmark (worker budget %d)\n", kWorkers);
  std::printf("%-18s %7s %7s %8s %9s %9s %9s %8s %8s %7s %7s %12s\n",
              "network", "streams", "frames", "density", "dense_fps",
              "plan_fps", "serve_fps", "speedup", "vs_plan", "p95_ms",
              "batch", "max_abs_diff");

  std::vector<Result> results;
  bool parity_ok = true;
  for (const en::NetworkId id : nets) {
    const en::NetworkSpec spec = en::build_network(id, scale);
    const auto shape =
        spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;

    ev::ServeConfig config;
    config.n_workers = kWorkers;
    config.kernel_threads = 1;  // budget goes to stream-level workers
    config.queue_capacity = 64;
    config.overflow = ev::OverflowPolicy::kBlock;  // lossless: parity run
    config.worker.collator.max_batch = 8;
    config.worker.collator.max_wait_us = 3000;
    // Timed runtime serves without output capture (the capture copy is
    // accounting, not serving work); the parity runtime re-serves the
    // same streams capturing every output for the bitwise check. Both
    // share the weight seed, so their networks are identical.
    ev::ServingRuntime runtime(spec, 7, config);
    config.capture_outputs = true;
    ev::ServingRuntime parity_runtime(spec, 7, config);

    for (const int n_streams : stream_counts) {
      std::vector<ee::EventStream> streams;
      std::vector<std::vector<es::SparseFrame>> frames;
      Result r;
      r.network = spec.name;
      r.streams = n_streams;
      for (int s = 0; s < n_streams; ++s) {
        streams.push_back(make_stream(
            shape.h, shape.w, kDuration,
            100 + static_cast<std::uint64_t>(s)));
        frames.push_back(
            ev::ServingRuntime::ingest(streams.back(), config.ingress));
        r.frames += frames.back().size();
        for (const es::SparseFrame& frame : frames.back()) {
          r.density += frame.density();
        }
      }
      r.density /= static_cast<double>(r.frames);

      // Per-stream serial baselines at the same thread budget: the W
      // threads go INTO the kernels here, into the worker pool below.
      const int prev = evedge::core::set_parallel_threads(kWorkers);
      const auto serial_dense = runtime.run_serial(frames, false);
      const auto serial_planned = runtime.run_serial(frames, true);
      evedge::core::set_parallel_threads(prev);
      r.serial_dense_fps = serial_dense.frames_per_second();
      r.serial_planned_fps = serial_planned.frames_per_second();

      const ev::ServeReport report = runtime.run(streams);
      r.serve_fps = report.frames_per_second();
      r.p50_ms = report.percentile_us(0.50) / 1e3;
      r.p95_ms = report.percentile_us(0.95) / 1e3;
      r.p99_ms = report.percentile_us(0.99) / 1e3;
      r.mean_batch = report.mean_batch();

      // Parity: every (stream, seq) must bit-match the serial result.
      const ev::ServeReport parity_report = parity_runtime.run(streams);
      for (std::size_t s = 0; s < frames.size(); ++s) {
        for (std::size_t i = 0; i < frames[s].size(); ++i) {
          const es::DenseTensor* served = parity_runtime.output(
              static_cast<int>(s), static_cast<std::int64_t>(i));
          if (served == nullptr) {
            r.max_abs_diff = 1e30;  // lost frame under the block policy
            continue;
          }
          r.max_abs_diff = std::max(
              r.max_abs_diff,
              static_cast<double>(es::max_abs_diff(
                  *served, serial_planned.outputs[s][i])));
        }
      }
      if (r.max_abs_diff != 0.0 || report.frames_completed != r.frames ||
          parity_report.frames_completed != r.frames) {
        parity_ok = false;
      }

      std::printf(
          "%-18s %7d %7zu %8.4f %9.1f %9.1f %9.1f %7.2fx %7.2fx %7.1f "
          "%7.2f %12.3g\n",
          r.network.c_str(), r.streams, r.frames, r.density,
          r.serial_dense_fps, r.serial_planned_fps, r.serve_fps,
          r.speedup_serve(), r.speedup_planned(), r.p95_ms, r.mean_batch,
          r.max_abs_diff);
      std::fflush(stdout);
      results.push_back(std::move(r));
    }
  }

  // Paced closed-loop runs: the same serving stack, but ingress honors
  // IngressConfig::pace_speedup — frames arrive on the sensor clock
  // compressed kPaceSpeedup x, and the steady-state question becomes
  // "does every frame complete within the wall deadline", not "how
  // fast can the pipeline drain". Gated via ontime_ratio.
  std::vector<PacedResult> paced;
  std::printf("\npaced closed-loop (pace %.0fx, deadline %.0f ms)\n",
              kPaceSpeedup, kPacedDeadlineMs);
  std::printf("%-18s %7s %7s %9s %7s %7s %8s %8s %9s\n", "network",
              "streams", "frames", "serve_fps", "p50_ms", "p99_ms",
              "ontime", "wall_ms", "target_ms");
  // Only the fast network: a net whose single-frame service time
  // already exceeds the deadline pins ontime_ratio at 0.0 — a baseline
  // that gates nothing. Throughput coverage for the heavy nets lives in
  // the speedup_serve records above.
  for (const en::NetworkId id : {en::NetworkId::kDotie}) {
    const en::NetworkSpec spec = en::build_network(id, scale);
    const auto shape =
        spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;

    ev::ServeConfig config;
    config.n_workers = kWorkers;
    config.kernel_threads = 1;
    config.queue_capacity = 64;
    config.overflow = ev::OverflowPolicy::kBlock;
    config.worker.collator.max_batch = 8;
    // Paced arrivals are sparse in time: don't hold a lane open waiting
    // for cross-stream companions much longer than the service time.
    config.worker.collator.max_wait_us = 3000;
    config.ingress.pace_speedup = kPaceSpeedup;
    ev::ServingRuntime runtime(spec, 7, config);

    for (const int n_streams : {4, 8}) {
      std::vector<ee::EventStream> streams;
      PacedResult r;
      r.network = spec.name;
      r.streams = n_streams;
      for (int s = 0; s < n_streams; ++s) {
        streams.push_back(make_stream(shape.h, shape.w, kDuration,
                                      100 + static_cast<std::uint64_t>(s)));
      }
      const ev::ServeReport report = runtime.run(streams);
      r.frames = report.frames_completed;
      r.serve_fps = report.frames_per_second();
      r.p50_ms = report.percentile_us(0.50) / 1e3;
      r.p99_ms = report.percentile_us(0.99) / 1e3;
      r.ontime_ratio = report.fraction_below_us(kPacedDeadlineMs * 1e3);
      r.wall_ms = report.wall_ms;
      r.target_ms =
          static_cast<double>(kDuration) / 1e3 / kPaceSpeedup;
      if (!report.accounting_ok()) parity_ok = false;
      std::printf("%-18s %7d %7zu %9.1f %7.2f %7.2f %8.4f %8.1f %9.1f\n",
                  r.network.c_str(), r.streams, r.frames, r.serve_fps,
                  r.p50_ms, r.p99_ms, r.ontime_ratio, r.wall_ms,
                  r.target_ms);
      std::fflush(stdout);
      paced.push_back(std::move(r));
    }
  }

  std::vector<eb::BenchRecord> records;
  for (const Result& r : results) records.push_back(to_record(r));
  for (const PacedResult& r : paced) records.push_back(to_record(r));
  const bool wrote = eb::write_bench_json(
      out_path, kWorkers,
      {eb::jstr("scale", "96x128 base16, lif_threshold_scale=2, worker "
                         "budget " + std::to_string(kWorkers) +
                         ", collator batch 8")},
      records);
  if (!parity_ok) {
    std::fprintf(stderr,
                 "parity failure: serving output diverged from per-stream "
                 "serial execution (see table)\n");
    return 1;
  }
  return wrote ? 0 : 1;
}
