#pragma once

// The traced run: the same layer objects the serving runtime composes
// (E2SF, DSFA, FrameQueue, BatchCollator, a planner-routed
// FunctionalNetwork clone per worker, WireReceiver over TCP), wired
// together by the benchmark's own threads with the same configuration,
// and a span recorded around every public call. Its numbers are the
// per-layer metrics; the end-to-end metrics always come from the
// untraced ServingRuntime run.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "events/event_stream.hpp"
#include "nn/engine.hpp"
#include "obs/profile.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct TracedRun {
  SpanRecorder recorder;
  std::vector<double> rep_fps;  ///< completed frames / rep wall
  std::size_t frames_enqueued = 0;
  std::size_t frames_completed = 0;

  // Ingress.
  std::size_t events_converted = 0;
  std::size_t dsfa_frames_in = 0;
  std::size_t dsfa_buckets = 0;
  std::size_t dsfa_discarded = 0;

  // Queue and collator, per frame: admission -> popped by a collator,
  // and popped -> batch closed.
  std::vector<double> queue_wait_ms;
  std::vector<double> collate_wait_ms;
  std::size_t queue_peak_depth = 0;
  std::size_t batches = 0;
  std::size_t short_batches = 0;  ///< closed below max_batch (deadline / end)
  std::size_t samples = 0;

  // Engine.
  evedge::nn::ExecStats exec{};  ///< summed over every run_batched
  /// The network's dense MACs for every sample served, whatever route
  /// each node took.
  std::uint64_t dense_equivalent_macs = 0;
  std::vector<evedge::obs::NodeRouteProfile> nodes;

  // Wire (receive side).
  std::uint64_t transport_bytes = 0;

  std::string error;  ///< empty when every thread finished cleanly
};

/// Runs one traced repetition per timed rep, on the same inputs the
/// untraced reps served.
[[nodiscard]] TracedRun run_traced(const evedge::nn::NetworkSpec& spec,
                                   const TimedInput& input);

}  // namespace perfbench
