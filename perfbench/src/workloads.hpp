#pragma once

// The three named workloads and everything the untimed parts of a run
// need: the serving configuration each one uses, seeded stream
// synthesis, the wire front end (WireSender over TCP loopback into
// run_wire), and the bitwise verification pass.

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "events/event_stream.hpp"
#include "nn/zoo.hpp"
#include "serve/serving_runtime.hpp"
#include "wire/session.hpp"
#include "wire/transport.hpp"

namespace perfbench {

struct Workload {
  std::string_view name;
  evedge::nn::NetworkId network;
  int streams = 1;
  /// IngressConfig::pace_speedup: 1 = sensor rate, 0 = open loop.
  double pace_speedup = 0.0;
  int workers = 2;
  int kernel_threads = 1;
  bool obs_metrics = false;
  bool wire = false;
  /// Completed frames per second this workload ran at when it was
  /// defined (4-core x86 container). It only sizes a saturated
  /// workload's input so that its reps together last about --seconds;
  /// nothing is compared against it.
  double sized_fps = 0.0;
  /// Timed repetitions, each over its own streams; every end-to-end
  /// figure is the median over reps, so a burst of host noise in one
  /// rep does not move it.
  int reps = 6;
};

[[nodiscard]] const std::vector<Workload>& workloads();
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// DAVIS346 zoo geometry: 256x352, base 16, 5 bins, LIF threshold x2.
[[nodiscard]] evedge::nn::ZooConfig zoo_config();

/// Weight seed of every network the benchmark builds (the traced
/// pipeline clones the same weights the runtime serves).
inline constexpr std::uint64_t kWeightSeed = 7;

/// Merged frames per sensor second a synthesized stream yields through
/// E2SF + DSFA at the 30 Hz clock (sizes saturated inputs).
inline constexpr double kMergedFramesPerSensorSecond = 37.5;

/// The paper's merged-frame density band.
inline constexpr double kDensityLow = 0.005;
inline constexpr double kDensityHigh = 0.05;

/// Completion within this many ms of queue admission counts as on time:
/// three intervals of the 30 Hz frame clock.
inline constexpr double kSloMs = 100.0;

[[nodiscard]] evedge::serve::ServeConfig serve_config(const Workload& w);

/// One synthetic stream at the zoo geometry; the same seed gives the
/// same events.
[[nodiscard]] evedge::events::EventStream make_stream(
    evedge::events::TimeUs duration_us, std::uint64_t seed);

/// `w.streams` streams of `duration_us`, seeded from `seed` and `salt`.
[[nodiscard]] std::vector<evedge::events::EventStream> make_streams(
    const Workload& w, evedge::events::TimeUs duration_us, std::uint64_t seed,
    std::uint64_t salt);

/// Sensor span of each timed stream of one rep: the paced workload's
/// reps replay --seconds of sensor time in all; a saturated one gets
/// enough frames for its reps to last about --seconds at sized_fps.
[[nodiscard]] evedge::events::TimeUs timed_span_us(const Workload& w,
                                                   double seconds);

/// The timed input of one run: rep r's streams are synthesized when the
/// rep is about to run (outside its timed window), so only one rep's
/// events are in memory at a time. The same seed and rep give the same
/// events.
struct TimedInput {
  const Workload& workload;
  double seconds = 0.0;
  std::uint64_t seed = 0;

  [[nodiscard]] std::vector<evedge::events::EventStream> rep(int r) const {
    return make_streams(workload, timed_span_us(workload, seconds), seed,
                        static_cast<std::uint64_t>(10 + r));
  }
};

/// The wire load generator: one loopback TcpListener and one WireSender
/// per stream. Packets are encoded at construction, before any clock
/// starts: the sender stands in for the camera, its encoding is not
/// served work. The destructor closes the listeners (so a sender whose
/// receiver died gives up) and joins the sender threads.
class WireLinks {
 public:
  explicit WireLinks(std::span<const evedge::events::EventStream> streams);
  ~WireLinks();
  WireLinks(const WireLinks&) = delete;
  WireLinks& operator=(const WireLinks&) = delete;

  /// Starts one sender thread per stream, each connecting to its
  /// listener and sending until everything is acked.
  void start();
  /// Joins the sender threads; stats() is valid afterwards.
  void join();

  [[nodiscard]] evedge::wire::TcpListener& listener(std::size_t stream) {
    return *listeners_.at(stream);
  }
  [[nodiscard]] const std::vector<evedge::wire::WireSendStats>& stats()
      const noexcept {
    return stats_;
  }
  /// CPU seconds the sender threads used: load generation, which the
  /// served work's CPU figure leaves out. Valid after join().
  [[nodiscard]] double cpu_s() const noexcept;

 private:
  std::vector<std::unique_ptr<evedge::wire::TcpListener>> listeners_;
  std::vector<std::unique_ptr<evedge::wire::WireSender>> senders_;
  std::vector<evedge::wire::WireSendStats> stats_;
  std::vector<double> cpu_s_;
  std::vector<std::thread> threads_;
};

/// Serves `streams` once through the workload's front end: run() for
/// in-process streams; for wire workloads WireLinks into run_wire().
/// The senders' stats and CPU time land in *senders.
struct SenderTally {
  std::vector<evedge::wire::WireSendStats> stats;
  double cpu_s = 0.0;
};
evedge::serve::ServeReport serve_once(
    evedge::serve::ServingRuntime& runtime, const Workload& w,
    std::span<const evedge::events::EventStream> streams,
    SenderTally* senders = nullptr);

/// CPU time of the calling thread, in seconds.
[[nodiscard]] double thread_cpu_s();
/// CPU time of every thread of this process, in seconds. Unlike wall
/// time it leaves out time the host gave to other guests (steal).
[[nodiscard]] double process_cpu_s();

struct Verification {
  std::size_t frames = 0;      ///< frames ingest() produced
  std::size_t mismatches = 0;  ///< served != run_serial, bitwise
  std::size_t lost = 0;        ///< frames with no served output
  bool accounting_ok = true;
};

/// The untimed verification pass: serve `streams` with output capture
/// through the workload's front end and compare every (stream, seq)
/// output bitwise with run_serial over ServingRuntime::ingest frames.
/// For the wire workload this is wire == in-process serial.
[[nodiscard]] Verification verify(const Workload& w,
                                  const evedge::nn::NetworkSpec& spec,
                                  std::span<const evedge::events::EventStream>
                                      streams);

/// Peak resident set of this process in MiB (getrusage); 0 on error.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
