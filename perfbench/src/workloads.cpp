#include "workloads.hpp"

#include <chrono>
#include <cstring>
#include <ctime>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/resource.h>

#include "core/parallel.hpp"
#include "events/density_profile.hpp"
#include "events/event_synth.hpp"

namespace perfbench {

namespace ee = evedge::events;
namespace en = evedge::nn;
namespace ev = evedge::serve;
namespace ew = evedge::wire;

const std::vector<Workload>& workloads() {
  // Why each exists (see README.md): the paced DOTIE rig is latency
  // under a fixed offered load below capacity, where queue, collator,
  // workers, obs and ingress dominate; saturated Adaptive-SpikeNet is
  // engine-bound (kernels, tiled chains, the kernel thread pool) and
  // bypasses everything else; the DOTIE wire pair is the only workload
  // through wire/ and WireStreamIngress.
  static const std::vector<Workload> kWorkloads = {
      {"dotie-paced-4cam", en::NetworkId::kDotie, 4, 1.0, 2, 1, true, false,
       150.0, 6},
      {"spikenet-davis-sat", en::NetworkId::kAdaptiveSpikeNet, 2, 0.0, 2, 2,
       false, false, 24.0, 6},
      {"dotie-wire-2link", en::NetworkId::kDotie, 2, 0.0, 2, 1, false, true,
       240.0, 6},
  };
  return kWorkloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

en::ZooConfig zoo_config() { return en::ZooConfig{256, 352, 16, 5, 2.0f}; }

ev::ServeConfig serve_config(const Workload& w) {
  ev::ServeConfig config;
  config.n_workers = w.workers;
  config.kernel_threads = w.kernel_threads;
  config.overflow = ev::OverflowPolicy::kBlock;
  config.worker.collator.max_batch = 8;
  config.worker.collator.max_wait_us = 3000;
  config.ingress.pace_speedup = w.pace_speedup;
  config.obs.metrics = w.obs_metrics;
  return config;
}

ee::EventStream make_stream(ee::TimeUs duration_us, std::uint64_t seed) {
  const en::ZooConfig zoo = zoo_config();
  ee::SynthConfig cfg;
  cfg.geometry = ee::SensorGeometry{zoo.width, zoo.height};
  cfg.seed = seed;
  cfg.blob_count = 4;
  cfg.background_weight = 0.3;
  const ee::DensityProfile profile("serve-band", 3.2, {}, 1.2, 0.5);
  return ee::PoissonEventSynthesizer(profile, cfg).generate(0, duration_us);
}

std::vector<ee::EventStream> make_streams(const Workload& w,
                                          ee::TimeUs duration_us,
                                          std::uint64_t seed,
                                          std::uint64_t salt) {
  std::vector<ee::EventStream> streams;
  streams.reserve(static_cast<std::size_t>(w.streams));
  for (int s = 0; s < w.streams; ++s) {
    streams.push_back(make_stream(
        duration_us, seed * 1000 + salt * 16 + static_cast<std::uint64_t>(s)));
  }
  return streams;
}

ee::TimeUs timed_span_us(const Workload& w, double seconds) {
  const double sensor_s =
      w.pace_speedup > 0.0
          ? seconds * w.pace_speedup / w.reps
          : seconds * w.sized_fps /
                (w.reps * w.streams * kMergedFramesPerSensorSecond);
  return static_cast<ee::TimeUs>(sensor_s * 1e6);
}

WireLinks::WireLinks(std::span<const ee::EventStream> streams)
    : stats_(streams.size()), cpu_s_(streams.size(), 0.0) {
  using namespace std::chrono_literals;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    listeners_.push_back(std::make_unique<ew::TcpListener>());
    ew::WireSenderConfig cfg;
    cfg.session_id = static_cast<std::uint32_t>(s + 1);
    const std::uint16_t port = listeners_.back()->port();
    senders_.push_back(std::make_unique<ew::WireSender>(
        streams[s], cfg, [port]() -> std::unique_ptr<ew::Transport> {
          return ew::TcpTransport::connect(port, 2000ms);
        }));
  }
}

WireLinks::~WireLinks() {
  for (auto& listener : listeners_) listener->close();
  join();
}

void WireLinks::start() {
  for (std::size_t s = 0; s < senders_.size(); ++s) {
    threads_.emplace_back([this, s] {
      const double cpu0 = thread_cpu_s();
      stats_[s] = senders_[s]->run();
      cpu_s_[s] = thread_cpu_s() - cpu0;
    });
  }
}

void WireLinks::join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

double WireLinks::cpu_s() const noexcept {
  double total = 0.0;
  for (const double c : cpu_s_) total += c;
  return total;
}

ev::ServeReport serve_once(ev::ServingRuntime& runtime, const Workload& w,
                           std::span<const ee::EventStream> streams,
                           SenderTally* senders) {
  if (!w.wire) return runtime.run(streams);
  WireLinks links(streams);
  std::vector<ev::TransportAcceptor> acceptors;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    ew::TcpListener* listener = &links.listener(s);
    acceptors.push_back([listener](std::chrono::milliseconds timeout) {
      return listener->accept(timeout);
    });
  }
  links.start();
  ev::ServeReport report = runtime.run_wire(acceptors);
  links.join();
  if (senders != nullptr) *senders = SenderTally{links.stats(), links.cpu_s()};
  return report;
}

namespace {

[[nodiscard]] bool bitwise_equal(const evedge::sparse::DenseTensor& a,
                                 const evedge::sparse::DenseTensor& b) {
  return a.shape() == b.shape() && a.size() == b.size() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

}  // namespace

Verification verify(const Workload& w, const en::NetworkSpec& spec,
                    std::span<const ee::EventStream> streams) {
  ev::ServeConfig config = serve_config(w);
  config.capture_outputs = true;
  ev::ServingRuntime runtime(spec, kWeightSeed, config);

  std::vector<std::vector<evedge::sparse::SparseFrame>> frames;
  Verification v;
  for (const ee::EventStream& stream : streams) {
    frames.push_back(ev::ServingRuntime::ingest(stream, config.ingress));
    v.frames += frames.back().size();
  }
  const ev::ServeReport report = serve_once(runtime, w, streams);
  v.accounting_ok = report.accounting_ok();

  const int previous = evedge::core::set_parallel_threads(w.kernel_threads);
  const ev::ServingRuntime::SerialResult serial =
      runtime.run_serial(frames, config.worker.use_planner);
  evedge::core::set_parallel_threads(previous);

  for (std::size_t s = 0; s < frames.size(); ++s) {
    for (std::size_t i = 0; i < frames[s].size(); ++i) {
      const evedge::sparse::DenseTensor* served = runtime.output(
          static_cast<int>(s), static_cast<std::int64_t>(i));
      if (served == nullptr) {
        ++v.lost;
      } else if (!bitwise_equal(*served, serial.outputs[s][i])) {
        ++v.mismatches;
      }
    }
  }
  return v;
}

namespace {

[[nodiscard]] double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

}  // namespace perfbench
