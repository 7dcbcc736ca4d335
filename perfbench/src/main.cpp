// evbench: the attributed serving benchmark. One workload per call:
//
//   evbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--trace-out <trace.json>]
//
// Every call synthesizes its streams from the seed, sets up the serving
// runtime kSetups times (construction + one discarded warm-up run; the
// median CPU time is setup_s), runs the untimed bitwise verification pass, then
// serves the timed reps through ServingRuntime. --trace 1 adds the
// traced run (traced.hpp) and reports the per-layer metrics instead of
// the end-to-end ones. Each metric is printed as "metric <name> =
// <value> <unit>"; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is
// non-zero when any parity, accounting or input check fails.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "hw/platform.hpp"
#include "obs/profile.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace ee = evedge::events;
namespace en = evedge::nn;
namespace ev = evedge::serve;
namespace ew = evedge::wire;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

[[nodiscard]] std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  if (argc % 2 == 0) return std::nullopt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value);
      } else if (key == "--trace-out") {
        args.trace_out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || !(args.seconds > 0.0 && args.seconds <= 60.0) ||
      (args.trace != 0 && args.trace != 1)) {
    return std::nullopt;
  }
  return args;
}

/// Metrics in print order. Rows outside the JSON set are printed as
/// "info" lines only.
class Metrics {
 public:
  void add(std::string name, double value, std::string unit,
           bool in_json = true) {
    rows_.push_back(Row{std::move(name), value, std::move(unit), in_json});
  }

  void print_lines() const {
    for (const Row& r : rows_) {
      std::printf("%-6s %-36s = %.6g %s\n", r.in_json ? "metric" : "info",
                  r.name.c_str(), r.value, r.unit.c_str());
    }
  }

  void print_json(bool correct, std::size_t attempted,
                  std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    const char* sep = "";
    for (const Row& r : rows_) {
      if (!r.in_json) continue;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  r.name.c_str(), r.value, r.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    bool in_json;
  };
  std::vector<Row> rows_;
};

/// Correctness bookkeeping: every check is printed; one failure flips
/// the result and the exit code.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    std::printf("check  %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    ok_ = ok_ && ok;
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

 private:
  bool ok_ = true;
};

/// Span names the traced run records; node spans carry the network's
/// layer names and are summed as engine.nodes.
const std::vector<std::string>& span_layers() {
  static const std::vector<std::string> kLayers = {
      "ingress.e2sf",   "ingress.dsfa",    "ingress.validate",
      "ingress.pace",   "queue.push",      "collate",
      "inference",      "inference.adapt", "inference.plan",
      "engine.run",     "engine.nodes",    "wire.accept",
      "wire.serve",     "wire.linger",     "transport.recv"};
  return kLayers;
}

[[nodiscard]] std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool keep = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                      c == '_' || c == '.' || c == '-';
    out.push_back(keep ? c : '_');
  }
  return out;
}

/// Weight layers of every workload's network, in workload order: the
/// node metrics every traced run reports (0 where the workload's
/// network has no such layer).
[[nodiscard]] std::vector<std::string> node_metric_layers() {
  std::vector<std::string> names;
  std::set<std::string> seen;
  for (const Workload& w : workloads()) {
    const en::NetworkSpec spec = en::build_network(w.network, zoo_config());
    for (const en::LayerNode& node : spec.graph.nodes()) {
      if (!en::is_weight_layer(node.spec.kind)) continue;
      const std::string name = sanitize(node.spec.name);
      if (seen.insert(name).second) names.push_back(name);
    }
  }
  return names;
}

/// The untraced timed window.
struct Served {
  std::vector<ev::ServeReport> reports;
  std::vector<ew::WireSendStats> senders;
  std::vector<double> rep_fps;
  std::vector<double> rep_cpu_ms_per_frame;
  ev::LatencyReservoir latency;
  std::size_t enqueued = 0;
  std::size_t completed = 0;
  std::size_t lost = 0;  ///< dropped + shed + failed
  std::size_t events = 0;
  std::vector<ee::TimeUs> span_us;  ///< per rep, longest stream
};

[[nodiscard]] Served serve_timed(ev::ServingRuntime& runtime,
                                 const TimedInput& input) {
  const Workload& w = input.workload;
  Served served;
  for (int rep = 0; rep < w.reps; ++rep) {
    const std::vector<ee::EventStream> streams = input.rep(rep);
    ee::TimeUs span_us = 0;
    for (const ee::EventStream& s : streams) {
      served.events += s.events().size();
      span_us = std::max(span_us, s.t_end() - s.t_begin());
    }
    served.span_us.push_back(span_us);
    SenderTally senders;
    const double cpu0 = process_cpu_s();
    ev::ServeReport report = serve_once(runtime, w, streams, &senders);
    const double cpu_ms = (process_cpu_s() - cpu0 - senders.cpu_s) * 1e3;
    served.rep_fps.push_back(report.frames_per_second());
    served.rep_cpu_ms_per_frame.push_back(
        report.frames_completed > 0
            ? cpu_ms / static_cast<double>(report.frames_completed)
            : 0.0);
    for (const ev::StreamServeStats& s : report.streams) {
      served.latency.merge(s.latency);
      served.enqueued += s.enqueued;
      served.completed += s.completed;
      served.lost += s.dropped + s.shed + s.failed;
    }
    served.senders.insert(served.senders.end(), senders.stats.begin(),
                          senders.stats.end());
    served.reports.push_back(std::move(report));
  }
  return served;
}

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

[[nodiscard]] double ms_of(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Per-layer metrics of the traced run (plus the untraced program
/// counters the layers own: worker supervision, wire sessions).
void add_layer_metrics(const en::NetworkSpec& spec, const Served& served,
                       const TracedRun& traced, Metrics& m, Checks& checks) {
  const std::vector<LayerTotals> totals = traced.recorder.layer_totals();
  const auto layer = [&](const std::string& name) {
    LayerTotals sum{name};
    for (const LayerTotals& t : totals) {
      const bool named = std::find(span_layers().begin(), span_layers().end(),
                                   t.name) != span_layers().end();
      if (t.name == name || (name == "engine.nodes" && !named)) {
        sum.count += t.count;
        sum.total_ns += t.total_ns;
        sum.self_ns += t.self_ns;
      }
    }
    return sum;
  };
  std::uint64_t thread_ns = 0;
  std::uint64_t worker_ns = 0;
  double coverage = 1.0;
  for (const auto& thread : traced.recorder.threads()) {
    const std::uint64_t life = thread->end_ns() - thread->begin_ns();
    thread_ns += life;
    if (thread->role() == "worker") worker_ns += life;
    coverage = std::min(coverage, thread->coverage());
  }
  std::uint64_t busy_ns = 0;
  for (const LayerTotals& t : totals) {
    if (t.kind == SpanKind::kBusy) busy_ns += t.self_ns;
  }

  checks.expect(traced.error.empty(),
                "traced run finished cleanly" +
                    (traced.error.empty() ? std::string()
                                          : " (" + traced.error + ")"));
  checks.expect(traced.frames_completed == traced.frames_enqueued &&
                    traced.frames_enqueued == served.enqueued,
                "traced run served the frames the untraced run served");
  checks.expect(traced.recorder.dropped() == 0, "no span dropped");
  checks.expect(tiles(coverage),
                "spans cover every traced thread's life within 5%");

  const LayerTotals e2sf = layer("ingress.e2sf");
  const LayerTotals dsfa = layer("ingress.dsfa");
  m.add("e2sf.busy_ms", ms_of(e2sf.self_ns), "ms");
  m.add("e2sf.ns_per_event",
        ratio(static_cast<double>(e2sf.self_ns),
              static_cast<double>(traced.events_converted)),
        "ns/event");
  m.add("dsfa.busy_ms", ms_of(dsfa.self_ns), "ms");
  m.add("dsfa.merge_factor",
        ratio(static_cast<double>(traced.dsfa_frames_in),
              static_cast<double>(traced.dsfa_buckets)),
        "frames/bucket");
  m.add("dsfa.discarded", static_cast<double>(traced.dsfa_discarded), "count");

  std::vector<double> queue_wait = traced.queue_wait_ms;
  std::sort(queue_wait.begin(), queue_wait.end());
  const TailPercentile queue_tail = tail_percentile(queue_wait);
  std::vector<double> collate_wait = traced.collate_wait_ms;
  std::sort(collate_wait.begin(), collate_wait.end());
  m.add("queue.wait_p50_ms", quantile_sorted(queue_wait, 0.5), "ms");
  m.add("queue.wait_tail_ms", queue_tail.value, "ms");
  m.add("queue.wait_tail_q", queue_tail.q, "quantile", false);
  m.add("queue.push_block_ms", ms_of(layer("queue.push").total_ns), "ms");
  m.add("queue.peak_depth", static_cast<double>(traced.queue_peak_depth),
        "count");
  m.add("collate.wait_p50_ms", quantile_sorted(collate_wait, 0.5), "ms");
  m.add("collate.batch_mean",
        ratio(static_cast<double>(traced.samples),
              static_cast<double>(traced.batches)),
        "frames/batch");
  m.add("collate.deadline_close_ratio",
        ratio(static_cast<double>(traced.short_batches),
              static_cast<double>(traced.batches)),
        "ratio");

  const LayerTotals inference = layer("inference");
  const LayerTotals engine = layer("engine.run");
  std::size_t calibrations = 0;
  std::size_t recalibrations = 0;
  std::size_t failures = 0;
  for (const ev::ServeReport& r : served.reports) {
    for (const ev::WorkerServeStats& ws : r.workers) {
      calibrations += ws.calibrations;
      recalibrations += ws.recalibrations;
      failures += ws.failures;
    }
  }
  m.add("worker.busy_ratio",
        ratio(static_cast<double>(inference.total_ns),
              static_cast<double>(worker_ns)),
        "ratio");
  m.add("worker.calibrations", static_cast<double>(calibrations), "count");
  m.add("worker.recalibrations", static_cast<double>(recalibrations),
        "count");
  m.add("worker.failures", static_cast<double>(failures), "count");
  m.add("engine.ms_per_sample",
        ratio(ms_of(engine.total_ns), static_cast<double>(traced.samples)),
        "ms");
  m.add("engine.gmac_per_s",
        ratio(static_cast<double>(traced.dense_equivalent_macs) / 1e9,
              static_cast<double>(engine.total_ns) / 1e9),
        "GMAC/s");
  m.add("engine.sparse_macs", static_cast<double>(traced.exec.sparse_macs),
        "count");
  m.add("engine.dense_macs_avoided",
        static_cast<double>(traced.exec.dense_macs_avoided), "count");
  m.add("engine.boundaries",
        static_cast<double>(traced.exec.sparsify_boundaries +
                            traced.exec.densify_boundaries),
        "count");
  // nn/ owns both the executor and the planner whose calibration
  // probes run the network; batch adaptation and bookkeeping are the
  // worker's own.
  m.add("engine.share_of_worker_busy",
        ratio(static_cast<double>(engine.total_ns +
                                  layer("inference.plan").total_ns),
              static_cast<double>(inference.total_ns)),
        "ratio");

  // Measured per-sample node time against the hw/ analytic model.
  const evedge::obs::ProfileCrossCheckReport cross =
      evedge::obs::cross_check_profiles(spec, traced.nodes,
                                        evedge::hw::xavier_agx(),
                                        traced.samples);
  std::map<std::string, const evedge::obs::ProfileCrossCheckRow*> rows;
  for (const auto& row : cross.rows) rows[sanitize(row.name)] = &row;
  for (const std::string& name : node_metric_layers()) {
    const auto it = rows.find(name);
    const bool have = it != rows.end();
    m.add("node." + name + ".us_per_run", have ? it->second->measured_us : 0.0,
          "us");
    m.add("node." + name + ".model_ratio", have ? it->second->ratio : 0.0,
          "ratio");
  }

  std::size_t packets = 0;
  std::size_t retransmits = 0;
  for (const ew::WireSendStats& s : served.senders) {
    packets += s.data_packets;
    retransmits += s.retransmits;
  }
  std::size_t seen = 0;
  std::size_t duplicates = 0;
  std::size_t rejected = 0;
  for (const ev::ServeReport& r : served.reports) {
    for (const ev::StreamServeStats& s : r.streams) {
      seen += s.wire_packets_seen;
      duplicates += s.duplicate_packets;
      rejected += s.rejected_packets;
    }
  }
  m.add("wire.packets", static_cast<double>(packets), "count");
  m.add("wire.duplicate_ratio",
        ratio(static_cast<double>(duplicates), static_cast<double>(seen)),
        "ratio");
  m.add("wire.retransmits", static_cast<double>(retransmits), "count");
  m.add("wire.rejected", static_cast<double>(rejected), "count");
  m.add("transport.recv_wait_ms", ms_of(layer("transport.recv").total_ns),
        "ms");
  m.add("transport.mb", static_cast<double>(traced.transport_bytes) / 1e6,
        "MB");

  for (const std::string& name : span_layers()) {
    m.add("self_ms." + name, ms_of(layer(name).self_ns), "ms");
  }

  const double untraced_fps = median(served.rep_fps);
  const std::uint64_t ingress_ns = e2sf.self_ns + dsfa.self_ns +
                                   layer("ingress.validate").self_ns +
                                   layer("wire.serve").self_ns;
  m.add("trace.overhead_pct",
        100.0 * ratio(untraced_fps - median(traced.rep_fps), untraced_fps),
        "%");
  m.add("trace.coverage", coverage, "ratio");
  m.add("trace.thread_ms", ms_of(thread_ns), "ms");
  m.add("trace.ingress_share",
        ratio(static_cast<double>(ingress_ns), static_cast<double>(busy_ns)),
        "ratio");
  m.add("trace.spans", static_cast<double>(traced.recorder.span_count()),
        "count");
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: evbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <trace.json>]\n");
    return 2;
  }
  const Workload* found = find_workload(args->workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const Workload& w = *found;

  try {
    const en::NetworkSpec spec = en::build_network(w.network, zoo_config());
    const ev::ServeConfig config = serve_config(w);
    // Inputs first, before any clock starts.
    const TimedInput timed{w, args->seconds, args->seed};
    const std::vector<ee::EventStream> warmup =
        make_streams(w, 300'000, args->seed, 1);
    const std::vector<ee::EventStream> verify_streams =
        make_streams(w, 500'000, args->seed, 2);
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                std::string(w.name).c_str(),
                static_cast<unsigned long long>(args->seed), args->seconds,
                args->trace);

    // Set-up: runtime construction + one discarded warm-up run, timed in
    // CPU seconds of the whole process (wire senders left out): work
    // moved into set-up shows there, and host steal time does not.
    std::vector<double> setups;
    std::unique_ptr<ev::ServingRuntime> runtime;
    // A traced run reports no setup_s, so one set-up serves it.
    const int setups_wanted = args->trace == 1 ? 1 : kSetups;
    for (int i = 0; i < setups_wanted; ++i) {
      const double cpu0 = process_cpu_s();
      runtime = std::make_unique<ev::ServingRuntime>(spec, kWeightSeed,
                                                     config);
      SenderTally senders;
      (void)serve_once(*runtime, w, warmup, &senders);
      setups.push_back(process_cpu_s() - cpu0 - senders.cpu_s);
    }

    Checks checks;
    const Verification v = verify(w, spec, verify_streams);
    checks.expect(v.mismatches == 0 && v.lost == 0,
                  (w.wire ? std::string("wire") : std::string("served")) +
                      " outputs bitwise equal run_serial (" +
                      std::to_string(v.frames) + " frames)");
    checks.expect(v.accounting_ok, "verification pass accounting_ok()");

    const Served served = serve_timed(*runtime, timed);
    const bool paced = w.pace_speedup > 0.0;
    bool accounting = true;
    bool below_capacity = true;
    double density_sum = 0.0;
    std::size_t min_samples = served.latency.count();
    std::vector<double> lags;
    for (std::size_t r = 0; r < served.reports.size(); ++r) {
      const ev::ServeReport& report = served.reports[r];
      accounting = accounting && report.accounting_ok();
      below_capacity =
          below_capacity && report.queue_peak_depth < config.queue_capacity;
      std::size_t samples = 0;
      for (const ev::StreamServeStats& s : report.streams) {
        density_sum += s.mean_frame_density * static_cast<double>(s.enqueued);
        samples += s.latency.count();
      }
      min_samples = std::min(min_samples, samples);
      if (paced) {
        lags.push_back(report.wall_ms - static_cast<double>(served.span_us[r]) /
                                            1e3 / w.pace_speedup);
      }
    }
    const double density =
        ratio(density_sum, static_cast<double>(served.enqueued));
    checks.expect(accounting, "timed runs accounting_ok()");
    checks.expect(served.lost == 0 && served.completed == served.enqueued,
                  "timed runs completed every enqueued frame");
    checks.expect(density >= kDensityLow && density <= kDensityHigh,
                  "merged density inside the paper's 0.5-5% band");
    if (paced) {
      // Latency is stamped at admission: blocking in push would hide
      // from it, so the paced workload must never fill the queue.
      checks.expect(below_capacity, "queue_peak_depth < queue_capacity");
    }
    // One tail percentile for every rep: the highest that has ten
    // samples beyond it in the smallest rep. The reservoirs keep their
    // samples private, so values come from the program's percentile.
    // Latency is admission -> completion. On a saturated workload that
    // is queue residence under backpressure, not a user latency, so
    // only the paced workload reports it (0 elsewhere).
    const double tail_q = paced ? tail_quantile(min_samples) : 0.0;
    std::vector<double> p50s;
    std::vector<double> tails;
    if (paced) {
      checks.expect(tail_q > 0.0, "enough latency samples per rep for a tail");
      for (const ev::ServeReport& report : served.reports) {
        p50s.push_back(report.percentile_us(0.5) / 1e3);
        tails.push_back(report.percentile_us(tail_q) / 1e3);
      }
    }

    const std::size_t attempted = served.enqueued + v.frames;
    const std::size_t failed = served.lost + v.mismatches + v.lost;

    Metrics m;
    const bool trace = args->trace == 1;
    m.add("input.events", static_cast<double>(served.events), "count", trace);
    m.add("input.frames", static_cast<double>(served.enqueued), "count",
          trace);
    m.add("input.merged_density", density, "ratio", trace);
    m.add("slo_ok_ratio",
          paced ? ratio(served.latency.fraction_below_us(kSloMs * 1e3) *
                            static_cast<double>(served.latency.count()),
                        static_cast<double>(served.enqueued))
                : 0.0,
          "ratio", trace);
    m.add("schedule_lag_ms", paced ? median(lags) : 0.0, "ms", trace);
    m.add("failed_ratio",
          ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          "ratio", trace);
    m.add("throughput_fps", median(served.rep_fps), "frames/s", !trace);
    m.add("cpu_ms_per_frame", median(served.rep_cpu_ms_per_frame), "ms",
          !trace);
    // Latency is a per-layer figure here, not an end-to-end one: on a
    // shared 4-core host whose steal time swung between 1% and 28%, the
    // paced p50 of unchanged code moved by up to 30% between runs.
    m.add("latency_p50_ms", median(p50s), "ms", trace);
    m.add("latency_tail_ms", median(tails), "ms", trace);
    m.add("latency_tail_q", tail_q, "quantile", false);
    m.add("latency_samples_per_rep", static_cast<double>(min_samples),
          "count", false);
    m.add("setup_s", median(setups), "s", !trace);

    if (trace) {
      const TracedRun traced = run_traced(spec, timed);
      add_layer_metrics(spec, served, traced, m, checks);
      if (!args->trace_out.empty()) {
        std::string error;
        checks.expect(traced.recorder.write_chrome_trace(args->trace_out,
                                                         &error),
                      "trace written to " + args->trace_out + error);
      }
    }
    m.add("peak_rss_mb", peak_rss_mb(), "MiB", trace);

    const auto print_reps = [](const char* name,
                               const std::vector<double>& values) {
      std::printf("reps   %-22s", name);
      for (const double v : values) std::printf(" %.2f", v);
      std::printf("\n");
    };
    print_reps("throughput_fps", served.rep_fps);
    print_reps("cpu_ms_per_frame", served.rep_cpu_ms_per_frame);
    if (paced) {
      print_reps("latency_p50_ms", p50s);
      print_reps("latency_tail_ms", tails);
    }
    m.print_lines();
    std::fflush(stdout);
    m.print_json(checks.ok(), attempted, failed);
    return checks.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evbench: %s\n", e.what());
    return 1;
  }
}
