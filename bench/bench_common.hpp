#pragma once

// Shared helpers for the per-figure/table benchmark harnesses: MVSEC-like
// stream construction at DAVIS346 geometry, formatted table printing,
// the network/scale conventions used across experiments (see DESIGN.md
// section 5 for the experiment index), and the one JSON record writer
// of the CI-gated benches.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "events/density_profile.hpp"
#include "events/event_stream.hpp"
#include "events/event_synth.hpp"
#include "nn/zoo.hpp"

namespace evedge::bench {

/// Best-of-N wall time of `fn` in milliseconds (one warm-up call) —
/// the shared timing primitive of the perf harnesses.
template <typename Fn>
[[nodiscard]] double time_best_ms(Fn&& fn, int reps) {
  using Clock = std::chrono::steady_clock;
  fn();  // warm-up
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// Mid-resolution functional scale used for activation-density and
/// accuracy probes in benches (full-scale functional runs are too slow
/// for a single-core harness; node ids match across scales).
[[nodiscard]] inline nn::ZooConfig bench_scale() {
  return nn::ZooConfig{64, 88, 16, 5};
}

/// MVSEC-like stream on the DAVIS346 sensor.
[[nodiscard]] inline events::EventStream make_davis_stream(
    const events::DensityProfile& profile, events::TimeUs duration_us,
    std::uint64_t seed = 42) {
  events::SynthConfig cfg;
  cfg.geometry = events::davis346();
  cfg.seed = seed;
  return events::PoissonEventSynthesizer(profile, cfg)
      .generate(0, duration_us);
}

/// Stream matching a network's input geometry (for functional accuracy).
[[nodiscard]] inline events::EventStream make_matched_stream(
    const nn::NetworkSpec& spec, const events::DensityProfile& profile,
    events::TimeUs duration_us, std::uint64_t seed = 42) {
  const auto shape =
      spec.graph.node(spec.graph.input_ids().front()).spec.out_shape;
  events::SynthConfig cfg;
  cfg.geometry = events::SensorGeometry{shape.w, shape.h};
  cfg.seed = seed;
  return events::PoissonEventSynthesizer(profile, cfg)
      .generate(0, duration_us);
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Compact ASCII bar for series rendering.
[[nodiscard]] inline std::string bar(double value, double max_value,
                                     int width = 40) {
  const int n = max_value > 0.0
                    ? static_cast<int>(value / max_value * width + 0.5)
                    : 0;
  return std::string(static_cast<std::size_t>(std::max(0, n)), '#');
}

/// One JSON member of a bench record: `value` is already JSON-encoded.
struct JsonField {
  std::string name;
  std::string value;
};

/// String without quotes or backslashes (names, labels).
[[nodiscard]] inline JsonField jstr(std::string name,
                                    const std::string& value) {
  return {std::move(name), "\"" + value + "\""};
}

/// Number with a printf format.
[[nodiscard]] inline JsonField jnum(std::string name, double value,
                                    const char* fmt = "%.4f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, value);
  return {std::move(name), buf};
}

[[nodiscard]] inline JsonField jint(std::string name, long long value) {
  return {std::move(name), std::to_string(value)};
}

/// The one record shape every gated bench writes and
/// scripts/check_bench_regression.py reads: `key` identifies the record
/// across runs, every entry of `metrics` is a gated higher-is-better
/// ratio, and `info` fields ride along ungated.
struct BenchRecord {
  std::vector<JsonField> key;
  std::vector<JsonField> metrics;
  std::vector<JsonField> info;
};

/// Writes {"threads": N, <header>..., "results": [records]} to `path`.
/// `header` carries ungated run-level fields (scale, absolute costs).
[[nodiscard]] inline bool write_bench_json(
    const std::string& path, int threads,
    const std::vector<JsonField>& header,
    const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const auto members = [](const std::vector<JsonField>& fields) {
    std::string out;
    for (const JsonField& field : fields) {
      if (!out.empty()) out += ", ";
      out += "\"" + field.name + "\": " + field.value;
    }
    return out;
  };
  std::fprintf(f, "{\n  \"threads\": %d,\n", threads);
  for (const JsonField& field : header) {
    std::fprintf(f, "  \"%s\": %s,\n", field.name.c_str(),
                 field.value.c_str());
  }
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::string line = "{\"key\": {" + members(r.key) + "}, \"metrics\": {" +
                       members(r.metrics) + "}";
    if (!r.info.empty()) line += ", " + members(r.info);
    std::fprintf(f, "    %s}%s\n", line.c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace evedge::bench
