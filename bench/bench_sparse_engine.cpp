// End-to-end planner benchmark: FunctionalNetwork::run() all-dense vs
// with a density-adaptive ExecutionPlan (calibrated per input density) on
// the spiking zoo networks at DAVIS346 scale (260x346 rounded to the
// 256x352 zoo geometry, base 16 channels to keep the single-core CI run
// bounded). The networks run at lif_threshold_scale = 2, which puts the
// random-weight zoo into the 0.5-5% spiking-activation band the paper
// reports for trained event networks (the regime the sparse routes
// target; the default random-weight stand-ins fire at 7-40%). The
// planner routes the sparse-input/spiking layers through the CSR gather
// kernels and chains consecutive sparse layers in COO form; the dense
// decoders stay dense, so the end-to-end speedup is the Amdahl-limited,
// honest number.
//
// The calibrated plan includes the cache-model TilePlan (streaming tile
// dataflow over the sparse chains), so speedup_planner is the shipped
// default. A forced-tile-rows sweep additionally reports the best
// measured tile geometry next to the model's pick (tile_rows vs
// best_tile_rows) — the standing check that the capacity model stays
// honest on this machine.
//
// One batch-4 record (Adaptive-SpikeNet at density 0.01) times
// run_batched on four seeded samples, so a batched CSR chain stays
// gated; the batch-1 records time run().
//
// Doubles as a parity smoke test: every configuration (planner-routed,
// every sweep geometry) must be bitwise identical to dense output
// (max_abs_diff == 0) — the bench exits non-zero otherwise. Results go
// to BENCH_sparse_engine.json and are gated in CI by
// scripts/check_bench_regression.py.
//
// Usage: bench_sparse_engine [output.json]

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "nn/engine.hpp"
#include "nn/exec_plan.hpp"
#include "nn/zoo.hpp"
#include "quant/accuracy.hpp"
#include "sparse/tensor.hpp"

namespace en = evedge::nn;
namespace es = evedge::sparse;
namespace eq = evedge::quant;
namespace eb = evedge::bench;
using evedge::bench::time_best_ms;

namespace {

constexpr int kReps = 3;
constexpr int kSweepReps = 2;
// Forced exit-row geometries for the tile sweep; 0 = every chain as a
// single tile (untiled). Values above a chain's exit extent clamp and
// dedup away.
constexpr int kSweepRows[] = {0, 8, 16, 32, 64};

struct Result {
  std::string network;
  double density = 0.0;
  int batch = 1;
  double dense_ms = 0.0;
  double planner_ms = 0.0;
  int sparse_routed = 0;         ///< sparse-routed nodes in the plan
  double max_abs_diff = 0.0;     ///< planner vs dense (must be 0)
  double sparse_mac_fraction = 0.0;  ///< dense MACs replaced / total
  double firing_rate = 0.0;      ///< mean spiking rate over the run
  int tile_rows = 0;             ///< cache-model exit rows (0 = untiled)
  int best_tile_rows = 0;        ///< best measured sweep geometry
  double best_tiled_ms = 0.0;    ///< planner time at best_tile_rows

  [[nodiscard]] double speedup_planner() const {
    return planner_ms > 0.0 ? dense_ms / planner_ms : 0.0;
  }
  [[nodiscard]] double speedup_tiled_best() const {
    return best_tiled_ms > 0.0 ? dense_ms / best_tiled_ms : 0.0;
  }
};

[[nodiscard]] eb::BenchRecord to_record(const Result& r) {
  return {{eb::jstr("network", r.network), eb::jnum("density", r.density),
           eb::jint("batch", r.batch)},
          {eb::jnum("speedup_planner", r.speedup_planner(), "%.2f"),
           eb::jnum("speedup_tiled_best", r.speedup_tiled_best(), "%.2f")},
          {eb::jnum("dense_ms", r.dense_ms),
           eb::jnum("planner_ms", r.planner_ms),
           eb::jint("sparse_routed", r.sparse_routed),
           eb::jnum("sparse_mac_fraction", r.sparse_mac_fraction, "%.3f"),
           eb::jnum("firing_rate", r.firing_rate),
           eb::jint("tile_rows", r.tile_rows),
           eb::jint("best_tile_rows", r.best_tile_rows),
           eb::jnum("max_abs_diff", r.max_abs_diff, "%.3g")}};
}

/// Exit tile_rows of the plan's largest tiling chain (0 when no chain
/// actually tiles) — the headline geometry of the model's pick.
[[nodiscard]] int headline_tile_rows(const en::TilePlan& tiles) {
  int rows = 0;
  std::size_t best_len = 0;
  for (const en::TileChain& chain : tiles.chains) {
    if (chain.tiles > 1 && chain.nodes.size() >= best_len) {
      best_len = chain.nodes.size();
      rows = chain.tile_rows;
    }
  }
  return rows;
}

/// Geometry signature for sweep dedup (clamped forced rows can collide).
[[nodiscard]] std::vector<std::pair<int, int>> tile_signature(
    const en::TilePlan& tiles) {
  std::vector<std::pair<int, int>> sig;
  for (const en::TileChain& chain : tiles.chains) {
    sig.emplace_back(chain.tile_rows, chain.tiles);
  }
  return sig;
}

/// Stacks `n` samples' per-timestep [1, C, H, W] tensors into [n, ...].
[[nodiscard]] std::vector<es::DenseTensor> stack_steps(
    const std::vector<eq::ValidationSample>& samples) {
  std::vector<es::DenseTensor> steps;
  const int n = static_cast<int>(samples.size());
  for (std::size_t t = 0; t < samples[0].event_steps.size(); ++t) {
    const es::TensorShape& s = samples[0].event_steps[t].shape();
    es::DenseTensor step(es::TensorShape{n, s.c, s.h, s.w});
    for (int i = 0; i < n; ++i) {
      const es::DenseTensor& src =
          samples[static_cast<std::size_t>(i)].event_steps[t];
      std::copy(src.raw(), src.raw() + src.size(),
                step.raw() + static_cast<std::size_t>(i) * step.stride_n());
    }
    steps.push_back(std::move(step));
  }
  return steps;
}

/// Times `run` (one inference over the record's input) all-dense and
/// planner-routed, with the plan calibrated on the batch-1 `probe`, then
/// sweeps forced tile geometries. Every routed run must bit-match dense;
/// a divergence is reported and clears `parity_ok`.
void measure(en::FunctionalNetwork& net,
             std::span<const es::DenseTensor> probe,
             const es::DenseTensor* image,
             const std::function<es::DenseTensor()>& run, Result& r,
             bool& parity_ok) {
  const en::NetworkSpec& spec = net.spec();
  net.set_execution_plan(nullptr);
  const auto dense_out = run();
  r.dense_ms = time_best_ms([&] { (void)run(); }, kReps);

  const auto plan = en::ExecutionPlanner::calibrate(net, probe, image);
  r.sparse_routed = plan.sparse_node_count();
  r.tile_rows = headline_tile_rows(plan.tiles);
  net.set_execution_plan(&plan);
  const auto routed_out = run();
  r.max_abs_diff = es::max_abs_diff(routed_out, dense_out);
  const en::ExecStats& stats = net.last_exec_stats();
  const std::size_t total_macs = spec.graph.total_macs() *
                                 static_cast<std::size_t>(spec.timesteps) *
                                 static_cast<std::size_t>(r.batch);
  r.sparse_mac_fraction =
      total_macs > 0 ? static_cast<double>(stats.dense_macs_avoided) /
                           static_cast<double>(total_macs)
                     : 0.0;
  r.planner_ms = time_best_ms([&] { (void)run(); }, kReps);
  r.firing_rate = net.network_firing_rate();

  // Tile sweep: same routes, forced tile geometries. Every point must
  // stay bitwise dense-identical — that is the tiling contract, and the
  // sweep doubles as its stress test at DAVIS scale.
  std::set<std::vector<std::pair<int, int>>> seen;
  seen.insert(tile_signature(plan.tiles));
  r.best_tile_rows = r.tile_rows;
  r.best_tiled_ms = r.planner_ms;
  for (const int rows : kSweepRows) {
    en::ExecutionPlan sweep_plan = plan;
    en::TileOptions topt;
    topt.forced_tile_rows = rows == 0 ? std::numeric_limits<int>::max() : rows;
    sweep_plan.tiles = en::build_tile_plan(spec, sweep_plan, topt);
    if (!seen.insert(tile_signature(sweep_plan.tiles)).second) continue;
    net.set_execution_plan(&sweep_plan);
    const double diff = es::max_abs_diff(run(), dense_out);
    if (diff != 0.0) {
      parity_ok = false;
      std::fprintf(stderr,
                   "parity failure: %s density %.4f batch %d tile_rows %d "
                   "max_abs_diff %.3g\n",
                   r.network.c_str(), r.density, r.batch, rows, diff);
    }
    const double ms = time_best_ms([&] { (void)run(); }, kSweepReps);
    if (ms < r.best_tiled_ms) {
      r.best_tiled_ms = ms;
      r.best_tile_rows = sweep_plan.tiles.enabled()
                             ? headline_tile_rows(sweep_plan.tiles)
                             : 0;
    }
  }
  net.set_execution_plan(nullptr);
  if (r.max_abs_diff != 0.0) parity_ok = false;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_sparse_engine.json";
  // DAVIS346-scale zoo geometry at half base width (the full-scale
  // base-32 dense runs take minutes per network on one core), with the
  // spiking thresholds scaled into the paper's 0.5-5% activation band.
  const en::ZooConfig scale{256, 352, 16, 5, 2.0f};
  const en::NetworkId nets[] = {en::NetworkId::kDotie,
                                en::NetworkId::kAdaptiveSpikeNet,
                                en::NetworkId::kSpikeFlowNet,
                                en::NetworkId::kFusionFlowNet};
  const double densities[] = {0.01, 0.03};
  // The batched record: Adaptive-SpikeNet chains its sparse layers
  // (DOTIE's single layer forms no chain).
  constexpr en::NetworkId kBatchedNet = en::NetworkId::kAdaptiveSpikeNet;
  constexpr double kBatchedDensity = 0.01;
  constexpr int kBatch = 4;

  std::printf("sparse engine planner benchmark (threads=%d)\n",
              evedge::core::parallel_thread_count());
  std::printf("%-18s %8s %5s %10s %11s %9s %7s %9s %6s %6s %7s %12s\n",
              "network", "density", "batch", "dense_ms", "planner_ms",
              "speedup", "routed", "mac_frac", "tile", "best", "best_x",
              "max_abs_diff");

  std::vector<Result> results;
  bool parity_ok = true;
  const auto report = [&](Result r) {
    std::printf(
        "%-18s %8.4f %5d %10.2f %11.2f %8.2fx %7d %9.3f %6d %6d %6.2fx "
        "%12.3g\n",
        r.network.c_str(), r.density, r.batch, r.dense_ms, r.planner_ms,
        r.speedup_planner(), r.sparse_routed, r.sparse_mac_fraction,
        r.tile_rows, r.best_tile_rows, r.speedup_tiled_best(),
        r.max_abs_diff);
    std::fflush(stdout);
    results.push_back(std::move(r));
  };
  for (const auto id : nets) {
    const auto spec = en::build_network(id, scale);
    en::FunctionalNetwork net(spec, 7);
    for (const double density : densities) {
      const auto samples = eq::make_validation_set(spec, 1, 42, density);
      const auto& steps = samples[0].event_steps;
      const es::DenseTensor* image =
          samples[0].image.has_value() ? &samples[0].image.value() : nullptr;
      Result r;
      r.network = spec.name;
      r.density = density;
      measure(net, steps, image, [&] { return net.run(steps, image); }, r,
              parity_ok);
      report(std::move(r));
    }
    if (id == kBatchedNet) {
      const auto samples =
          eq::make_validation_set(spec, kBatch, 42, kBatchedDensity);
      const auto steps = stack_steps(samples);
      Result r;
      r.network = spec.name;
      r.density = kBatchedDensity;
      r.batch = kBatch;
      measure(net, samples[0].event_steps, nullptr,
              [&] { return net.run_batched(steps); }, r, parity_ok);
      report(std::move(r));
    }
  }

  std::vector<eb::BenchRecord> records;
  for (const Result& r : results) records.push_back(to_record(r));
  const bool wrote = eb::write_bench_json(
      out_path, evedge::core::parallel_thread_count(),
      {eb::jstr("scale",
                "256x352 base16 (DAVIS346 zoo geometry), "
                "lif_threshold_scale=2")},
      records);
  if (!parity_ok) {
    std::fprintf(stderr,
                 "parity failure: planner-routed output diverged from dense "
                 "execution (see table)\n");
    return 1;
  }
  return wrote ? 0 : 1;
}
