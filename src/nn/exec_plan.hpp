#pragma once

// Density-adaptive execution planning: the per-layer dense-vs-sparse
// dataflow decision the paper's E2SF analysis makes analytically,
// promoted to a first-class runtime artifact the engine executes.
//
// An ExecutionPlan assigns every node a Route:
//   kDense  the conventional dense kernels (conv2d / int8_conv2d)
//   kCsr    the gather/CSR sparse kernels (sparse_conv2d_csr and, on
//           quantized layers, int8_sparse_conv2d_csr). Output stays in
//           COO form, so consecutive kCsr layers chain densify-free
//           ("fused CSR chains"). With the engine's zero-bias layers
//           this route is bitwise identical to dense execution
//           everywhere (the stored sites carry the dense values;
//           unreached sites are exact zeros in both).
//
// ExecutionPlanner::calibrate is the one planning entry. It measures
// per-node activation densities on a probe input with
// measure_output_densities (a dense warmup run through an activation
// hook — the same probe core::measure_activation_densities feeds the
// analytical cost model), then routes each layer by a dense-vs-sparse
// crossover whose cost constants are fixed, fit once to single-core
// kernel measurements (see exec_plan.cpp).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/graph.hpp"
#include "sparse/tensor.hpp"

namespace evedge::nn {

class FunctionalNetwork;

/// Per-node execution route (see file comment for semantics).
enum class Route : std::uint8_t { kDense, kCsr };

[[nodiscard]] std::string to_string(Route route);

/// One tiled chain: a maximal run of consecutively-numbered,
/// parent-linked sparse-routed conv nodes the engine executes tile by
/// tile — each band of exit-layer output rows is pushed through the
/// whole chain before the next band starts, so the chain's per-tile
/// working set stays cache-resident instead of round-tripping full
/// feature maps through DRAM (the streaming tile dataflow of the
/// composable sparse-accelerator literature, on a CPU cache hierarchy).
struct TileChain {
  std::vector<int> nodes;  ///< consecutive node ids, each the next's parent
  int tile_rows = 1;       ///< exit-layer output rows per tile
  int tiles = 1;           ///< ceil(exit_h / tile_rows); 1 == untiled
};

/// Tiled execution geometry attached to an ExecutionPlan. Interior
/// layers of a tile get proportional row bands grown backward through
/// each conv's kernel/stride halo; a chain with tiles == 1 is walked as
/// one full-plane tile, layer at a time. Sparse-routed nodes the plan
/// leaves out of every chain (or an empty TilePlan) are walked the same
/// way, grouped by build_tile_plan's chain rule. Tiling never changes
/// results: FP32 outputs are bitwise identical to untiled execution for
/// every tile size (see RowWindow in sparse_ops.hpp for why).
struct TilePlan {
  std::vector<TileChain> chains;

  /// True when any chain actually tiles (tiles > 1).
  [[nodiscard]] bool enabled() const noexcept;
};

/// Tile-geometry policy for build_tile_plan's cache-capacity model.
struct TileOptions {
  /// Per-tile working-set target. Default ~1 MiB: comfortably inside a
  /// per-core L2 slice, leaving room for weights and the tap stream.
  std::size_t l2_budget_bytes = 1u << 20;
  /// Exit-layer rows per tile, overriding the cache model (tests and the
  /// bench tile sweep); clamped to each chain's exit extent, so INT_MAX
  /// pins every chain to 1 tile (== untiled). 0 = let the model pick.
  int forced_tile_rows = 0;
};

/// A prepared per-node route assignment plus the density telemetry it was
/// derived from. Installed on a FunctionalNetwork via
/// set_execution_plan(); non-owning there, so the plan must outlive its
/// installation.
struct ExecutionPlan {
  /// Route per node id; empty (or kDense entries) means dense.
  std::vector<Route> route;
  /// Estimated/measured mean OUTPUT density per node id (1.0 default).
  /// For spiking nodes this is the mean firing rate over the probe runs.
  std::vector<double> output_density;
  /// Density of the calibration probe's event input (telemetry).
  double probe_input_density = 0.0;
  /// Tiled-chain geometry for the routed nodes (default-constructed ==
  /// untiled). The planner attaches build_tile_plan's choice; callers
  /// building plans by hand may leave it empty or fill it themselves.
  TilePlan tiles;

  [[nodiscard]] int sparse_node_count() const noexcept;

  /// True when `live_density` lies inside this plan's calibration band
  /// [probe/band, probe*band] around probe_input_density (band >= 1).
  /// The serving runtime re-calibrates a worker's plan when the live
  /// input density (the adapted event tensor's) leaves the band: the
  /// routes were chosen for the probe's density regime and go stale when
  /// the scene changes. A plan probed at density 0 (or with no recorded
  /// probe density) is in band exactly when the live density is 0.
  [[nodiscard]] bool density_in_band(double live_density,
                                     double band) const noexcept;

  [[nodiscard]] Route route_of(int node_id) const noexcept {
    const auto idx = static_cast<std::size_t>(node_id);
    return node_id >= 0 && idx < route.size() ? route[idx] : Route::kDense;
  }
};

/// Finds the sparse chains of `plan` over `spec` and chooses tile
/// geometry for each from a cache-capacity model over the chain's
/// channel widths (forced_tile_rows overrides). Chains whose whole
/// working set fits the budget — and, under the model, single-node
/// chains, which have no inter-layer reuse to win — get the degenerate
/// 1-tile geometry.
[[nodiscard]] TilePlan build_tile_plan(const NetworkSpec& spec,
                                       const ExecutionPlan& plan,
                                       const TileOptions& options = {});

/// Planner policy. The crossover's cost constants are fixed (see
/// exec_plan.cpp); only the tile geometry of the chosen routes is a
/// policy.
struct PlannerOptions {
  /// Tile-geometry policy handed to build_tile_plan for the routes the
  /// planner chooses.
  TileOptions tile;
};

/// How a sparse-routed spiking conv materializes its dense LIF current:
/// narrow layers scatter straight into the staging tensor (each tap
/// touches few output planes — cache-friendly, zero bookkeeping), wide
/// layers run the vectorized gather reduction and densify (a tap's
/// scatter would stride across out_channels planes). Shared between the
/// planner's cost model and the engine's dispatch so both agree.
[[nodiscard]] constexpr bool scatter_current_route(
    const sparse::Conv2dSpec& conv) noexcept {
  return conv.out_channels <= 32;
}

/// Mean OUTPUT density per node id over one dense run of the probe
/// (`event_steps`, plus `image` on two-input networks) through a scoped
/// activation hook; the hook also forces the run dense, so an installed
/// execution plan cannot skew its own measurement, and the caller's hook
/// is restored afterwards. Input nodes never fire the hook: the event
/// input gets the mean density of `event_steps`, a second input the
/// image's density. Nodes the run never reaches keep 1.0.
[[nodiscard]] std::vector<double> measure_output_densities(
    FunctionalNetwork& net, std::span<const sparse::DenseTensor> event_steps,
    const sparse::DenseTensor* image = nullptr);

class ExecutionPlanner {
 public:
  /// Measures per-node densities on the probe (measure_output_densities)
  /// and routes every zero-bias, single-parent conv whose sparse cost
  /// beats dense by the crossover model; attaches build_tile_plan's
  /// geometry for the chosen routes.
  [[nodiscard]] static ExecutionPlan calibrate(
      FunctionalNetwork& net, std::span<const sparse::DenseTensor> event_steps,
      const sparse::DenseTensor* image = nullptr,
      const PlannerOptions& options = {});
};

}  // namespace evedge::nn
