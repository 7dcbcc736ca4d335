#pragma once

// Per-inference cost model for the runtime pipeline: walks a network's
// graph under a given mapping and returns latency/energy for one
// (possibly batched) inference at a given input density.
//
// Sparse awareness: when `use_sparse_routes` is set (the E2SF variants),
// each layer runs the cheaper of the dense and sparse routes on its PE,
// with the layer's activation density taken from a one-time functional
// measurement scaled by the live input density (DESIGN.md section 2).
// The dense baseline additionally pays the dense->sparse encode overhead
// if it wants sparse execution — that is exactly the trade-off E2SF
// removes, exposed here for the ablation bench.

#include <vector>

#include "hw/energy_model.hpp"
#include "hw/latency_model.hpp"
#include "nn/engine.hpp"
#include "sched/mapping.hpp"

namespace evedge::core {

/// Per-node activation densities measured on the functional network
/// (fraction of non-zero activations right after each node).
struct ActivationDensityProfile {
  std::vector<double> density;  ///< indexed by node id, 1.0 default
  double measured_input_density = 0.1;  ///< density of the probe input
};

/// Runs one functional inference on a synthetic sparse input with
/// `input_fill` density and records per-node densities (the planner's
/// probe, nn::measure_output_densities), then floors ANN nodes at 0.4
/// and pins the inputs to `input_fill` (events) and 1.0 (images).
[[nodiscard]] ActivationDensityProfile measure_activation_densities(
    const nn::NetworkSpec& spec, std::uint64_t weight_seed,
    double input_fill = 0.02, std::uint64_t input_seed = 99);

struct InferenceCost {
  double latency_us = 0.0;
  double busy_energy_mj = 0.0;  ///< PE-active + transfer energy
};

struct InferenceCostOptions {
  bool use_sparse_routes = false;  ///< E2SF on: sparse kernels available
  /// Dense baseline converting to sparse at runtime pays encode cost per
  /// sparse-routed layer (the overhead the paper calls prohibitive).
  bool charge_encode_overhead = false;
  int batch = 1;                   ///< DSFA cBatch / queue batching
};

/// Latency + busy energy of one inference of `spec` mapped by `mapping`
/// at live input density `input_density`. Layers execute sequentially in
/// topological order (single-stream inference); cross-PE edges pay the
/// unified-memory transfer cost.
[[nodiscard]] InferenceCost estimate_inference(
    const nn::NetworkSpec& spec, const sched::TaskMapping& mapping,
    const hw::Platform& platform, const ActivationDensityProfile& densities,
    double input_density, const InferenceCostOptions& options = {});

}  // namespace evedge::core
