#include "nn/exec_plan.hpp"

#include <algorithm>
#include <cmath>

#include "nn/engine.hpp"

namespace evedge::nn {

using sparse::DenseTensor;

std::string to_string(Route route) {
  switch (route) {
    case Route::kDense: return "dense";
    case Route::kCsr: return "csr";
  }
  return "?";
}

bool TilePlan::enabled() const noexcept {
  return std::any_of(chains.begin(), chains.end(),
                     [](const TileChain& c) { return c.tiles > 1; });
}

int ExecutionPlan::sparse_node_count() const noexcept {
  int count = 0;
  for (const Route r : route) {
    if (r != Route::kDense) ++count;
  }
  return count;
}

bool ExecutionPlan::density_in_band(double live_density,
                                    double band) const noexcept {
  if (band < 1.0) return false;
  // A band around zero is {0}: a plan probed on an empty input stays in
  // band exactly while the input stays empty.
  if (probe_input_density <= 0.0) return live_density <= 0.0;
  return live_density >= probe_input_density / band &&
         live_density <= probe_input_density * band;
}

namespace {

/// Kinds the sparse routes can execute: the conv whose synaptic input is
/// a (possibly sparse) activation map. Transposed convs and FC layers
/// always consume the dense decoder/head activations here, so they are
/// not routed.
[[nodiscard]] bool routable_kind(LayerKind kind) noexcept {
  return kind == LayerKind::kConv || kind == LayerKind::kSpikingConv ||
         kind == LayerKind::kAdaptiveSpikingConv;
}

[[nodiscard]] bool all_zero(std::span<const float> v) noexcept {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return x == 0.0f; });
}

// Crossover cost constants, in dense-GEMM-MAC units, fit to
// single-core measurements of the gather kernels on real engine
// activations at DAVIS346 scale (see bench_sparse_engine): the packed
// 8-wide tap reduction runs at ~2x the per-MAC cost of dense GEMM, while
// the branchy bookkeeping around it (tap enumeration, output-entry
// emission, boundary scans) costs tens of MAC units per element. The
// resulting crossover routes event-input layers and low-rate spiking
// stages sparse and leaves ReLU-dense decoders alone.

/// Per-MAC cost of the gather tap reduction relative to dense GEMM.
constexpr double kReduceCostFactor = 2.2;
/// Per-MAC cost of the dense-output scatter kernel (the route narrow
/// spiking convs take: their LIF consumer needs dense current, so the
/// engine scatters straight into the staging tensor with no COO
/// materialization or per-site bookkeeping).
constexpr double kScatterCostFactor = 3.0;
/// Cost per bookkeeping element: tap enumeration (one per input non-zero
/// x kernel tap) and potential output-entry emission (one per active
/// site x output channel).
constexpr double kOverheadCostFactor = 25.0;
/// Cost per element of sparsifying a dense parent at a chain head.
constexpr double kSparsifyCostPerElement = 8.0;
/// Cost per element of densifying the output at a route exit.
constexpr double kDensifyCostPerElement = 2.0;
/// Sparse must win by this factor to be chosen — hysteresis against
/// noisy density estimates AND against the model's own error on
/// marginal layers: a mispredicted marginal route costs real time, while
/// a skipped marginal win costs almost nothing.
constexpr double kMargin = 1.35;

/// The dense-vs-sparse crossover, mirroring core/inference_cost's
/// per-layer route comparison with the measured kernel cost structure:
/// dense cost is the layer's MAC count; sparse cost is the gather tap
/// reduction (taps x output channels) plus the bookkeeping that
/// dominates the kernel away from the reduction — tap enumeration
/// (~nnz x k^2), output-entry emission (~active sites x Cout) — plus
/// the representation-boundary scans.
[[nodiscard]] bool sparse_wins(const LayerSpec& ls, double d_in,
                               bool chain_head) {
  d_in = std::clamp(d_in, 0.0, 1.0);
  const double dense_macs = static_cast<double>(ls.macs());
  if (dense_macs <= 0.0) return false;
  const double in_elems = static_cast<double>(ls.input_elements());
  const double out_elems = static_cast<double>(ls.output_elements());
  // Narrow spiking convs take the dense-output scatter route (see
  // engine / scatter_current_route): cost is the scattered multiply-adds
  // plus the chain-head sparsify — no site bookkeeping, no densify (the
  // dense output write replaces the dense kernel's own). Wide spiking
  // convs fall through to the gather model below (plus its densify
  // charge, which is exactly their CSR + densify execution).
  if (domain_of(ls.kind) == Domain::kSnn && scatter_current_route(ls.conv)) {
    const double k2s = static_cast<double>(ls.conv.kernel) *
                       static_cast<double>(ls.conv.kernel) /
                       (static_cast<double>(ls.conv.stride) *
                        static_cast<double>(ls.conv.stride));
    const double scatter_macs = d_in * in_elems * k2s *
                                static_cast<double>(ls.conv.out_channels);
    double cost = kScatterCostFactor * scatter_macs;
    if (chain_head) cost += kSparsifyCostPerElement * in_elems;
    return kMargin * cost < dense_macs;
  }
  const double in_pixels = static_cast<double>(ls.in_shape.h) *
                           static_cast<double>(ls.in_shape.w);
  const double out_pixels = static_cast<double>(ls.out_shape.h) *
                            static_cast<double>(ls.out_shape.w);
  const double cin = static_cast<double>(ls.conv.in_channels);
  const double cout = static_cast<double>(ls.conv.out_channels);
  const double k2 = static_cast<double>(ls.conv.kernel) *
                    static_cast<double>(ls.conv.kernel);
  const double stride2 = static_cast<double>(ls.conv.stride) *
                         static_cast<double>(ls.conv.stride);
  // Tap count: each input non-zero lands on ~k^2/stride^2 output sites.
  const double nnz_in = d_in * in_elems;
  const double est_taps = nnz_in * k2 / stride2;
  const double reduce_macs = est_taps * cout;
  // Active output sites: the per-pixel union of Cin independent channels
  // at density d_in, dilated by the kernel footprint, capped at the
  // plane.
  const double union_pixels =
      (1.0 - std::pow(1.0 - d_in, cin)) * in_pixels;
  const double est_sites =
      std::min(out_pixels, union_pixels * k2 / stride2);
  // Bookkeeping: tap enumeration visits every (non-zero, kernel tap)
  // pair twice (count + fill); emission touches every (site, channel)
  // accumulator once.
  const double overhead = nnz_in * k2 + est_sites * cout;
  // Boundary scans: sparsifying the input when the parent's carrier is
  // dense (chain head), and densifying the output (charged always —
  // conservative, since the consumer's route is not known yet; spiking
  // layers always densify for the LIF update).
  double boundary = kDensifyCostPerElement * out_elems;
  if (chain_head) boundary += kSparsifyCostPerElement * in_elems;
  const double sparse_cost =
      kMargin * (kReduceCostFactor * reduce_macs +
                 kOverheadCostFactor * overhead + boundary);
  return sparse_cost < dense_macs;
}

}  // namespace

TilePlan build_tile_plan(const NetworkSpec& spec, const ExecutionPlan& plan,
                         const TileOptions& options) {
  TilePlan tiles;
  if (plan.route.empty()) return tiles;

  // Choose tile geometry for one closed chain and record it.
  const auto close_chain = [&](std::vector<int> nodes) {
    const LayerSpec& exit_ls =
        spec.graph.node(nodes.back()).spec;
    const int exit_h = exit_ls.out_shape.h;
    TileChain chain;
    chain.nodes = std::move(nodes);
    chain.tile_rows = std::max(exit_h, 1);
    chain.tiles = 1;
    if (exit_h > 0) {
      if (options.forced_tile_rows > 0) {
        chain.tile_rows = std::min(options.forced_tile_rows, exit_h);
        chain.tiles = (exit_h + chain.tile_rows - 1) / chain.tile_rows;
      } else if (chain.nodes.size() >= 2) {
        // Cache-capacity model: bytes of chain activation state touched
        // per exit-layer output row, scaled by each layer's row ratio.
        // Spiking layers triple-count (dense current window + U[t-1]
        // read + U[t] write); weights (packed [tap][oc] form) are a
        // fixed per-tile charge.
        std::size_t fixed_bytes = 0;
        double row_bytes = 0.0;
        for (const int id : chain.nodes) {
          const LayerSpec& ls = spec.graph.node(id).spec;
          fixed_bytes += static_cast<std::size_t>(ls.conv.in_channels) *
                         static_cast<std::size_t>(ls.conv.kernel) *
                         static_cast<std::size_t>(ls.conv.kernel) *
                         static_cast<std::size_t>(ls.conv.out_channels) *
                         sizeof(float);
          const double planes =
              domain_of(ls.kind) == Domain::kSnn ? 3.0 : 1.0;
          row_bytes += static_cast<double>(ls.out_shape.h) /
                       static_cast<double>(exit_h) *
                       static_cast<double>(ls.out_shape.n) *
                       static_cast<double>(ls.out_shape.c) *
                       static_cast<double>(ls.out_shape.w) * sizeof(float) *
                       planes;
        }
        const double total = row_bytes * static_cast<double>(exit_h);
        const double budget = static_cast<double>(options.l2_budget_bytes);
        if (total + static_cast<double>(fixed_bytes) > budget) {
          const double avail =
              budget > static_cast<double>(fixed_bytes)
                  ? budget - static_cast<double>(fixed_bytes)
                  : budget * 0.25;
          int count = static_cast<int>(std::ceil(total / avail));
          count = std::clamp(count, 1, exit_h);
          int rows = (exit_h + count - 1) / count;
          // Halo floor: below ~8 exit rows the per-tile halo recompute
          // overwhelms the locality win.
          rows = std::max(rows, std::min(exit_h, 8));
          chain.tile_rows = rows;
          chain.tiles = (exit_h + rows - 1) / rows;
        }
      }
    }
    tiles.chains.push_back(std::move(chain));
  };

  std::vector<int> current;
  for (const LayerNode& node : spec.graph.nodes()) {
    const bool eligible = routable_kind(node.spec.kind) &&
                          node.parents.size() == 1 &&
                          plan.route_of(node.id) != Route::kDense;
    if (eligible && !current.empty() && node.id == current.back() + 1 &&
        node.parents.front() == current.back()) {
      current.push_back(node.id);
      continue;
    }
    if (!current.empty()) close_chain(std::move(current));
    current.clear();
    if (eligible) current.push_back(node.id);
  }
  if (!current.empty()) close_chain(std::move(current));
  return tiles;
}

std::vector<double> measure_output_densities(
    FunctionalNetwork& net, std::span<const DenseTensor> event_steps,
    const DenseTensor* image) {
  const NetworkSpec& spec = net.spec();
  const std::size_t n = spec.graph.size();
  std::vector<double> acc(n, 0.0);
  std::vector<std::size_t> hits(n, 0);

  // Scoped density hook: accumulates the non-zero fraction per node over
  // every probe timestep, then always restores the caller's hook.
  FunctionalNetwork::ActivationHook previous = net.set_activation_hook(
      [&acc, &hits](int node_id, DenseTensor& activation) {
        acc[static_cast<std::size_t>(node_id)] += activation.density();
        ++hits[static_cast<std::size_t>(node_id)];
      });
  try {
    (void)net.run(event_steps, image);
  } catch (...) {
    net.set_activation_hook(std::move(previous));
    throw;
  }
  net.set_activation_hook(std::move(previous));

  std::vector<double> density(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (hits[i] > 0) density[i] = acc[i] / static_cast<double>(hits[i]);
  }
  // Input nodes never fire the hook; measure them from the probe tensors
  // (run() accepted one step per timestep, and an image when the network
  // has a second input).
  const auto input_ids = spec.graph.input_ids();
  double event_acc = 0.0;
  for (const DenseTensor& step : event_steps) event_acc += step.density();
  density[static_cast<std::size_t>(input_ids.front())] =
      event_acc / static_cast<double>(event_steps.size());
  if (input_ids.size() > 1) {
    density[static_cast<std::size_t>(input_ids.back())] = image->density();
  }
  return density;
}

ExecutionPlan ExecutionPlanner::calibrate(
    FunctionalNetwork& net, std::span<const DenseTensor> event_steps,
    const DenseTensor* image, const PlannerOptions& options) {
  const NetworkSpec& spec = net.spec();
  ExecutionPlan plan;
  plan.route.assign(spec.graph.size(), Route::kDense);
  plan.output_density = measure_output_densities(net, event_steps, image);
  plan.probe_input_density = plan.output_density[static_cast<std::size_t>(
      spec.graph.input_ids().front())];

  for (const LayerNode& node : spec.graph.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    const LayerSpec& ls = node.spec;
    if (!routable_kind(ls.kind) || node.parents.size() != 1) continue;
    // The CSR kernels add bias at active sites only; zero bias is what
    // makes the sparse route numerically identical to dense execution.
    if (!all_zero(net.bias(node.id))) continue;
    const int parent = node.parents.front();
    const auto pidx = static_cast<std::size_t>(parent);
    // Chain head: the model charges a sparsify unless the parent is a
    // plain conv that was itself routed sparse. A sparse-routed spiking
    // parent hands its spikes on in COO form too (the chain walker
    // carries them), so this over-charges chains behind spiking layers —
    // a known drift of the fixed model, kept so the routes it produces
    // stay stable until measured planning replaces it.
    const bool parent_chains =
        plan.route[pidx] != Route::kDense &&
        spec.graph.node(parent).spec.kind == LayerKind::kConv;
    if (sparse_wins(ls, plan.output_density[pidx],
                    /*chain_head=*/!parent_chains)) {
      plan.route[idx] = Route::kCsr;
    }
  }
  plan.tiles = build_tile_plan(spec, plan, options.tile);
  return plan;
}

}  // namespace evedge::nn
