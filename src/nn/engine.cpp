#include "nn/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <stdexcept>
#include <string>

#include "nn/kernels.hpp"
#include "quant/int8_kernels.hpp"

namespace evedge::nn {

using sparse::DenseTensor;
using sparse::TensorShape;

namespace {

/// He-style init range: sqrt(2 / fan_in), clipped to a sane interval.
[[nodiscard]] float he_range(std::size_t fan_in) {
  const double r = std::sqrt(
      2.0 / static_cast<double>(std::max<std::size_t>(fan_in, 1)));
  return static_cast<float>(std::min(0.6, std::max(0.02, r)));
}

/// Raw steady_clock nanoseconds for ExecObserver stamps (the obs layer
/// rebases them onto its trace epoch).
[[nodiscard]] std::uint64_t exec_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Shared validity check for weight-node access (const and non-const).
void require_weight_node(const std::vector<DenseTensor>& weights,
                         int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(weights.size()) ||
      weights[static_cast<std::size_t>(node_id)].size() == 0) {
    throw std::invalid_argument("node " + std::to_string(node_id) +
                                " has no weights");
  }
}

}  // namespace

DenseTensor center_crop(const DenseTensor& t, int h, int w) {
  const TensorShape& s = t.shape();
  if (h > s.h || w > s.w) {
    throw std::invalid_argument("center_crop: target larger than source");
  }
  if (h == s.h && w == s.w) return t;
  const int oy = (s.h - h) / 2;
  const int ox = (s.w - w) / 2;
  DenseTensor out(TensorShape{s.n, s.c, h, w});
  for (int n = 0; n < s.n; ++n) {
    for (int c = 0; c < s.c; ++c) {
      for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
          out.at(n, c, y, x) = t.at(n, c, y + oy, x + ox);
        }
      }
    }
  }
  return out;
}

FunctionalNetwork::FunctionalNetwork(NetworkSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)) {
  spec_.graph.validate();
  const auto n = spec_.graph.size();
  weights_.resize(n);
  biases_.resize(n);
  channel_leak_.resize(n);
  channel_threshold_.resize(n);
  lif_.resize(n);
  is_spiking_.assign(n, false);
  time_invariant_.assign(n, 0);

  std::mt19937_64 rng(seed);
  for (const LayerNode& node : spec_.graph.nodes()) {
    const LayerSpec& ls = node.spec;
    const auto idx = static_cast<std::size_t>(node.id);
    switch (ls.kind) {
      case LayerKind::kConv:
      case LayerKind::kTransposedConv:
      case LayerKind::kSpikingConv:
      case LayerKind::kAdaptiveSpikingConv: {
        weights_[idx] = DenseTensor(TensorShape{ls.conv.out_channels,
                                                ls.conv.in_channels,
                                                ls.conv.kernel,
                                                ls.conv.kernel});
        const auto fan_in = static_cast<std::size_t>(ls.conv.in_channels) *
                            static_cast<std::size_t>(ls.conv.kernel) *
                            static_cast<std::size_t>(ls.conv.kernel);
        weights_[idx].fill_random(rng(), he_range(fan_in));
        biases_[idx].assign(static_cast<std::size_t>(ls.conv.out_channels),
                            0.0f);
        break;
      }
      case LayerKind::kFullyConnected: {
        const auto in_features = ls.input_elements();
        weights_[idx] = DenseTensor(
            TensorShape{ls.fc_out, static_cast<int>(in_features), 1, 1});
        weights_[idx].fill_random(rng(), he_range(in_features));
        biases_[idx].assign(static_cast<std::size_t>(ls.fc_out), 0.0f);
        break;
      }
      default:
        break;
    }
    if (ls.kind == LayerKind::kInput) {
      // The event input changes every timestep; any further inputs (the
      // grayscale image) are constant across the presentation.
      time_invariant_[idx] = node.id != spec_.graph.input_ids().front();
    } else {
      // Stateless nodes fed only by constant inputs compute the same
      // value at every timestep — run_impl caches them after t == 0.
      bool invariant = !node.parents.empty();
      for (const int parent : node.parents) {
        invariant = invariant &&
                    time_invariant_[static_cast<std::size_t>(parent)] != 0;
      }
      time_invariant_[idx] =
          invariant && domain_of(ls.kind) == Domain::kAnn;
    }
    if (ls.kind == LayerKind::kSpikingConv ||
        ls.kind == LayerKind::kAdaptiveSpikingConv) {
      is_spiking_[idx] = true;
      if (ls.kind == LayerKind::kAdaptiveSpikingConv) {
        // Stand-in for learned per-channel dynamics: deterministic
        // per-channel leak/threshold spread around the shared values.
        std::uniform_real_distribution<float> leak_d(0.7f, 0.97f);
        std::uniform_real_distribution<float> vth_d(0.6f * ls.lif.v_threshold,
                                                    1.4f * ls.lif.v_threshold);
        for (int c = 0; c < ls.conv.out_channels; ++c) {
          channel_leak_[idx].push_back(leak_d(rng));
          channel_threshold_[idx].push_back(vth_d(rng));
        }
      }
      lif_[idx] = LifState(ls.out_shape, ls.lif, channel_leak_[idx],
                           channel_threshold_[idx]);
    }
  }
}

FunctionalNetwork FunctionalNetwork::clone() const {
  // Rebuild from the spec (cheapest way to get every derived table
  // right), then overwrite the learned state with the live values so
  // post-construction weight edits travel with the clone.
  FunctionalNetwork copy(spec_, 0);
  copy.weights_ = weights_;
  copy.biases_ = biases_;
  copy.channel_leak_ = channel_leak_;
  copy.channel_threshold_ = channel_threshold_;
  copy.lif_ = lif_;
  return copy;
}

DenseTensor& FunctionalNetwork::weights(int node_id) {
  require_weight_node(weights_, node_id);
  return weights_[static_cast<std::size_t>(node_id)];
}

const DenseTensor& FunctionalNetwork::weights(int node_id) const {
  require_weight_node(weights_, node_id);
  return weights_[static_cast<std::size_t>(node_id)];
}

std::vector<float>& FunctionalNetwork::bias(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(biases_.size())) {
    throw std::invalid_argument("bad node id");
  }
  return biases_[static_cast<std::size_t>(node_id)];
}

const std::vector<float>& FunctionalNetwork::bias(int node_id) const {
  if (node_id < 0 || node_id >= static_cast<int>(biases_.size())) {
    throw std::invalid_argument("bad node id");
  }
  return biases_[static_cast<std::size_t>(node_id)];
}

const quant::QuantPlan* FunctionalNetwork::set_quant_plan(
    const quant::QuantPlan* plan) {
  // Validate the whole plan before mutating any state: a rejected plan
  // must leave the previous execution mode fully intact.
  if (plan != nullptr) {
    for (const quant::NodeQuantPlan& nq : plan->nodes) {
      if (nq.node_id < 0 ||
          nq.node_id >= static_cast<int>(spec_.graph.size()) ||
          !is_weight_layer(spec_.graph.node(nq.node_id).spec.kind)) {
        throw std::invalid_argument("set_quant_plan: node " +
                                    std::to_string(nq.node_id) +
                                    " is not a weight layer of this graph");
      }
    }
  }
  const quant::QuantPlan* previous = quant_plan_;
  quant_plan_ = plan;
  node_quant_.assign(spec_.graph.size(), nullptr);
  if (plan != nullptr) {
    for (const quant::NodeQuantPlan& nq : plan->nodes) {
      node_quant_[static_cast<std::size_t>(nq.node_id)] = &nq;
    }
  }
  return previous;
}

const ExecutionPlan* FunctionalNetwork::set_execution_plan(
    const ExecutionPlan* plan) {
  // Validate the whole plan before mutating any state (atomic install,
  // mirroring set_quant_plan).
  if (plan != nullptr && !plan->route.empty()) {
    if (plan->route.size() != spec_.graph.size()) {
      throw std::invalid_argument(
          "set_execution_plan: route table size mismatch");
    }
    for (std::size_t i = 0; i < plan->route.size(); ++i) {
      const Route r = plan->route[i];
      if (r == Route::kDense) continue;
      const LayerNode& node = spec_.graph.node(static_cast<int>(i));
      const LayerSpec& ls = node.spec;
      if ((ls.kind != LayerKind::kConv && ls.kind != LayerKind::kSpikingConv &&
           ls.kind != LayerKind::kAdaptiveSpikingConv) ||
          node.parents.size() != 1) {
        throw std::invalid_argument("set_execution_plan: node " +
                                    std::to_string(i) +
                                    " cannot take a sparse route");
      }
      // The sparse kernels add bias at active sites only; a non-zero
      // bias would diverge from dense execution at inactive sites.
      for (const float b : biases_[i]) {
        if (b != 0.0f) {
          throw std::invalid_argument(
              "set_execution_plan: sparse route on node " +
              std::to_string(i) + " requires zero bias");
        }
      }
    }
  }
  // Validate the tile plan against the graph and the route table before
  // any state changes (same atomic-install contract).
  if (plan != nullptr) {
    std::vector<std::uint8_t> in_chain(spec_.graph.size(), 0);
    for (const TileChain& tc : plan->tiles.chains) {
      if (tc.nodes.empty()) {
        throw std::invalid_argument("set_execution_plan: empty tile chain");
      }
      for (std::size_t k = 0; k < tc.nodes.size(); ++k) {
        const int id = tc.nodes[k];
        if (id < 0 || id >= static_cast<int>(spec_.graph.size()) ||
            plan->route_of(id) == Route::kDense) {
          throw std::invalid_argument(
              "set_execution_plan: tile chain node " + std::to_string(id) +
              " is not sparse-routed");
        }
        if (in_chain[static_cast<std::size_t>(id)]++ != 0) {
          throw std::invalid_argument(
              "set_execution_plan: node " + std::to_string(id) +
              " appears in two tile chains");
        }
        const LayerNode& node = spec_.graph.node(id);
        if (k > 0 && (id != tc.nodes[k - 1] + 1 ||
                      node.parents.size() != 1 ||
                      node.parents.front() != tc.nodes[k - 1])) {
          throw std::invalid_argument(
              "set_execution_plan: tile chain is not a consecutive "
              "parent-linked run at node " +
              std::to_string(id));
        }
      }
      const int exit_h =
          spec_.graph.node(tc.nodes.back()).spec.out_shape.h;
      if (tc.tile_rows < 1 || tc.tile_rows > exit_h ||
          tc.tiles != (exit_h + tc.tile_rows - 1) / tc.tile_rows) {
        throw std::invalid_argument(
            "set_execution_plan: inconsistent tile geometry on chain at "
            "node " +
            std::to_string(tc.nodes.front()));
      }
    }
  }
  const ExecutionPlan* previous = exec_plan_;
  exec_plan_ = plan;
  node_route_.assign(spec_.graph.size(), Route::kDense);
  if (plan != nullptr) {
    for (std::size_t i = 0;
         i < std::min(plan->route.size(), node_route_.size()); ++i) {
      node_route_[i] = plan->route[i];
    }
  }
  chain_sparse_.clear();  // force sync_chains to recompile
  sync_chains();
  return previous;
}

FunctionalNetwork::ChainExec FunctionalNetwork::compile_chain(
    std::vector<int> nodes, int tile_rows) const {
  // Resolve every layer's per-tile OWNED band (exit layer: tile_rows
  // bands; interior layers: proportional bands — any exact partition
  // preserves bitwise parity) and its WINDOW, grown backward so each
  // layer's window covers the input halo of the next layer's window.
  ChainExec chain;
  chain.nodes = std::move(nodes);
  const std::size_t depth = chain.nodes.size();
  chain.layers.resize(depth);
  const int exit_h = spec_.graph.node(chain.nodes.back()).spec.out_shape.h;
  chain.tiles = (exit_h + tile_rows - 1) / tile_rows;
  for (int t = 0; t < chain.tiles; ++t) {
    // Exit layer: window == owned band.
    {
      ChainLayerWindows& lw = chain.layers[depth - 1];
      const int o0 = t * tile_rows;
      const int o1 = std::min(exit_h, o0 + tile_rows);
      lw.own0.push_back(o0);
      lw.own1.push_back(o1);
      lw.win0.push_back(o0);
      lw.win1.push_back(o1);
    }
    for (std::size_t j = depth - 1; j-- > 0;) {
      const LayerSpec& next_ls = spec_.graph.node(chain.nodes[j + 1]).spec;
      const ChainLayerWindows& next = chain.layers[j + 1];
      const int h = spec_.graph.node(chain.nodes[j]).spec.out_shape.h;
      const int o0 = static_cast<int>(static_cast<std::int64_t>(h) * t /
                                      chain.tiles);
      const int o1 = static_cast<int>(static_cast<std::int64_t>(h) *
                                      (t + 1) / chain.tiles);
      const int in0 = std::clamp(
          next.win0.back() * next_ls.conv.stride - next_ls.conv.padding, 0,
          h);
      const int in1 = std::clamp((next.win1.back() - 1) * next_ls.conv.stride -
                                     next_ls.conv.padding + next_ls.conv.kernel,
                                 0, h);
      ChainLayerWindows& lw = chain.layers[j];
      lw.own0.push_back(o0);
      lw.own1.push_back(o1);
      lw.win0.push_back(std::min(o0, in0));
      lw.win1.push_back(std::max(o1, in1));
    }
  }
  return chain;
}

void FunctionalNetwork::sync_chains() {
  const std::size_t n = spec_.graph.size();
  bool stale = chain_sparse_.size() != n;
  chain_sparse_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t sparse = effective_route(i) != Route::kDense;
    stale = stale || sparse != chain_sparse_[i];
    chain_sparse_[i] = sparse;
  }
  if (!stale) return;
  static const std::vector<TileChain> kNoChains;
  const std::vector<TileChain>& planned =
      exec_plan_ != nullptr ? exec_plan_->tiles.chains : kNoChains;
  std::vector<int> plan_chain(n, -1);
  for (std::size_t k = 0; k < planned.size(); ++k) {
    for (const int id : planned[k].nodes) {
      plan_chain[static_cast<std::size_t>(id)] = static_cast<int>(k);
    }
  }
  chains_.clear();
  chain_of_node_.assign(n, -1);
  const auto close_chain = [&](std::vector<int> nodes) {
    const int k = plan_chain[static_cast<std::size_t>(nodes.front())];
    const int tile_rows =
        k >= 0 && nodes == planned[static_cast<std::size_t>(k)].nodes
            ? planned[static_cast<std::size_t>(k)].tile_rows
            : spec_.graph.node(nodes.back()).spec.out_shape.h;
    for (const int id : nodes) {
      chain_of_node_[static_cast<std::size_t>(id)] =
          static_cast<int>(chains_.size());
    }
    chains_.push_back(compile_chain(std::move(nodes), tile_rows));
  };
  // build_tile_plan's grouping rule (consecutive ids, each the next's
  // only parent), kept inside one plan chain, and split where the
  // timestep-invariant cache would skip a head but not its successor.
  std::vector<int> current;
  for (std::size_t i = 0; i < n; ++i) {
    const LayerNode& node = spec_.graph.node(static_cast<int>(i));
    if (!current.empty()) {
      const auto prev = static_cast<std::size_t>(current.back());
      if (chain_sparse_[i] && node.id == current.back() + 1 &&
          node.parents.front() == current.back() &&
          plan_chain[i] == plan_chain[prev] &&
          time_invariant_[i] == time_invariant_[prev]) {
        current.push_back(node.id);
        continue;
      }
      close_chain(std::move(current));
      current.clear();
    }
    if (chain_sparse_[i]) current.push_back(node.id);
  }
  if (!current.empty()) close_chain(std::move(current));
}

Route FunctionalNetwork::effective_route(std::size_t idx) const noexcept {
  // Hooks observe (and may mutate) dense activations of every node, so
  // any installed hook forces dense execution for the whole run.
  if (exec_plan_ == nullptr || activation_hook_) return Route::kDense;
  const Route r =
      idx < node_route_.size() ? node_route_[idx] : Route::kDense;
  if (r == Route::kDense) return r;
  // Simulate-mode quant nodes run the float fake-quant oracle, which is
  // defined over dense tensors.
  const quant::NodeQuantPlan* nq = node_quant(idx);
  if (nq != nullptr && quant_plan_->simulate) return Route::kDense;
  return r;
}

void FunctionalNetwork::prepare_packed_weights() {
  if (exec_plan_ == nullptr || activation_hook_) return;
  for (std::size_t i = 0; i < node_route_.size(); ++i) {
    if (effective_route(i) == Route::kDense) continue;
    // Quantized nodes reduce against the plan's own packed int8 rows;
    // narrow FP32 spiking nodes scatter against the raw weight layout.
    if (node_quant(i) != nullptr) continue;
    if (is_spiking_[i] &&
        scatter_current_route(
            spec_.graph.node(static_cast<int>(i)).spec.conv)) {
      continue;
    }
    sparse::pack_conv_weights(weights_[i],
                              workspace_.packed_slot(static_cast<int>(i)));
  }
}

void FunctionalNetwork::densify_samples(
    const std::vector<sparse::SparseSample>& samples,
    sparse::DenseTensor& out) {
  const sparse::SparseSample& first = samples.front();
  out.reset(TensorShape{static_cast<int>(samples.size()),
                        static_cast<int>(first.size()), first[0].height(),
                        first[0].width()});
  for (std::size_t n = 0; n < samples.size(); ++n) {
    sparse::channels_into_slice(samples[n], out, static_cast<int>(n));
  }
}

namespace {

/// Span of the entries with row in [row0, row1) inside a row-major
/// sorted entry list (the owned-band commit of the tiled chain walker).
[[nodiscard]] std::span<const sparse::CooEntry> owned_entries(
    const std::vector<sparse::CooEntry>& entries, int row0, int row1) {
  const auto row_less = [](const sparse::CooEntry& e, int r) {
    return e.row < r;
  };
  const auto lo =
      std::lower_bound(entries.begin(), entries.end(), row0, row_less);
  const auto hi = std::lower_bound(lo, entries.end(), row1, row_less);
  return {entries.data() + (lo - entries.begin()),
          static_cast<std::size_t>(hi - lo)};
}

}  // namespace

void FunctionalNetwork::run_chain(ChainExec& chain, int timestep) {
  const std::size_t depth = chain.nodes.size();
  // One tile owns every row, so each layer's window result IS the node's
  // output: layers write their carriers in place, nothing is committed.
  const bool banded = chain.tiles > 1;
  sparse::TileScratch& ts = workspace_.tile_scratch(0);
  const int head_parent =
      spec_.graph.node(chain.nodes.front()).parents.front();
  // The head's first fragment also carries its input's sparsify, if any.
  std::uint64_t obs_t0 = 0;
  if (exec_observer_ != nullptr) obs_t0 = exec_now_ns();
  const std::vector<sparse::SparseSample>& chain_input =
      sparse_value(head_parent);
  const std::size_t batch = chain_input.size();

  // Per-member prologue: clear the owned-entry accumulators, open the
  // banded LIF timestep, and count the execution ONCE per node (tiles
  // are fragments of one logical node execution).
  if (banded) chain.acc.resize(depth);
  for (std::size_t j = 0; j < depth; ++j) {
    const auto idx = static_cast<std::size_t>(chain.nodes[j]);
    if (banded) {
      const int channels =
          spec_.graph.node(chain.nodes[j]).spec.out_shape.c;
      auto& acc_j = chain.acc[j];
      acc_j.resize(batch);
      for (auto& per_sample : acc_j) {
        per_sample.resize(static_cast<std::size_t>(channels));
        for (auto& entries : per_sample) entries.clear();
      }
    }
    if (is_spiking_[idx]) lif_[idx].begin_step();
    ++exec_stats_.node_executions;
    ++exec_stats_.sparse_node_runs;
  }

  for (int tile = 0; tile < chain.tiles; ++tile) {
    const std::vector<sparse::SparseSample>* input = &chain_input;
    for (std::size_t j = 0; j < depth; ++j) {
      const int node_id = chain.nodes[j];
      const auto idx = static_cast<std::size_t>(node_id);
      const LayerSpec& ls = spec_.graph.node(node_id).spec;
      const ChainLayerWindows& lw = chain.layers[j];
      const sparse::RowWindow window{lw.win0[tile], lw.win1[tile]};
      const int own0 = lw.own0[tile];
      const int own1 = lw.own1[tile];
      if (exec_observer_ != nullptr && (tile > 0 || j > 0)) {
        obs_t0 = exec_now_ns();
      }
      const Route route = node_route_[idx];
      const quant::NodeQuantPlan* nq = node_quant(idx);
      std::vector<sparse::SparseSample>& out_carrier =
          banded ? ts.carriers[j % 2] : sparse_values_[idx];
      sparse::ConvWork work;
      // The window's conv output as COO: the int8 gather kernels sample
      // by sample when planned, else the float batch kernels over the
      // per-run packed weights.
      const auto gather = [&](std::vector<sparse::SparseSample>& out) {
        if (nq != nullptr) {
          out.resize(batch);
          for (std::size_t n = 0; n < batch; ++n) {
            out[n] = quant::int8_sparse_conv2d_csr(
                (*input)[n], nq->weights, biases_[idx], nq->input_scale,
                &work, &workspace_, &window);
          }
          return;
        }
        const std::vector<float>& packed =
            workspace_.packed_slot(static_cast<int>(idx));
        out = sparse::sparse_conv2d_csr_batch_window(
            *input, weights_[idx], biases_[idx], ls.conv, window, &work,
            &workspace_, sparse::SubmanifoldThreading::kAuto, packed);
      };
      if (is_spiking_[idx]) {
        // Synaptic current over the window rows, then the banded LIF
        // step. The LIF update needs dense current: narrow layers
        // scatter straight into the window tensor (few output planes
        // per tap, no COO bookkeeping), wide ones gather and densify —
        // the zero fill is the zero-bias dense fill sparse routes
        // require, so both match dense execution bitwise.
        if (nq == nullptr && scatter_current_route(ls.conv)) {
          sparse::sparse_conv2d_window_into(*input, weights_[idx],
                                            biases_[idx], ls.conv, window,
                                            ts.current_window, &work);
        } else {
          std::vector<sparse::SparseSample> current;
          gather(current);
          const int rows = window.out_row1 - window.out_row0;
          ts.current_window.reset(TensorShape{static_cast<int>(batch),
                                              ls.out_shape.c, rows,
                                              ls.out_shape.w});
          std::fill(ts.current_window.data().begin(),
                    ts.current_window.data().end(), 0.0f);
          for (std::size_t n = 0; n < batch; ++n) {
            for (int c = 0; c < ls.out_shape.c; ++c) {
              for (const sparse::CooEntry& e :
                   current[n][static_cast<std::size_t>(c)].entries()) {
                ts.current_window.at(static_cast<int>(n), c,
                                     e.row - window.out_row0, e.col) =
                    e.value;
              }
            }
          }
        }
        if (ts.spike_entries.size() < batch) {
          ts.spike_entries.resize(batch);
        }
        for (auto& per_sample : ts.spike_entries) {
          for (auto& entries : per_sample) entries.clear();
        }
        lif_[idx].step_rows(ts.current_window, window.out_row0, own0, own1,
                            ts.spike_entries);
        out_carrier.resize(batch);
        for (std::size_t n = 0; n < batch; ++n) {
          auto& sample = out_carrier[n];
          sample.resize(static_cast<std::size_t>(ls.out_shape.c));
          for (int c = 0; c < ls.out_shape.c; ++c) {
            auto& entries = ts.spike_entries[n][static_cast<std::size_t>(c)];
            sample[static_cast<std::size_t>(c)] =
                sparse::CooChannel::from_sorted_entries(
                    ls.out_shape.h, ls.out_shape.w,
                    banded ? std::vector<sparse::CooEntry>(entries.begin(),
                                                           entries.end())
                           : std::move(entries));
          }
        }
      } else {
        gather(out_carrier);
        if (ls.relu_after) {
          // Sparse ReLU: dropping negative entries leaves exactly relu()
          // of the dense image (implicit zeros are fixpoints).
          for (sparse::SparseSample& sample : out_carrier) {
            sparse::relu_sample_inplace(sample);
          }
        }
      }
      if (banded) {
        for (std::size_t n = 0; n < batch; ++n) {
          for (int c = 0; c < ls.out_shape.c; ++c) {
            const auto owned = owned_entries(
                out_carrier[n][static_cast<std::size_t>(c)].entries(), own0,
                own1);
            auto& acc = chain.acc[j][n][static_cast<std::size_t>(c)];
            acc.insert(acc.end(), owned.begin(), owned.end());
          }
        }
      }
      exec_stats_.sparse_macs += work.sparse_macs;
      exec_stats_.dense_macs_avoided += work.dense_macs;
      if (exec_observer_ != nullptr) {
        exec_observer_->on_node(node_id, route, timestep, obs_t0,
                                exec_now_ns(), tile, chain.tiles);
      }
      input = &out_carrier;
    }
  }

  // Publish: the committed owned bands concatenate in tile order, so
  // each channel's entry list is row-major sorted by construction and
  // adopts O(1); spiking members publish the banded timestep.
  for (std::size_t j = 0; j < depth; ++j) {
    const auto idx = static_cast<std::size_t>(chain.nodes[j]);
    if (is_spiking_[idx]) lif_[idx].end_step();
    sparse_valid_[idx] = 1;
    dense_valid_[idx] = 0;
    if (!banded) continue;
    const LayerSpec& ls = spec_.graph.node(chain.nodes[j]).spec;
    auto& out_samples = sparse_values_[idx];
    out_samples.resize(batch);
    for (std::size_t n = 0; n < batch; ++n) {
      auto& sample = out_samples[n];
      sample.resize(static_cast<std::size_t>(ls.out_shape.c));
      for (int c = 0; c < ls.out_shape.c; ++c) {
        auto& entries = chain.acc[j][n][static_cast<std::size_t>(c)];
        sample[static_cast<std::size_t>(c)] =
            sparse::CooChannel::from_sorted_entries(
                ls.out_shape.h, ls.out_shape.w, std::move(entries));
        entries = {};
      }
    }
  }
}

const DenseTensor& FunctionalNetwork::dense_value(int node_id) {
  const auto idx = static_cast<std::size_t>(node_id);
  if (!dense_valid_[idx]) {
    if (!sparse_valid_[idx]) {
      throw std::logic_error("dense_value: node " + std::to_string(node_id) +
                             " has no value this timestep");
    }
    densify_samples(sparse_values_[idx], values_[idx]);
    dense_valid_[idx] = 1;
    ++exec_stats_.densify_boundaries;
  }
  return values_[idx];
}

const std::vector<sparse::SparseSample>& FunctionalNetwork::sparse_value(
    int node_id) {
  const auto idx = static_cast<std::size_t>(node_id);
  if (!sparse_valid_[idx]) {
    const DenseTensor& dense = dense_value(node_id);
    auto& samples = sparse_values_[idx];
    samples.resize(static_cast<std::size_t>(dense.shape().n));
    for (int n = 0; n < dense.shape().n; ++n) {
      samples[static_cast<std::size_t>(n)] =
          sparse::slice_to_channels(dense, n);
    }
    sparse_valid_[idx] = 1;
    ++exec_stats_.sparsify_boundaries;
  }
  return sparse_values_[idx];
}

void FunctionalNetwork::run_quant_conv(const quant::NodeQuantPlan& nq,
                                       const DenseTensor& input,
                                       std::span<const float> bias,
                                       DenseTensor& out) {
  if (quant_plan_->simulate) {
    quant::quantize_activations_reference(input, nq.input_scale,
                                          quant_staging_);
    conv2d_into(quant_staging_, nq.weights.fake, bias, nq.weights.spec, out,
                &workspace_);
    return;
  }
  quant::int8_conv2d_into(input, nq.weights, bias, nq.input_scale, out,
                          &workspace_);
}

void FunctionalNetwork::run_quant_tconv(const quant::NodeQuantPlan& nq,
                                        const DenseTensor& input,
                                        std::span<const float> bias,
                                        DenseTensor& out) {
  if (quant_plan_->simulate) {
    quant::quantize_activations_reference(input, nq.input_scale,
                                          quant_staging_);
    out = transposed_conv2d(quant_staging_, nq.weights.fake, bias,
                            nq.weights.spec);
    return;
  }
  quant::int8_transposed_conv2d_into(input, nq.weights, bias, nq.input_scale,
                                     out, &workspace_);
}

DenseTensor FunctionalNetwork::run_quant_fc(const quant::NodeQuantPlan& nq,
                                            const DenseTensor& input,
                                            std::span<const float> bias) {
  if (quant_plan_->simulate) {
    quant::quantize_activations_reference(input, nq.input_scale,
                                          quant_staging_);
    return fully_connected(quant_staging_, nq.weights.fake, bias);
  }
  return quant::int8_fully_connected(input, nq.weights, bias, nq.input_scale,
                                     &workspace_);
}

void FunctionalNetwork::reset_spiking_state() {
  for (std::size_t i = 0; i < lif_.size(); ++i) {
    if (is_spiking_[i]) lif_[i].reset();
  }
}

void FunctionalNetwork::ensure_lif_batch(int batch) {
  for (const LayerNode& node : spec_.graph.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    if (!is_spiking_[idx] || lif_[idx].shape().n == batch) continue;
    const LayerSpec& ls = node.spec;
    // Independent per-sample membranes: the LIF update is elementwise,
    // so batching the state shape is all per-sample isolation needs.
    lif_[idx] = LifState(
        TensorShape{batch, ls.out_shape.c, ls.out_shape.h, ls.out_shape.w},
        ls.lif, channel_leak_[idx], channel_threshold_[idx]);
  }
}

DenseTensor FunctionalNetwork::run(std::span<const DenseTensor> event_steps,
                                   const DenseTensor* image) {
  return run_impl(event_steps, image, 1);
}

DenseTensor FunctionalNetwork::run_batched(
    std::span<const DenseTensor> event_steps, const DenseTensor* image) {
  if (event_steps.empty()) {
    throw std::invalid_argument("run_batched: no event steps");
  }
  const int batch = event_steps[0].shape().n;
  for (const DenseTensor& step : event_steps) {
    if (step.shape().n != batch) {
      throw std::invalid_argument("run_batched: inconsistent batch sizes");
    }
  }
  if (image != nullptr && image->shape().n == 1 && batch > 1) {
    // Tile the (batch-invariant) image across the batch once.
    const TensorShape& is = image->shape();
    image_batch_.reset(TensorShape{batch, is.c, is.h, is.w});
    const std::size_t block = image->stride_n();
    for (int n = 0; n < batch; ++n) {
      std::copy(image->raw(), image->raw() + block,
                image_batch_.raw() + static_cast<std::size_t>(n) * block);
    }
    image = &image_batch_;
  }
  return run_impl(event_steps, image, batch);
}

DenseTensor FunctionalNetwork::run_impl(
    std::span<const DenseTensor> event_steps, const DenseTensor* image,
    int batch) {
  const std::vector<int> inputs = spec_.graph.input_ids();
  const std::vector<int> outputs = spec_.graph.output_ids();
  if (static_cast<int>(event_steps.size()) != spec_.timesteps) {
    throw std::invalid_argument(
        "run: expected " + std::to_string(spec_.timesteps) +
        " timestep inputs, got " + std::to_string(event_steps.size()));
  }
  if (inputs.size() > 1 && image == nullptr) {
    throw std::invalid_argument("run: network requires an image input");
  }
  ensure_lif_batch(batch);
  reset_spiking_state();

  DenseTensor accumulated;
  const std::size_t n_nodes = spec_.graph.size();
  values_.resize(n_nodes);
  sparse_values_.resize(n_nodes);
  std::vector<DenseTensor>& values = values_;
  exec_stats_ = ExecStats{};
  prepare_packed_weights();
  sync_chains();

  // Timestep-invariant caching: stateless nodes fed only by the constant
  // image input compute identical values every timestep (e.g. the whole
  // Fusion-FlowNet / HALSIE image encoder), so after t == 0 they are
  // skipped and their cached value reused — bitwise identical to
  // recomputation. Hooks observe (and may mutate) every node at every
  // timestep, so an installed hook disables the cache.
  const bool cache_invariant = !activation_hook_;

  for (int t = 0; t < spec_.timesteps; ++t) {
    const DenseTensor& step = event_steps[static_cast<std::size_t>(t)];
    // Every non-cached node recomputes this timestep; neither
    // representation of the previous step's activations is valid any
    // more.
    if (t == 0 || !cache_invariant) {
      dense_valid_.assign(n_nodes, 0);
      sparse_valid_.assign(n_nodes, 0);
    } else {
      for (std::size_t i = 0; i < n_nodes; ++i) {
        if (!time_invariant_[i]) {
          dense_valid_[i] = 0;
          sparse_valid_[i] = 0;
        }
      }
    }
    for (const LayerNode& node : spec_.graph.nodes()) {
      const LayerSpec& ls = node.spec;
      const auto idx = static_cast<std::size_t>(node.id);
      if (t > 0 && cache_invariant && time_invariant_[idx] &&
          (dense_valid_[idx] || sparse_valid_[idx])) {
        continue;  // cached from t == 0
      }
      // Sparse-routed nodes run inside their chain: the head walks every
      // member (filling the per-node COO carriers, which densify lazily
      // at route boundaries — dense_value); members, which always follow
      // their head in node order, then skip their slot.
      if (const int chain = chain_of_node_[idx]; chain >= 0) {
        ChainExec& exec = chains_[static_cast<std::size_t>(chain)];
        if (node.id == exec.nodes.front()) run_chain(exec, t);
        continue;
      }
      ++exec_stats_.node_executions;
      std::uint64_t obs_t0 = 0;
      if (exec_observer_ != nullptr) obs_t0 = exec_now_ns();
      // Dense node outputs land in the persistent per-node buffer, so
      // steady state reuses the previous call's allocations.
      DenseTensor& out = values[idx];
      switch (ls.kind) {
        case LayerKind::kInput: {
          const bool is_event_input = node.id == inputs.front();
          const DenseTensor& src = is_event_input ? step : *image;
          const TensorShape& ss = src.shape();
          if (ss.n != batch || ss.c != ls.out_shape.c ||
              ss.h != ls.out_shape.h || ss.w != ls.out_shape.w) {
            throw std::invalid_argument("run: input shape mismatch at '" +
                                        ls.name + "'");
          }
          out = src;
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kConv: {
          const DenseTensor& src = dense_value(node.parents[0]);
          if (const auto* nq = node_quant(idx)) {
            run_quant_conv(*nq, src, biases_[idx], out);
          } else {
            conv2d_into(src, weights_[idx], biases_[idx], ls.conv, out,
                        &workspace_);
          }
          if (ls.relu_after) relu_inplace(out);
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kTransposedConv: {
          const DenseTensor& src = dense_value(node.parents[0]);
          if (const auto* nq = node_quant(idx)) {
            run_quant_tconv(*nq, src, biases_[idx], out);
          } else {
            out = transposed_conv2d(src, weights_[idx], biases_[idx],
                                    ls.conv);
          }
          if (ls.relu_after) relu_inplace(out);
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kSpikingConv:
        case LayerKind::kAdaptiveSpikingConv: {
          const DenseTensor& src = dense_value(node.parents[0]);
          if (const auto* nq = node_quant(idx)) {
            run_quant_conv(*nq, src, biases_[idx], conv_scratch_);
          } else {
            conv2d_into(src, weights_[idx], biases_[idx], ls.conv,
                        conv_scratch_, &workspace_);
          }
          out = lif_[idx].step(conv_scratch_);
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kFullyConnected: {
          const DenseTensor& src = dense_value(node.parents[0]);
          if (const auto* nq = node_quant(idx)) {
            out = run_quant_fc(*nq, src, biases_[idx]);
          } else {
            out = fully_connected(src, weights_[idx], biases_[idx]);
          }
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kMaxPool:
          out = max_pool(dense_value(node.parents[0]), ls.pool_kernel);
          dense_valid_[idx] = 1;
          break;
        case LayerKind::kAvgPool:
          out = avg_pool(dense_value(node.parents[0]), ls.pool_kernel);
          dense_valid_[idx] = 1;
          break;
        case LayerKind::kUpsample:
          out = upsample_nearest(dense_value(node.parents[0]),
                                 ls.upsample_factor);
          dense_valid_[idx] = 1;
          break;
        case LayerKind::kConcat: {
          const DenseTensor& a = dense_value(node.parents[0]);
          const DenseTensor& b = dense_value(node.parents[1]);
          const int h = std::min(a.shape().h, b.shape().h);
          const int w = std::min(a.shape().w, b.shape().w);
          out = concat_channels(center_crop(a, h, w), center_crop(b, h, w));
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kAdd: {
          const DenseTensor& a = dense_value(node.parents[0]);
          const DenseTensor& b = dense_value(node.parents[1]);
          const int h = std::min(a.shape().h, b.shape().h);
          const int w = std::min(a.shape().w, b.shape().w);
          out = add(center_crop(a, h, w), center_crop(b, h, w));
          dense_valid_[idx] = 1;
          break;
        }
        case LayerKind::kOutput:
          out = dense_value(node.parents[0]);
          dense_valid_[idx] = 1;
          break;
      }
      if (activation_hook_ && ls.kind != LayerKind::kInput &&
          ls.kind != LayerKind::kOutput) {
        activation_hook_(node.id, out);
      }
      if (exec_observer_ != nullptr) {
        exec_observer_->on_node(node.id, Route::kDense, t, obs_t0,
                                exec_now_ns(), 0, 1);
      }
    }

    const DenseTensor& step_out =
        values[static_cast<std::size_t>(outputs.front())];
    if (t == 0) {
      accumulated = step_out;
    } else {
      // add()'s per-element sum, in place: no fresh buffer per timestep.
      float* acc = accumulated.raw();
      const float* o = step_out.raw();
      for (std::size_t i = 0; i < accumulated.size(); ++i) acc[i] += o[i];
    }
  }

  if (spec_.timesteps > 1) {
    const float inv = 1.0f / static_cast<float>(spec_.timesteps);
    for (float& v : accumulated.data()) v *= inv;
  }
  return accumulated;
}

double FunctionalNetwork::mean_firing_rate(int node_id) const {
  if (node_id < 0 || node_id >= static_cast<int>(lif_.size())) return 0.0;
  const auto idx = static_cast<std::size_t>(node_id);
  return is_spiking_[idx] ? lif_[idx].mean_firing_rate() : 0.0;
}

double FunctionalNetwork::network_firing_rate() const {
  double acc = 0.0;
  int count = 0;
  for (std::size_t i = 0; i < lif_.size(); ++i) {
    if (is_spiking_[i]) {
      acc += lif_[i].mean_firing_rate();
      ++count;
    }
  }
  return count > 0 ? acc / count : 0.0;
}

}  // namespace evedge::nn
