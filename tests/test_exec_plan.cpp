// Density-adaptive execution planner + route-dispatched engine tests:
// zoo-wide bitwise parity of planner-routed run()/run_batched() against
// dense execution, CSR chain boundary accounting, density telemetry
// agreement (hook, firing rate, thread counts, the cost model's shared
// probe), plan validation atomicity and int8 composition.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "core/batch_executor.hpp"
#include "core/inference_cost.hpp"
#include "nn/engine.hpp"
#include "nn/exec_plan.hpp"
#include "nn/zoo.hpp"
#include "quant/accuracy.hpp"
#include "quant/calibrate.hpp"
#include "sparse/sparse_frame.hpp"
#include "sparse/sparse_ops.hpp"

namespace en = evedge::nn;
namespace es = evedge::sparse;
namespace eq = evedge::quant;
namespace ec = evedge::core;

namespace {

struct Probe {
  std::vector<es::DenseTensor> steps;
  es::DenseTensor image;
  bool has_image = false;

  [[nodiscard]] const es::DenseTensor* image_ptr() const {
    return has_image ? &image : nullptr;
  }
};

/// Sparse event-like inputs matching the network's representation.
[[nodiscard]] Probe make_probe(const en::NetworkSpec& spec,
                               std::uint64_t seed, double fill = 0.02) {
  auto samples = eq::make_validation_set(spec, 1, seed, fill);
  Probe probe;
  probe.steps = std::move(samples[0].event_steps);
  if (samples[0].image.has_value()) {
    probe.image = std::move(*samples[0].image);
    probe.has_image = true;
  }
  return probe;
}

/// A small all-conv chain: sparse input -> three zero-bias convs (the
/// middle one strided), the canonical CSR-chain shape.
[[nodiscard]] en::NetworkSpec chain_spec() {
  en::NetworkSpec net;
  net.name = "chain3";
  net.n_bins = 1;
  net.timesteps = 1;
  en::NetworkGraph& g = net.graph;
  const int in = g.add_input("events", en::TensorShape{1, 2, 32, 44});
  en::LayerSpec c1;
  c1.name = "c1";
  c1.kind = en::LayerKind::kConv;
  c1.conv = es::Conv2dSpec{2, 8, 3, 1, 1};
  const int n1 = g.add_layer(c1, {in});
  en::LayerSpec c2 = c1;
  c2.name = "c2";
  c2.conv = es::Conv2dSpec{8, 8, 3, 2, 1};
  const int n2 = g.add_layer(c2, {n1});
  en::LayerSpec c3 = c1;
  c3.name = "c3";
  c3.conv = es::Conv2dSpec{8, 8, 3, 1, 1};
  const int n3 = g.add_layer(c3, {n2});
  en::LayerSpec out;
  out.name = "out";
  out.kind = en::LayerKind::kOutput;
  g.add_layer(out, {n3});
  g.validate();
  return net;
}

[[nodiscard]] en::ExecutionPlan all_csr_plan(const en::NetworkSpec& spec,
                                             std::vector<int> nodes) {
  en::ExecutionPlan plan;
  plan.route.assign(spec.graph.size(), en::Route::kDense);
  plan.output_density.assign(spec.graph.size(), 1.0);
  for (const int id : nodes) {
    plan.route[static_cast<std::size_t>(id)] = en::Route::kCsr;
  }
  return plan;
}

/// Rebuilds `plan`'s TilePlan with a forced exit-row size (clamped per
/// chain), leaving the routes untouched.
[[nodiscard]] en::ExecutionPlan with_forced_tiles(const en::NetworkSpec& spec,
                                                  en::ExecutionPlan plan,
                                                  int rows) {
  en::TileOptions topt;
  topt.forced_tile_rows = rows;
  plan.tiles = en::build_tile_plan(spec, plan, topt);
  return plan;
}

/// A three-deep spiking chain (middle conv strided): the shape the tile
/// walker streams, with LIF state carried across tile boundaries. At the
/// default threshold the tail barely fires on sparse probes; lower
/// thresholds keep every layer active.
[[nodiscard]] en::NetworkSpec spiking_chain_spec(
    float v_threshold = en::LifParams{}.v_threshold) {
  en::NetworkSpec net;
  net.name = "schain3";
  net.n_bins = 1;
  net.timesteps = 3;
  en::NetworkGraph& g = net.graph;
  const int in = g.add_input("events", en::TensorShape{1, 2, 32, 44});
  en::LayerSpec s1;
  s1.name = "s1";
  s1.kind = en::LayerKind::kSpikingConv;
  s1.conv = es::Conv2dSpec{2, 8, 3, 1, 1};
  s1.lif.v_threshold = v_threshold;
  const int n1 = g.add_layer(s1, {in});
  en::LayerSpec s2 = s1;
  s2.name = "s2";
  s2.conv = es::Conv2dSpec{8, 8, 3, 2, 1};
  const int n2 = g.add_layer(s2, {n1});
  en::LayerSpec s3 = s1;
  s3.name = "s3";
  s3.conv = es::Conv2dSpec{8, 8, 3, 1, 1};
  const int n3 = g.add_layer(s3, {n2});
  en::LayerSpec out;
  out.name = "out";
  out.kind = en::LayerKind::kOutput;
  g.add_layer(out, {n3});
  g.validate();
  return net;
}

}  // namespace

// ------------------------------------------------- zoo-wide bitwise parity

class PlannerParity : public ::testing::TestWithParam<en::NetworkId> {};

// Planner-routed run() must be bitwise identical to all-dense execution
// for every zoo network (kCsr preserves dense numerics exactly on the
// engine's zero-bias layers).
TEST_P(PlannerParity, RunMatchesDenseBitwise) {
  const auto spec = en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 11);

  const auto dense_out = net.run(probe.steps, probe.image_ptr());
  const auto plan =
      en::ExecutionPlanner::calibrate(net, probe.steps, probe.image_ptr());
  net.set_execution_plan(&plan);
  const auto routed_out = net.run(probe.steps, probe.image_ptr());

  ASSERT_EQ(routed_out.shape(), dense_out.shape());
  EXPECT_EQ(es::max_abs_diff(routed_out, dense_out), 0.0f) << spec.name;
  net.set_execution_plan(nullptr);
}

// Batched planner-routed execution matches per-sample dense execution
// bitwise (the batched sparse kernels are bitwise batch-1 consistent).
TEST_P(PlannerParity, BatchedRunMatchesDenseBitwise) {
  const auto spec = en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  constexpr int kBatch = 3;

  // One shared grayscale image across the batch (run_batched tiles it).
  std::vector<Probe> probes;
  std::vector<es::DenseTensor> expected;
  for (int n = 0; n < kBatch; ++n) {
    probes.push_back(make_probe(spec, 20 + static_cast<std::uint64_t>(n)));
    expected.push_back(net.run(probes.back().steps, probes[0].image_ptr()));
  }

  std::vector<es::DenseTensor> batched_steps;
  for (int t = 0; t < spec.timesteps; ++t) {
    const auto& s = probes[0].steps[static_cast<std::size_t>(t)].shape();
    es::DenseTensor step(es::TensorShape{kBatch, s.c, s.h, s.w});
    for (int n = 0; n < kBatch; ++n) {
      const auto& src =
          probes[static_cast<std::size_t>(n)].steps[static_cast<std::size_t>(t)];
      std::copy(src.raw(), src.raw() + src.size(),
                step.raw() + static_cast<std::size_t>(n) * step.stride_n());
    }
    batched_steps.push_back(std::move(step));
  }

  const auto plan = en::ExecutionPlanner::calibrate(net, probes[0].steps,
                                                    probes[0].image_ptr());
  net.set_execution_plan(&plan);
  const auto out = net.run_batched(batched_steps, probes[0].image_ptr());
  ASSERT_EQ(out.shape().n, kBatch);
  for (int n = 0; n < kBatch; ++n) {
    const auto& ref = expected[static_cast<std::size_t>(n)];
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(out.data()[static_cast<std::size_t>(n) * out.stride_n() + i],
                ref.data()[i])
          << spec.name << " sample " << n << " element " << i;
    }
  }
  net.set_execution_plan(nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, PlannerParity,
    ::testing::Values(en::NetworkId::kSpikeFlowNet,
                      en::NetworkId::kFusionFlowNet,
                      en::NetworkId::kAdaptiveSpikeNet, en::NetworkId::kHalsie,
                      en::NetworkId::kHidalgoDepth, en::NetworkId::kDotie,
                      en::NetworkId::kEvFlowNet),
    [](const ::testing::TestParamInfo<en::NetworkId>& param_info) {
      auto name = en::to_string(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The planner actually routes layers sparse on the spiking networks (the
// whole point) and leaves the dense-activation ANN image branches alone.
TEST(ExecutionPlanner, RoutesSparseLayersOnSpikingNets) {
  for (const auto id :
       {en::NetworkId::kDotie, en::NetworkId::kSpikeFlowNet,
        en::NetworkId::kAdaptiveSpikeNet}) {
    const auto spec = en::build_network(id, en::ZooConfig::test_scale());
    en::FunctionalNetwork net(spec, 7);
    const auto probe = make_probe(spec, 31, 0.01);
    const auto plan =
        en::ExecutionPlanner::calibrate(net, probe.steps, probe.image_ptr());
    EXPECT_GT(plan.sparse_node_count(), 0) << en::to_string(id);
    // And the engine reports sparse work when running it.
    net.set_execution_plan(&plan);
    (void)net.run(probe.steps, probe.image_ptr());
    EXPECT_GT(net.last_exec_stats().sparse_node_runs, 0u) << en::to_string(id);
    EXPECT_GT(net.last_exec_stats().dense_macs_avoided,
              net.last_exec_stats().sparse_macs)
        << en::to_string(id);
    net.set_execution_plan(nullptr);
  }
}

// ------------------------------------------------------- fused CSR chains

// Consecutive kCsr layers exchange the COO carrier directly: one
// sparsify at the chain head, one densify at the output boundary, no
// conversions in between — and the result still bit-matches dense.
TEST(ExecutionPlan, CsrChainCrossesBoundariesOnlyAtEnds) {
  const auto spec = chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 41, 0.02);
  const auto dense_out = net.run(probe.steps);

  const auto plan = all_csr_plan(spec, {1, 2, 3});
  net.set_execution_plan(&plan);
  const auto routed_out = net.run(probe.steps);
  EXPECT_EQ(es::max_abs_diff(routed_out, dense_out), 0.0f);

  const en::ExecStats& stats = net.last_exec_stats();
  EXPECT_EQ(stats.sparse_node_runs, 3u);
  EXPECT_EQ(stats.sparsify_boundaries, 1u);  // event input only
  EXPECT_EQ(stats.densify_boundaries, 1u);   // output node only
  net.set_execution_plan(nullptr);
}

// --------------------------------------------------- density telemetry

// Planner density estimates must agree with densities computed directly
// from the activations, and with the LIF firing rate on spiking nodes —
// at any thread count.
TEST(ExecutionPlanner, DensityTelemetryMatchesDirectMeasurement) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 71, 0.02);

  // Direct measurement: mean per-node density over timesteps via a hook.
  std::vector<double> acc(spec.graph.size(), 0.0);
  std::vector<int> hits(spec.graph.size(), 0);
  net.set_activation_hook([&](int id, es::DenseTensor& t) {
    acc[static_cast<std::size_t>(id)] += t.density();
    ++hits[static_cast<std::size_t>(id)];
  });
  (void)net.run(probe.steps);
  net.set_activation_hook(nullptr);

  const auto plan = en::ExecutionPlanner::calibrate(net, probe.steps);
  ASSERT_EQ(plan.output_density.size(), spec.graph.size());
  for (const auto& node : spec.graph.nodes()) {
    const auto idx = static_cast<std::size_t>(node.id);
    if (hits[idx] > 0) {
      EXPECT_NEAR(plan.output_density[idx], acc[idx] / hits[idx], 1e-12)
          << node.spec.name;
    }
    if (node.spec.kind == en::LayerKind::kSpikingConv) {
      // calibrate()'s last probe run left the firing counters in place.
      EXPECT_NEAR(plan.output_density[idx], net.mean_firing_rate(node.id),
                  1e-9)
          << node.spec.name;
    }
  }
  // The cost model's density probe is the planner's: on the same
  // weights and input it reports exactly calibrate()'s density on every
  // spiking node (its ANN floor and input overrides aside).
  const auto profile = ec::measure_activation_densities(spec, 7, 0.02, 71);
  int spiking = 0;
  for (const auto& node : spec.graph.nodes()) {
    if (en::domain_of(node.spec.kind) != en::Domain::kSnn) continue;
    const auto idx = static_cast<std::size_t>(node.id);
    EXPECT_EQ(profile.density[idx], plan.output_density[idx])
        << node.spec.name;
    ++spiking;
  }
  EXPECT_GT(spiking, 0);

  // The event-input density is the probe's own fill.
  double input_acc = 0.0;
  for (const auto& step : probe.steps) input_acc += step.density();
  EXPECT_NEAR(plan.probe_input_density,
              input_acc / static_cast<double>(probe.steps.size()), 1e-12);

  // Thread-count invariance: the engine is bitwise thread-invariant, so
  // the telemetry must be too.
  const char* saved = std::getenv("EVEDGE_THREADS");
  const std::string saved_value = saved != nullptr ? saved : "";
  ASSERT_EQ(setenv("EVEDGE_THREADS", "1", 1), 0);
  const auto plan1 = en::ExecutionPlanner::calibrate(net, probe.steps);
  ASSERT_EQ(setenv("EVEDGE_THREADS", "3", 1), 0);
  const auto plan3 = en::ExecutionPlanner::calibrate(net, probe.steps);
  if (saved != nullptr) {
    setenv("EVEDGE_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("EVEDGE_THREADS");
  }
  EXPECT_EQ(plan1.output_density, plan3.output_density);
  EXPECT_EQ(plan1.route, plan3.route);
}

// ---------------------------------------------------- plan validation

TEST(ExecutionPlan, SetPlanValidatesAtomically) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 81);
  const auto before = net.run(probe.steps);

  // Route on a non-conv node (the output) is rejected.
  en::ExecutionPlan bad = all_csr_plan(spec, {});
  bad.route.back() = en::Route::kCsr;
  EXPECT_THROW(net.set_execution_plan(&bad), std::invalid_argument);

  // Sparse route on a node with non-zero bias is rejected.
  en::ExecutionPlan biased = all_csr_plan(spec, {1});
  net.bias(1).assign(net.bias(1).size(), 0.25f);
  EXPECT_THROW(net.set_execution_plan(&biased), std::invalid_argument);
  net.bias(1).assign(net.bias(1).size(), 0.0f);

  // Size mismatch is rejected.
  en::ExecutionPlan short_plan;
  short_plan.route.assign(2, en::Route::kDense);
  EXPECT_THROW(net.set_execution_plan(&short_plan), std::invalid_argument);

  // All rejections left dense execution fully intact.
  const auto after = net.run(probe.steps);
  EXPECT_EQ(es::max_abs_diff(before, after), 0.0f);
  EXPECT_EQ(net.execution_plan(), nullptr);
}

// An installed activation hook forces dense execution (hooks observe and
// mutate dense activations), without uninstalling the plan.
TEST(ExecutionPlan, ActivationHookForcesDenseExecution) {
  const auto spec = chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 91, 0.02);
  const auto plan = all_csr_plan(spec, {1, 2, 3});
  net.set_execution_plan(&plan);

  int hook_calls = 0;
  net.set_activation_hook(
      [&hook_calls](int, es::DenseTensor&) { ++hook_calls; });
  (void)net.run(probe.steps);
  EXPECT_GT(hook_calls, 0);
  EXPECT_EQ(net.last_exec_stats().sparse_node_runs, 0u);
  net.set_activation_hook(nullptr);

  (void)net.run(probe.steps);
  EXPECT_EQ(net.last_exec_stats().sparse_node_runs, 3u);
  net.set_execution_plan(nullptr);
}

// ----------------------------------------------------- int8 composition

// Sparse routes compose with the quant plan: planner-routed int8
// execution bit-matches dense int8 execution and stays within one
// quantization step of the fake-quant reference.
TEST(ExecutionPlan, ComposesWithQuantPlan) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  const auto calib = eq::make_validation_set(spec, 2, 9, 0.02);
  const auto eval = eq::make_validation_set(spec, 1, 99, 0.02);
  en::FunctionalNetwork net(spec, 7);
  const auto table = eq::calibrate_activations(net, calib);
  const auto precisions = eq::uniform_assignment(spec, eq::Precision::kInt8);
  const auto real_plan = eq::build_quant_plan(net, precisions, table);
  const auto simulated_plan =
      eq::build_quant_plan(net, precisions, table, /*simulate=*/true);

  net.set_quant_plan(&real_plan);
  const auto dense_int8 = net.run(eval[0].event_steps);
  net.set_quant_plan(&simulated_plan);
  const auto reference = net.run(eval[0].event_steps);

  // The planner calibrates in FP32, then composes with the int8 plan.
  net.set_quant_plan(nullptr);
  const auto plan = en::ExecutionPlanner::calibrate(net, eval[0].event_steps);
  net.set_execution_plan(&plan);
  EXPECT_GT(plan.sparse_node_count(), 0);
  EXPECT_EQ(net.execution_plan(), &plan);
  net.set_quant_plan(&real_plan);
  const auto routed_int8 = net.run(eval[0].event_steps);

  ASSERT_EQ(routed_int8.shape(), dense_int8.shape());
  EXPECT_EQ(es::max_abs_diff(routed_int8, dense_int8), 0.0f);
  const double step = eq::output_quant_step(reference);
  EXPECT_LE(es::max_abs_diff(routed_int8, reference), step + 1e-6);
  // Sparse int8 kernels genuinely executed.
  (void)net.run(eval[0].event_steps);
  EXPECT_GT(net.last_exec_stats().sparse_node_runs, 0u);
  net.set_execution_plan(nullptr);
  EXPECT_EQ(net.execution_plan(), nullptr);
}

// ----------------------------------------------- batch executor planner

TEST(BatchExecutor, PlannerPathMatchesDenseExecution) {
  const auto spec = en::build_network(en::NetworkId::kDotie,
                                      en::ZooConfig::test_scale());
  const auto& shape = spec.graph.node(0).spec.out_shape;

  // Two merged frames with a few events each.
  std::vector<es::SparseFrame> frames;
  for (int n = 0; n < 2; ++n) {
    es::SparseFrame frame(shape.h, shape.w);
    for (int i = 0; i < 40; ++i) {
      es::CooChannel& ch = i % 2 == 0 ? frame.positive() : frame.negative();
      ch.accumulate((i * 7 + n) % shape.h, (i * 13 + 3 * n) % shape.w, 1.0f);
    }
    frames.push_back(std::move(frame));
  }

  en::FunctionalNetwork dense_net(spec, 7);
  ec::BatchExecutor dense_exec(dense_net);
  const auto dense_out = dense_exec.execute(frames);

  en::FunctionalNetwork planned_net(spec, 7);
  es::DenseTensor planned_out;
  {
    ec::BatchExecutor planned_exec(planned_net);
    planned_exec.enable_execution_planner();
    planned_out = planned_exec.execute(frames);
    EXPECT_NE(planned_exec.execution_plan(), nullptr);
    EXPECT_GT(planned_exec.execution_plan()->sparse_node_count(), 0);
    // Plan uninstalls with the executor.
  }
  EXPECT_EQ(planned_net.execution_plan(), nullptr);
  EXPECT_EQ(es::max_abs_diff(planned_out, dense_out), 0.0f);
}

// ------------------------------------- timestep-invariant caching

// The constant-image subgraph (e.g. HALSIE's image encoder) computes the
// same values every timestep: the engine runs it once per inference and
// reuses the cached activations, bitwise identically — and an installed
// hook (which must observe every node at every timestep) disables the
// cache.
TEST(Engine, TimeInvariantImageBranchIsCachedAcrossTimesteps) {
  const auto spec =
      en::build_network(en::NetworkId::kHalsie, en::ZooConfig::test_scale());
  ASSERT_GT(spec.timesteps, 1);
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 101);

  const auto cached = net.run(probe.steps, probe.image_ptr());
  const std::size_t cached_execs = net.last_exec_stats().node_executions;

  // A no-op hook forces the uncached schedule: every node, every step.
  net.set_activation_hook([](int, es::DenseTensor&) {});
  const auto uncached = net.run(probe.steps, probe.image_ptr());
  const std::size_t full_execs = net.last_exec_stats().node_executions;
  net.set_activation_hook(nullptr);

  EXPECT_EQ(full_execs,
            spec.graph.size() * static_cast<std::size_t>(spec.timesteps));
  EXPECT_LT(cached_execs, full_execs);
  EXPECT_EQ(es::max_abs_diff(cached, uncached), 0.0f);
}

// Event-driven single-input networks have nothing to cache.
TEST(Engine, NoInvariantCachingWithoutConstantInputs) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 103);
  (void)net.run(probe.steps);
  EXPECT_EQ(net.last_exec_stats().node_executions,
            spec.graph.size() * static_cast<std::size_t>(spec.timesteps));
}

// ------------------------------------------- chain boundary primitives

TEST(SparseBoundaries, SliceRoundTripAndReluAndDensity) {
  es::DenseTensor batch(es::TensorShape{2, 3, 6, 7});
  batch.fill_random(23);
  std::size_t i = 0;
  for (float& v : batch.data()) {
    if (i++ % 5 != 0) v = 0.0f;
  }
  for (int n = 0; n < 2; ++n) {
    auto sample = es::slice_to_channels(batch, n);
    ASSERT_EQ(sample.size(), 3u);
    // Density telemetry agrees with the dense slice.
    double slice_density = 0.0;
    for (int c = 0; c < 3; ++c) {
      for (int y = 0; y < 6; ++y) {
        for (int x = 0; x < 7; ++x) {
          if (batch.at(n, c, y, x) != 0.0f) slice_density += 1.0;
        }
      }
    }
    slice_density /= 3.0 * 6.0 * 7.0;
    EXPECT_NEAR(es::sample_density(sample), slice_density, 1e-12);
    // Round trip into a fresh tensor slice reproduces the original.
    es::DenseTensor back(es::TensorShape{2, 3, 6, 7}, 42.0f);
    es::channels_into_slice(sample, back, n);
    for (int c = 0; c < 3; ++c) {
      for (int y = 0; y < 6; ++y) {
        for (int x = 0; x < 7; ++x) {
          EXPECT_EQ(back.at(n, c, y, x), batch.at(n, c, y, x));
        }
      }
    }
    // Sparse ReLU == dense ReLU.
    es::relu_sample_inplace(sample);
    for (const auto& ch : sample) {
      for (const auto& e : ch.entries()) {
        EXPECT_GT(e.value, 0.0f);
      }
      EXPECT_NO_THROW(ch.validate());
    }
  }
  EXPECT_THROW((void)es::slice_to_channels(batch, 2), std::invalid_argument);
  const auto sample = es::slice_to_channels(batch, 0);
  es::DenseTensor wrong(es::TensorShape{2, 3, 5, 7});
  EXPECT_THROW(es::channels_into_slice(sample, wrong, 0),
               std::invalid_argument);
}

// Pre-packed weights produce bitwise-identical kernel output and reject
// mismatched packings.
TEST(SparseBoundaries, PrePackedWeightsMatchAndValidate) {
  const es::Conv2dSpec spec{3, 10, 3, 1, 1};
  es::DenseTensor in(es::TensorShape{1, 3, 20, 24});
  in.fill_random(29);
  std::size_t i = 0;
  for (float& v : in.data()) {
    if (i++ % 20 != 0) v = 0.0f;
  }
  es::DenseTensor w(es::TensorShape{10, 3, 3, 3});
  w.fill_random(31, 0.4f);
  const auto channels = es::dense_to_channels(in);

  std::vector<float> packed;
  es::pack_conv_weights(w, packed);
  es::Workspace ws;
  const auto plain = es::submanifold_conv2d(channels, w, {}, spec, nullptr,
                                            &ws);
  const auto prepacked = es::submanifold_conv2d(
      channels, w, {}, spec, nullptr, &ws,
      es::SubmanifoldThreading::kAuto, packed);
  ASSERT_EQ(plain.size(), prepacked.size());
  for (std::size_t c = 0; c < plain.size(); ++c) {
    EXPECT_EQ(plain[c].entries(), prepacked[c].entries());
  }
  std::vector<float> wrong(packed.begin(), packed.end() - 1);
  EXPECT_THROW((void)es::submanifold_conv2d(
                   channels, w, {}, spec, nullptr, &ws,
                   es::SubmanifoldThreading::kAuto, wrong),
               std::invalid_argument);
}

// ------------------------------------------------ streaming tile dataflow

class TiledParity : public ::testing::TestWithParam<en::NetworkId> {};

// Tiled execution of the planner's sparse chains is bitwise identical to
// untiled (and hence to dense) for every tile geometry — including
// pathological 1-row tiles (maximum halo traffic) and the degenerate
// full-frame tile (which must collapse back to the untiled walker).
TEST_P(TiledParity, ForcedTileSizesMatchDenseBitwise) {
  const auto spec = en::build_network(GetParam(), en::ZooConfig::test_scale());
  en::FunctionalNetwork net(spec, 7);
  const auto probe = make_probe(spec, 211, 0.02);

  const auto dense_out = net.run(probe.steps, probe.image_ptr());
  const auto base =
      en::ExecutionPlanner::calibrate(net, probe.steps, probe.image_ptr());
  net.set_execution_plan(&base);
  (void)net.run(probe.steps, probe.image_ptr());
  const std::size_t untiled_execs = net.last_exec_stats().node_executions;

  // 1 = pathological row tiles, 3 = non-dividing interior boundaries,
  // 1 << 20 clamps to the chain exit extent = degenerate single tile.
  for (const int rows : {1, 3, 1 << 20}) {
    const auto tiled = with_forced_tiles(spec, base, rows);
    net.set_execution_plan(&tiled);
    const auto out = net.run(probe.steps, probe.image_ptr());
    EXPECT_EQ(es::max_abs_diff(out, dense_out), 0.0f)
        << spec.name << " tile_rows=" << rows;
    // Tile fragments count as one logical execution: the schedule-level
    // stats are geometry-invariant.
    EXPECT_EQ(net.last_exec_stats().node_executions, untiled_execs)
        << spec.name << " tile_rows=" << rows;
    net.set_execution_plan(nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, TiledParity,
    ::testing::Values(en::NetworkId::kSpikeFlowNet,
                      en::NetworkId::kFusionFlowNet,
                      en::NetworkId::kAdaptiveSpikeNet, en::NetworkId::kDotie,
                      en::NetworkId::kEvFlowNet),
    [](const ::testing::TestParamInfo<en::NetworkId>& param_info) {
      auto name = en::to_string(param_info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// Halo windows across a strided boundary: every tile size on the
// stride-2 chain must reproduce dense bitwise. Strides make the
// owned-row maps non-trivial (output row o needs input rows
// [o*s - p, o*s - p + k)), so off-by-ones show up here first.
TEST(TilePlan, HaloCorrectAcrossStrideBoundaries) {
  const auto spec = chain_spec();  // c2 has stride 2: exit plane 16 rows
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 221, 0.03);
  const auto dense_out = net.run(probe.steps);

  const auto base = all_csr_plan(spec, {1, 2, 3});
  for (const int rows : {1, 2, 3, 5, 7, 16}) {
    const auto tiled = with_forced_tiles(spec, base, rows);
    ASSERT_EQ(tiled.tiles.chains.size(), 1u);
    EXPECT_EQ(tiled.tiles.chains[0].tiles, (16 + rows - 1) / rows);
    net.set_execution_plan(&tiled);
    const auto out = net.run(probe.steps);
    EXPECT_EQ(es::max_abs_diff(out, dense_out), 0.0f) << "tile_rows=" << rows;
    net.set_execution_plan(nullptr);
  }
}

// Spiking chains tile too: LIF membrane state is double-buffered per
// timestep, so halo rows recomputed by neighbouring tiles never corrupt
// the owned-row integration — bitwise, at every geometry.
TEST(TilePlan, SpikingChainTilesBitwise) {
  const auto spec = spiking_chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 223, 0.05);
  const auto dense_out = net.run(probe.steps);

  const auto base = all_csr_plan(spec, {1, 2, 3});
  for (const int rows : {1, 4, 6}) {
    const auto tiled = with_forced_tiles(spec, base, rows);
    ASSERT_TRUE(tiled.tiles.enabled());
    net.set_execution_plan(&tiled);
    const auto out = net.run(probe.steps);
    EXPECT_EQ(es::max_abs_diff(out, dense_out), 0.0f) << "tile_rows=" << rows;
    net.set_execution_plan(nullptr);
  }
}

// The degenerate single-tile plan walks exactly like a plan with no
// TilePlan at all (whose sparse nodes the engine chains itself) and
// reports identical boundary accounting.
TEST(TilePlan, DegenerateSingleTileIsUntiled) {
  const auto spec = chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 227, 0.02);

  const auto base = all_csr_plan(spec, {1, 2, 3});
  net.set_execution_plan(&base);
  const auto untiled_out = net.run(probe.steps);
  const auto untiled = net.last_exec_stats();

  const auto degenerate = with_forced_tiles(spec, base, 1 << 20);
  EXPECT_FALSE(degenerate.tiles.enabled());
  net.set_execution_plan(&degenerate);
  const auto out = net.run(probe.steps);
  const auto stats = net.last_exec_stats();
  net.set_execution_plan(nullptr);

  EXPECT_EQ(es::max_abs_diff(out, untiled_out), 0.0f);
  EXPECT_EQ(stats.sparse_node_runs, untiled.sparse_node_runs);
  EXPECT_EQ(stats.sparsify_boundaries, untiled.sparsify_boundaries);
  EXPECT_EQ(stats.densify_boundaries, untiled.densify_boundaries);
  EXPECT_EQ(stats.sparse_macs, untiled.sparse_macs);
}

// The cache-capacity model tiles multi-layer chains once the working set
// exceeds the budget — and never a lone layer (no reuse to create).
TEST(TilePlan, CapacityModelTilesLongChainsUnderTinyBudget) {
  const auto spec = chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 231, 0.02);
  const auto dense_out = net.run(probe.steps);

  en::TileOptions tiny;
  tiny.l2_budget_bytes = 1u << 12;  // 4 KiB: everything overflows
  auto plan = all_csr_plan(spec, {1, 2, 3});
  plan.tiles = en::build_tile_plan(spec, plan, tiny);
  ASSERT_TRUE(plan.tiles.enabled());
  for (const en::TileChain& chain : plan.tiles.chains) {
    if (chain.tiles > 1) EXPECT_GE(chain.nodes.size(), 2u);
  }
  net.set_execution_plan(&plan);
  EXPECT_EQ(es::max_abs_diff(net.run(probe.steps), dense_out), 0.0f);
  net.set_execution_plan(nullptr);

  // A lone sparse layer never auto-tiles: there is no cross-layer reuse
  // for tiling to create, however tight the budget.
  const auto lone = all_csr_plan(spec, {1});
  EXPECT_FALSE(en::build_tile_plan(spec, lone, tiny).enabled());
}

// Malformed tile plans are rejected atomically, before any engine state
// changes — same contract as route validation.
TEST(TilePlan, SetPlanValidatesTileChains) {
  const auto spec = chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 233, 0.02);
  const auto before = net.run(probe.steps);

  const auto base = all_csr_plan(spec, {1, 2, 3});

  // A dense-routed member cannot be tiled.
  en::ExecutionPlan dense_member = base;
  dense_member.route[2] = en::Route::kDense;
  dense_member.tiles.chains.push_back(en::TileChain{{1, 2, 3}, 4, 4});
  EXPECT_THROW(net.set_execution_plan(&dense_member), std::invalid_argument);

  // Geometry must be consistent: tiles == ceil(exit_rows / tile_rows).
  en::ExecutionPlan bad_geom = base;
  bad_geom.tiles.chains.push_back(en::TileChain{{1, 2, 3}, 4, 3});
  EXPECT_THROW(net.set_execution_plan(&bad_geom), std::invalid_argument);

  // Chains cannot overlap.
  en::ExecutionPlan overlap = base;
  overlap.tiles.chains.push_back(en::TileChain{{1, 2}, 16, 1});
  overlap.tiles.chains.push_back(en::TileChain{{2, 3}, 8, 1});
  EXPECT_THROW(net.set_execution_plan(&overlap), std::invalid_argument);

  // Members must be consecutive parent-linked nodes.
  en::ExecutionPlan gap = base;
  gap.tiles.chains.push_back(en::TileChain{{1, 3}, 8, 2});
  EXPECT_THROW(net.set_execution_plan(&gap), std::invalid_argument);

  // Node ids must be in range.
  en::ExecutionPlan range = base;
  range.tiles.chains.push_back(en::TileChain{{99}, 1, 1});
  EXPECT_THROW(net.set_execution_plan(&range), std::invalid_argument);

  // All rejections left execution fully intact.
  EXPECT_EQ(net.execution_plan(), nullptr);
  EXPECT_EQ(es::max_abs_diff(net.run(probe.steps), before), 0.0f);
}

// Tiled int8 execution: bitwise identical to dense int8, and within one
// quantization step of the fake-quant reference — tiling composes with
// the quant plan without adding numeric drift.
TEST(TilePlan, TiledInt8WithinOneQuantStep) {
  const auto spec = en::build_network(en::NetworkId::kSpikeFlowNet,
                                      en::ZooConfig::test_scale());
  const auto calib = eq::make_validation_set(spec, 2, 9, 0.02);
  const auto eval = eq::make_validation_set(spec, 1, 99, 0.02);
  en::FunctionalNetwork net(spec, 7);
  const auto table = eq::calibrate_activations(net, calib);
  const auto precisions = eq::uniform_assignment(spec, eq::Precision::kInt8);
  const auto real_plan = eq::build_quant_plan(net, precisions, table);
  const auto simulated_plan =
      eq::build_quant_plan(net, precisions, table, /*simulate=*/true);

  net.set_quant_plan(&real_plan);
  const auto dense_int8 = net.run(eval[0].event_steps);
  net.set_quant_plan(&simulated_plan);
  const auto reference = net.run(eval[0].event_steps);

  net.set_quant_plan(nullptr);
  const auto tiled = with_forced_tiles(
      spec, en::ExecutionPlanner::calibrate(net, eval[0].event_steps), 2);
  ASSERT_TRUE(tiled.tiles.enabled());
  net.set_execution_plan(&tiled);
  net.set_quant_plan(&real_plan);
  const auto routed_int8 = net.run(eval[0].event_steps);
  net.set_execution_plan(nullptr);

  ASSERT_EQ(routed_int8.shape(), dense_int8.shape());
  EXPECT_EQ(es::max_abs_diff(routed_int8, dense_int8), 0.0f);
  const double step = eq::output_quant_step(reference);
  EXPECT_LE(es::max_abs_diff(routed_int8, reference), step + 1e-6);
}

// ------------------------------------------- sparse spike emission

// Spiking layers whose consumers run sparse emit spikes directly as COO:
// the only sparsify boundary left in an all-sparse spiking chain is the
// event input itself (one per timestep), with output unchanged.
TEST(Engine, SpikingChainEmitsSparseSpikes) {
  const auto spec = spiking_chain_spec();
  en::FunctionalNetwork net(spec, 5);
  const auto probe = make_probe(spec, 241, 0.05);
  const auto dense_out = net.run(probe.steps);

  const auto plan = all_csr_plan(spec, {1, 2, 3});
  net.set_execution_plan(&plan);
  const auto routed_out = net.run(probe.steps);
  const en::ExecStats& stats = net.last_exec_stats();
  net.set_execution_plan(nullptr);

  EXPECT_EQ(es::max_abs_diff(routed_out, dense_out), 0.0f);
  const auto steps = static_cast<std::size_t>(spec.timesteps);
  // Every member publishes its spikes as COO, so the chain sparsifies
  // only at the event input; the dense output node densifies the tail's
  // spikes once per timestep (as in CsrChainCrossesBoundariesOnlyAtEnds).
  EXPECT_EQ(stats.sparsify_boundaries, steps);
  EXPECT_EQ(stats.densify_boundaries, steps);
}

// A member demoted to dense mid-chain (here a quant-simulate node, whose
// fake-quant twin is a dense oracle) runs the dense case, and the sparse
// runs on either side of it walk as 1-tile chains — bitwise identical to
// a plan that routes that node kDense by hand.
TEST(Engine, DemotedMidChainMemberMatchesHandRoutedDense) {
  const auto spec = spiking_chain_spec(0.5f);
  en::FunctionalNetwork net(spec, 5);
  const auto calib = eq::make_validation_set(spec, 2, 243, 0.05);
  const auto table = eq::calibrate_activations(net, calib);
  const eq::PrecisionMap middle_int8{{2, eq::Precision::kInt8}};
  const eq::QuantPlan quant =
      eq::build_quant_plan(net, middle_int8, table, /*simulate=*/true);
  ASSERT_EQ(quant.nodes.size(), 1u);
  net.set_quant_plan(&quant);
  const auto probe = make_probe(spec, 245, 0.05);

  const auto tiled = with_forced_tiles(spec, all_csr_plan(spec, {1, 2, 3}), 4);
  ASSERT_EQ(tiled.tiles.chains.size(), 1u);
  ASSERT_GT(tiled.tiles.chains[0].tiles, 1);
  net.set_execution_plan(&tiled);
  const auto demoted_out = net.run(probe.steps);
  const auto steps = static_cast<std::size_t>(spec.timesteps);
  EXPECT_EQ(net.last_exec_stats().sparse_node_runs, 2 * steps);

  const auto hand = with_forced_tiles(spec, all_csr_plan(spec, {1, 3}), 4);
  net.set_execution_plan(&hand);
  const auto hand_out = net.run(probe.steps);
  net.set_execution_plan(nullptr);
  net.set_quant_plan(nullptr);

  EXPECT_GT(demoted_out.density(), 0.0);
  EXPECT_EQ(es::max_abs_diff(demoted_out, hand_out), 0.0f);
}
