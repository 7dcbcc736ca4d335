// Figure 9 reproduction: multi-task latency speedups of the Network
// Mapper over the round-robin baselines, for the paper's three
// configurations — all-ANN {EV-FlowNet, HidalgoDepth}, all-SNN {DOTIE,
// Adaptive-SpikeNet} and mixed {Fusion-FlowNet, HALSIE, DOTIE,
// HidalgoDepth} — plus the full-precision variant Ev-Edge-NMP-FP.
//
// Paper bands: NMP is 1.43x-1.81x faster than RR-Network, 1.24x-1.41x
// faster than RR-Layer, and NMP-FP is 1.05x-1.22x slower than NMP.

#include <cstdio>

#include "bench_common.hpp"
#include "core/batch_executor.hpp"
#include "core/pipeline.hpp"
#include "events/density_profile.hpp"
#include "hw/profiler.hpp"
#include "mapper/baselines.hpp"
#include "mapper/nmp.hpp"
#include "quant/accuracy.hpp"
#include "sched/scheduler.hpp"

namespace eb = evedge::bench;
namespace ec = evedge::core;
namespace ee = evedge::events;
namespace eh = evedge::hw;
namespace em = evedge::mapper;
namespace en = evedge::nn;
namespace eq = evedge::quant;
namespace ss = evedge::sched;

namespace {

struct ConfigResult {
  double nmp_us = 0.0;
  double nmp_fp_us = 0.0;
  double rr_net_us = 0.0;
  double rr_layer_us = 0.0;
};

ConfigResult evaluate_config(const en::MultiTaskConfig& config,
                             const eh::Platform& platform) {
  std::vector<en::NetworkSpec> specs;
  std::vector<eq::SensitivityModel> sensitivities;
  for (const auto id : config.networks) {
    specs.push_back(en::build_network(id, en::ZooConfig::full_scale()));
  }
  const auto profiles = eh::profile_tasks(specs, platform);

  // Accuracy surrogates calibrated on reduced-scale functional twins
  // (node ids match across scales).
  sensitivities.reserve(config.networks.size());
  std::vector<eq::AccuracyEvaluator> evaluators;
  evaluators.reserve(config.networks.size());
  for (const auto id : config.networks) {
    const auto small = en::build_network(id, en::ZooConfig::test_scale());
    evaluators.emplace_back(small, 7,
                            eq::make_validation_set(small, 3, 21));
    sensitivities.emplace_back(evaluators.back(), 2);
  }
  em::AccuracyFn accuracy = [&sensitivities](
                                int task, const ss::TaskMapping& mapping) {
    eq::PrecisionMap precisions;
    for (std::size_t n = 0; n < mapping.nodes.size(); ++n) {
      if (mapping.nodes[n].pe >= 0) {
        precisions[static_cast<int>(n)] = mapping.nodes[n].precision;
      }
    }
    return sensitivities[static_cast<std::size_t>(task)].predict(
        precisions);
  };

  em::NmpConfig nmp_cfg;
  nmp_cfg.population = 32;
  nmp_cfg.generations = 48;
  nmp_cfg.accuracy_threshold = 0.05;
  nmp_cfg.seed = 17;

  em::NetworkMapper nmp(specs, profiles, platform, accuracy, nmp_cfg);
  auto nmp_fp_cfg = nmp_cfg;
  nmp_fp_cfg.allow_reduced_precision = false;
  em::NetworkMapper nmp_fp(specs, profiles, platform, accuracy, nmp_fp_cfg);

  ConfigResult result;
  result.nmp_us = nmp.run().best_schedule.max_task_latency_us;
  result.nmp_fp_us = nmp_fp.run().best_schedule.max_task_latency_us;
  result.rr_net_us =
      ss::schedule(specs, profiles,
                   em::rr_network_candidate(specs, profiles, platform),
                   platform)
          .max_task_latency_us;
  result.rr_layer_us =
      ss::schedule(specs, profiles,
                   em::rr_layer_candidate(specs, profiles, platform),
                   platform)
          .max_task_latency_us;
  return result;
}

}  // namespace

int main() {
  eb::print_header("Figure 9: multi-task mapping, speedup over baselines");
  const auto platform = eh::xavier_agx();

  std::printf("%-16s %-12s %-12s %-12s %-12s %-10s\n", "config",
              "vs RR-Net", "vs RR-Layer", "NMP-FP/NMP", "NMP [ms]",
              "RRNet[ms]");
  eb::print_rule(80);

  for (const auto& config : {en::multi_task_all_ann(),
                             en::multi_task_all_snn(),
                             en::multi_task_mixed()}) {
    const ConfigResult r = evaluate_config(config, platform);
    std::printf("%-16s %-12.2f %-12.2f %-12.2f %-12.2f %-10.2f\n",
                config.name.c_str(), r.rr_net_us / r.nmp_us,
                r.rr_layer_us / r.nmp_us, r.nmp_fp_us / r.nmp_us,
                r.nmp_us / 1000.0, r.rr_net_us / 1000.0);
  }
  eb::print_rule(80);
  std::printf(
      "paper: NMP 1.43x-1.81x over RR-Network, 1.24x-1.41x over RR-Layer; "
      "NMP-FP 1.05x-1.22x slower than NMP.\n");

  // --- Real batched execution: each mixed-config network pushes its
  // DSFA-dispatched merge batches through FunctionalNetwork::run_batched
  // (reduced-scale functional twin), so the multi-task harness exercises
  // the live batched kernel path, not only the analytic cost model.
  eb::print_header(
      "mixed config: dispatched batches on the real batched engine");
  std::printf("%-20s %-9s %-9s %-10s %-12s\n", "network", "batches",
              "batch", "ms/batch", "wall[ms]");
  eb::print_rule(64);
  for (const auto id : en::multi_task_mixed().networks) {
    const auto spec = en::build_network(id, en::ZooConfig::test_scale());
    en::FunctionalNetwork fnet(spec, 7);
    ec::BatchExecutor executor(fnet);
    // Dispatched batches route density-adaptively (plan calibrated on
    // the first batch, re-calibrated on density drift with the serving
    // defaults; outputs stay bitwise identical to dense).
    executor.enable_execution_planner();
    const auto stream = eb::make_matched_stream(
        spec, ee::DensityProfile::indoor_flying2(), 1'000'000, 5);
    const auto densities = ec::measure_activation_densities(spec, 7);
    const auto mapping =
        ss::uniform_candidate({spec}, platform.first_pe(eh::PeKind::kGpu),
                              eq::Precision::kFp32)
            .tasks.front();
    ec::PipelineConfig cfg;
    cfg.executor = &executor;
    const auto stats = ec::simulate_pipeline(stream, spec, mapping, platform,
                                             densities, cfg);
    std::printf("%-20s %-9zu %-9.2f %-10.3f %-12.1f\n", spec.name.c_str(),
                stats.functional_batches, executor.stats().mean_batch(),
                executor.stats().mean_ms_per_batch(),
                stats.functional_wall_ms);
  }
  eb::print_rule(64);
  return 0;
}
