// Figure 8 reproduction: single-task latency speedup over the all-GPU
// dense baseline for every Table 1 network, applying the optimizations
// cumulatively — +E2SF, +E2SF+DSFA, full Ev-Edge (+NMP) — plus the
// energy-efficiency ratio of the full configuration.
//
// Paper bands: 1.28x-2.05x latency, 1.23x-2.15x energy; SNN-heavy
// networks gain the most, and DSFA contributes little for the
// segmentation network (HALSIE) whose pixel-accuracy requirements limit
// merge aggressiveness.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "core/batch_executor.hpp"
#include "core/pipeline.hpp"
#include "core/runtime.hpp"
#include "events/density_profile.hpp"

namespace eb = evedge::bench;
namespace ec = evedge::core;
namespace ee = evedge::events;
namespace en = evedge::nn;

namespace {

/// Per-task DSFA tuning (paper: "both MtTh and MdTh needs to be tuned
/// for each task individually"). Segmentation runs conservative merging.
ec::DsfaConfig dsfa_for(en::TaskKind task) {
  ec::DsfaConfig cfg;
  switch (task) {
    case en::TaskKind::kSegmentation:
      cfg.merge_bucket_capacity = 2;
      cfg.max_time_delay_us = 8'000.0;
      cfg.max_density_change = 0.25;
      break;
    case en::TaskKind::kOpticalFlow:
      cfg.merge_bucket_capacity = 4;
      cfg.max_time_delay_us = 40'000.0;
      cfg.max_density_change = 0.75;
      break;
    case en::TaskKind::kDepth:
    case en::TaskKind::kTracking:
      cfg.merge_bucket_capacity = 2;
      cfg.max_time_delay_us = 25'000.0;
      cfg.max_density_change = 1.0;
      break;
  }
  return cfg;
}

}  // namespace

int main() {
  eb::print_header(
      "Figure 8: single-task speedup and energy gain vs all-GPU dense "
      "baseline (indoor_flying-like stream)");

  std::printf("%-20s %-9s %-9s %-9s %-9s %-10s %-8s %-9s\n", "network",
              "+E2SF", "+DSFA", "EvEdge", "energy", "merge", "fbatch",
              "ms/batch");
  eb::print_rule(88);

  const auto stream = eb::make_davis_stream(
      ee::DensityProfile::indoor_flying2(), 4'000'000, 21);

  double min_speed = 1e9;
  double max_speed = 0.0;
  for (const auto id : en::table1_networks()) {
    ec::EvEdgeOptions options;
    options.accuracy_scale = en::ZooConfig::test_scale();
    options.nmp.population = 24;
    options.nmp.generations = 24;
    options.nmp.accuracy_threshold = 0.08;
    options.nmp.seed = 3;
    options.dsfa = dsfa_for(
        en::build_network(id, en::ZooConfig::test_scale()).task);
    const ec::EvEdgeRuntime runtime(id, evedge::hw::xavier_agx(), options);

    const auto& spec = runtime.spec();
    const auto& densities = runtime.activation_densities();
    const auto& platform = runtime.platform();
    const auto gpu_mapping = evedge::sched::uniform_candidate(
        {spec}, platform.first_pe(evedge::hw::PeKind::kGpu),
        evedge::quant::Precision::kFp32).tasks.front();

    // Each network runs at the window rate its E2SF-optimized deployment
    // roughly sustains (util ~1.05 at typical density): the regime the
    // paper's backlog observation implies — the dense baseline is then
    // over capacity, and bursts push even the sparse runtime past it, so
    // DSFA merges adaptively.
    ec::InferenceCostOptions e2sf_opts;
    e2sf_opts.use_sparse_routes = true;
    const double e2sf_service_us =
        ec::estimate_inference(spec, gpu_mapping, platform, densities, 0.02,
                               e2sf_opts)
            .latency_us;
    const double frame_rate_hz = std::min(
        45.0, 1e6 / (e2sf_service_us *
                     static_cast<double>(spec.n_bins)) * 0.95);

    ec::PipelineConfig base_cfg;
    base_cfg.use_e2sf = false;
    base_cfg.use_dsfa = false;
    base_cfg.frame_rate_hz = frame_rate_hz;
    base_cfg.dsfa = options.dsfa;
    const auto base = ec::simulate_pipeline(stream, spec, gpu_mapping,
                                            platform, densities, base_cfg);

    auto e2sf_cfg = base_cfg;
    e2sf_cfg.use_e2sf = true;
    const auto e2sf = ec::simulate_pipeline(stream, spec, gpu_mapping,
                                            platform, densities, e2sf_cfg);

    auto dsfa_cfg = e2sf_cfg;
    dsfa_cfg.use_dsfa = true;
    const auto dsfa = ec::simulate_pipeline(stream, spec, gpu_mapping,
                                            platform, densities, dsfa_cfg);

    // The full Ev-Edge run additionally executes every dispatched batch
    // on the real batched kernels (reduced accuracy-scale functional
    // twin, DAVIS frames downsampled to its input extent).
    en::FunctionalNetwork fnet(
        en::build_network(id, options.accuracy_scale), options.seed);
    ec::BatchExecutor executor(fnet);
    // Density-adaptive routing: the first dispatched batch calibrates the
    // per-layer dense/CSR plan and density drift re-calibrates it, as in
    // serving (bitwise-neutral, see exec_plan.hpp).
    executor.enable_execution_planner();
    ec::PipelineConfig full_cfg;
    full_cfg.use_e2sf = true;
    full_cfg.use_dsfa = true;
    full_cfg.dsfa = options.dsfa;
    full_cfg.frame_rate_hz = frame_rate_hz;
    full_cfg.executor = &executor;
    const auto full = ec::simulate_pipeline(
        stream, spec, runtime.mapping(), platform, densities, full_cfg);

    // Throughput-normalized per-frame service latency — comparable to
    // the paper's per-inference measurement (end-to-end latency with
    // queueing is reported by the DSFA ablation bench instead).
    const double s_e2sf =
        base.mean_service_per_frame_us / e2sf.mean_service_per_frame_us;
    const double s_dsfa =
        base.mean_service_per_frame_us / dsfa.mean_service_per_frame_us;
    const double s_full =
        base.mean_service_per_frame_us / full.mean_service_per_frame_us;
    const double e_base = base.total_energy_mj /
                          static_cast<double>(base.source_frames_completed);
    const double e_evedge =
        full.total_energy_mj /
        static_cast<double>(full.source_frames_completed);
    const double e_full = e_base / std::max(e_evedge, 1e-12);
    min_speed = std::min(min_speed, s_full);
    max_speed = std::max(max_speed, s_full);

    std::printf("%-20s %-9.2f %-9.2f %-9.2f %-9.2f %-10.2f %-8.2f %-9.3f\n",
                spec.name.c_str(), s_e2sf, s_dsfa, s_full, e_full,
                dsfa.dsfa.mean_merge_factor(), executor.stats().mean_batch(),
                executor.stats().mean_ms_per_batch());
  }
  eb::print_rule(88);
  std::printf(
      "combined speedup spread: %.2fx - %.2fx (paper: 1.28x - 2.05x "
      "latency, 1.23x - 2.15x energy)\n",
      min_speed, max_speed);
  return 0;
}
