#pragma once

// BatchExecutor: the one inference step. Every path that runs merged
// sparse frames through a network calls it: the serving runtime's
// workers (ServeWorker::process_batch), the per-stream serial reference
// (ServingRuntime::run_serial) and the Fig. 8/9 pipeline simulator
// (PipelineConfig::executor). Per batch it
//
//  1. adapts the frames to the network input (frames_to_event_steps),
//     plus the fixed reference image for two-input networks;
//  2. plans, when enabled: the first batch's sample 0 is the planner's
//     warmup probe; afterwards each batch's live input density is
//     checked against the plan's calibration band
//     (ExecutionPlan::density_in_band) and the plan is re-calibrated on
//     the current batch when the scene drifts out of it;
//  3. runs FunctionalNetwork::run_batched and times it.
//
// The step owns the plan and installs it on the network, so the
// "serving == run_serial" parity rests on this one piece of code.
//
// Input adaptation: merged frames arrive at sensor geometry while the
// functional network usually runs at a reduced accuracy scale. Each
// frame's COO entries are integer-downsampled (coordinate division, value
// accumulation) and center-aligned to the network's event-input extent;
// the merged frame then fills every event bin slot of the input
// representation (bin-level reconstruction is e2e_accuracy's job — here
// the goal is driving the batched compute path with live merged data).

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/dsfa.hpp"
#include "nn/engine.hpp"

namespace evedge::core {

/// Renders a DSFA merge batch into per-timestep network input tensors:
/// each frame becomes one batch lane, its COO entries integer-downsampled
/// and center-aligned to `event_shape` (the network's per-timestep event
/// input, n == 1), the merged frame filling every event-bin channel slot
/// and every timestep (identical event evidence per step — bin-level
/// reconstruction is e2e_accuracy's job). `steps` is resized to
/// `timesteps` tensors of [N, C, H, W] and reused across calls.
void frames_to_event_steps(const std::vector<sparse::SparseFrame>& frames,
                           const sparse::TensorShape& event_shape,
                           int timesteps,
                           std::vector<sparse::DenseTensor>& steps);

/// Deterministic grayscale image for two-input networks (Fusion-FlowNet,
/// HALSIE): fixed-seed absolute-value noise at the image input's shape,
/// the image every BatchExecutor and e2e_accuracy feed such networks.
/// Returns an empty tensor for single-input networks.
[[nodiscard]] sparse::DenseTensor make_reference_image(
    const nn::NetworkSpec& spec);

struct BatchExecutorStats {
  std::size_t batches = 0;
  std::size_t samples = 0;
  double wall_ms = 0.0;            ///< time inside run_batched
  std::size_t calibrations = 0;    ///< warmup calibrations
  std::size_t recalibrations = 0;  ///< density-drift plan refreshes

  [[nodiscard]] double mean_batch() const noexcept {
    return batches > 0 ? static_cast<double>(samples) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  [[nodiscard]] double mean_ms_per_batch() const noexcept {
    return batches > 0 ? wall_ms / static_cast<double>(batches) : 0.0;
  }
};

class BatchExecutor {
 public:
  /// The network must outlive the executor. Its contents may be replaced
  /// (e.g. by a fresh clone) as long as reset_plan() follows.
  explicit BatchExecutor(nn::FunctionalNetwork& net);
  ~BatchExecutor();
  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Density-adaptive routing: the first staged batch's sample 0 is the
  /// planner's warmup probe (nn::ExecutionPlanner::calibrate). With
  /// `recalibrate_on_drift`, a batch whose live input density (nonzero
  /// fraction of the adapted event tensor) leaves
  /// [probe / band, probe * band] re-calibrates on that batch. The
  /// defaults are the serving runtime's (serve::WorkerConfig). Routes
  /// are bitwise-neutral (see exec_plan.hpp); call before the first
  /// batch. Throws std::invalid_argument for a band below 1.
  void enable_execution_planner(const nn::PlannerOptions& options = {},
                                bool recalibrate_on_drift = true,
                                double recalibration_band = 4.0);
  /// The installed plan (nullptr before the first planned batch).
  [[nodiscard]] const nn::ExecutionPlan* execution_plan() const noexcept {
    return plan_ready_ ? &plan_ : nullptr;
  }
  /// Forgets the plan; the next batch calibrates afresh (counted as a
  /// warmup calibration).
  void reset_plan();

  /// Steps 1-2: adapts `frames` (one sample per frame) and calibrates
  /// or re-calibrates the plan. run() executes the staged batch; the
  /// split lets a caller act in between (the serving worker's int8
  /// rung).
  void stage(const std::vector<sparse::SparseFrame>& frames);
  /// Step 3: runs the staged batch through run_batched and returns the
  /// [N, ...] output.
  sparse::DenseTensor run();
  /// stage() then run().
  sparse::DenseTensor execute(const std::vector<sparse::SparseFrame>& frames);

  /// Batch-1 input of the staged batch's sample 0 (the staged input
  /// itself for a one-frame batch): the planner's calibration probe.
  /// Valid until the next stage().
  [[nodiscard]] const std::vector<sparse::DenseTensor>& probe();
  /// The reference image run() feeds (nullptr for single-input nets).
  [[nodiscard]] const sparse::DenseTensor* image() const noexcept {
    return needs_image_ ? &image_ : nullptr;
  }

  [[nodiscard]] const BatchExecutorStats& stats() const noexcept {
    return stats_;
  }
  /// steady_clock bounds of the last run_batched call.
  [[nodiscard]] std::chrono::steady_clock::time_point last_run_start()
      const noexcept {
    return run_start_;
  }
  [[nodiscard]] std::chrono::steady_clock::time_point last_run_end()
      const noexcept {
    return run_end_;
  }

 private:
  void calibrate();

  nn::FunctionalNetwork& net_;
  sparse::TensorShape event_shape_;  ///< per-timestep event input (n = 1)
  bool needs_image_ = false;
  sparse::DenseTensor image_;
  std::vector<sparse::DenseTensor> steps_;  ///< reused staging tensors
  std::vector<sparse::DenseTensor> probe_;  ///< reused sample-0 copies
  BatchExecutorStats stats_;
  std::chrono::steady_clock::time_point run_start_{};
  std::chrono::steady_clock::time_point run_end_{};
  // Lazily calibrated execution plan (installed on net_ while alive).
  bool planner_enabled_ = false;
  bool recalibrate_on_drift_ = true;
  double recalibration_band_ = 4.0;
  bool plan_ready_ = false;
  nn::PlannerOptions planner_options_;
  nn::ExecutionPlan plan_;
};

}  // namespace evedge::core
