#include "core/batch_executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace evedge::core {

using sparse::CooChannel;
using sparse::CooEntry;
using sparse::DenseTensor;
using sparse::SparseFrame;
using sparse::TensorShape;

namespace {

/// Integer downsample factor mapping a source extent onto a target one
/// (1 when the source already fits).
[[nodiscard]] int downsample_factor(int src_h, int src_w, int dst_h,
                                    int dst_w) {
  const int fy = (src_h + dst_h - 1) / dst_h;
  const int fx = (src_w + dst_w - 1) / dst_w;
  return std::max(1, std::max(fy, fx));
}

/// Scatters one COO channel into the dense plane at `plane` (extent
/// dst_h x dst_w, row stride dst_w), downsampling coordinates by
/// `factor` and center-aligning; values accumulate, out-of-extent
/// coordinates are cropped.
void scatter_adapted(const CooChannel& ch, int factor, int off_y, int off_x,
                     int dst_h, int dst_w, float* plane) {
  for (const CooEntry& e : ch.entries()) {
    const int ty = e.row / factor + off_y;
    const int tx = e.col / factor + off_x;
    if (ty < 0 || ty >= dst_h || tx < 0 || tx >= dst_w) continue;
    plane[static_cast<std::size_t>(ty) * static_cast<std::size_t>(dst_w) +
          static_cast<std::size_t>(tx)] += e.value;
  }
}

}  // namespace

void frames_to_event_steps(const std::vector<SparseFrame>& frames,
                           const TensorShape& event_shape, int timesteps,
                           std::vector<DenseTensor>& steps) {
  if (frames.empty()) {
    throw std::invalid_argument("frames_to_event_steps: empty batch");
  }
  const int batch = static_cast<int>(frames.size());
  const int h = event_shape.h;
  const int w = event_shape.w;
  // SNN/hybrid nets take a 2-channel tensor per timestep; pure ANN nets
  // stack all bins as channels. Either way the event input has 2 channels
  // per bin slot, and the merged frame fills every slot.
  const int bins = std::max(1, event_shape.c / 2);
  const TensorShape step_shape{batch, event_shape.c, h, w};

  steps.resize(static_cast<std::size_t>(timesteps));
  DenseTensor& step0 = steps.front();
  step0.reset(step_shape);
  std::fill(step0.data().begin(), step0.data().end(), 0.0f);
  for (int n = 0; n < batch; ++n) {
    const SparseFrame& frame = frames[static_cast<std::size_t>(n)];
    const int factor = downsample_factor(frame.height(), frame.width(), h, w);
    const int off_y = (h - (frame.height() + factor - 1) / factor) / 2;
    const int off_x = (w - (frame.width() + factor - 1) / factor) / 2;
    for (int b = 0; b < bins; ++b) {
      float* pos = step0.raw() + step0.offset(n, 2 * b, 0, 0);
      scatter_adapted(frame.positive(), factor, off_y, off_x, h, w, pos);
      if (2 * b + 1 < event_shape.c) {
        float* neg = step0.raw() + step0.offset(n, 2 * b + 1, 0, 0);
        scatter_adapted(frame.negative(), factor, off_y, off_x, h, w, neg);
      }
    }
  }
  // Identical event evidence at every timestep.
  for (std::size_t t = 1; t < steps.size(); ++t) steps[t] = step0;
}

DenseTensor make_reference_image(const nn::NetworkSpec& spec) {
  const auto input_ids = spec.graph.input_ids();
  if (input_ids.size() < 2) return DenseTensor{};
  DenseTensor image(spec.graph.node(input_ids.back()).spec.out_shape);
  image.fill_random(1234, 0.5f);
  for (float& v : image.data()) v = std::abs(v);
  return image;
}

BatchExecutor::BatchExecutor(nn::FunctionalNetwork& net) : net_(net) {
  const nn::NetworkSpec& spec = net_.spec();
  const auto input_ids = spec.graph.input_ids();
  event_shape_ = spec.graph.node(input_ids.front()).spec.out_shape;
  needs_image_ = input_ids.size() > 1;
  if (needs_image_) image_ = make_reference_image(spec);
}

BatchExecutor::~BatchExecutor() { reset_plan(); }

void BatchExecutor::enable_execution_planner(
    const nn::PlannerOptions& options, bool recalibrate_on_drift,
    double recalibration_band) {
  if (recalibration_band < 1.0) {
    throw std::invalid_argument(
        "BatchExecutor: recalibration band must be >= 1");
  }
  planner_enabled_ = true;
  planner_options_ = options;
  recalibrate_on_drift_ = recalibrate_on_drift;
  recalibration_band_ = recalibration_band;
}

void BatchExecutor::reset_plan() {
  // The plan dies with us (or is about to be recalibrated) — never
  // leave it installed. Only uninstall if ours is still the active plan
  // (a caller may have installed its own, or replaced the network).
  if (plan_ready_ && net_.execution_plan() == &plan_) {
    net_.set_execution_plan(nullptr);
  }
  plan_ready_ = false;
}

const std::vector<DenseTensor>& BatchExecutor::probe() {
  // calibrate() runs batch-1 inputs; DSFA merges within a density band,
  // so one sample's densities represent the batch.
  if (steps_.empty() || steps_.front().shape().n == 1) return steps_;
  probe_.resize(steps_.size());
  for (std::size_t t = 0; t < steps_.size(); ++t) {
    sparse::copy_sample(steps_[t], 0, probe_[t]);
  }
  return probe_;
}

void BatchExecutor::calibrate() {
  // Uninstall the live plan first so the swap is atomic from the
  // engine's view.
  net_.set_execution_plan(nullptr);
  plan_ = nn::ExecutionPlanner::calibrate(net_, probe(), image(),
                                          planner_options_);
  net_.set_execution_plan(&plan_);
  plan_ready_ = true;
}

void BatchExecutor::stage(const std::vector<SparseFrame>& frames) {
  frames_to_event_steps(frames, event_shape_, net_.spec().timesteps, steps_);
  if (!planner_enabled_) return;
  if (!plan_ready_) {
    calibrate();
    ++stats_.calibrations;
  } else if (recalibrate_on_drift_ &&
             !plan_.density_in_band(steps_.front().density(),
                                    recalibration_band_)) {
    // The live density signal: nonzero fraction of the adapted event
    // tensor, the same post-E2SF quantity calibrate() recorded as
    // probe_input_density.
    calibrate();
    ++stats_.recalibrations;
  }
}

DenseTensor BatchExecutor::run() {
  run_start_ = std::chrono::steady_clock::now();
  DenseTensor out = net_.run_batched(steps_, image());
  run_end_ = std::chrono::steady_clock::now();

  ++stats_.batches;
  stats_.samples += static_cast<std::size_t>(steps_.front().shape().n);
  stats_.wall_ms +=
      std::chrono::duration<double, std::milli>(run_end_ - run_start_)
          .count();
  return out;
}

DenseTensor BatchExecutor::execute(const std::vector<SparseFrame>& frames) {
  stage(frames);
  return run();
}

}  // namespace evedge::core
