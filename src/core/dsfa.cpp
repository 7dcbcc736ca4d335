#include "core/dsfa.hpp"

#include <stdexcept>

namespace evedge::core {

DynamicSparseFrameAggregator::DynamicSparseFrameAggregator(DsfaConfig config)
    : config_(config) {
  if (config_.event_buffer_size == 0) {
    throw std::invalid_argument("DSFA: event buffer size must be > 0");
  }
  if (config_.merge_bucket_capacity == 0) {
    throw std::invalid_argument("DSFA: merge bucket capacity must be > 0");
  }
  if (config_.max_time_delay_us < 0.0) {
    throw std::invalid_argument("DSFA: MtTh must be >= 0");
  }
  if (config_.max_density_change < 0.0) {
    throw std::invalid_argument("DSFA: MdTh must be >= 0");
  }
  if (config_.inference_queue_capacity == 0) {
    throw std::invalid_argument("DSFA: inference queue capacity must be > 0");
  }
  if (config_.density_ema_alpha <= 0.0 || config_.density_ema_alpha > 1.0) {
    throw std::invalid_argument("DSFA: density EMA alpha must be in (0, 1]");
  }
}

std::size_t DynamicSparseFrameAggregator::buffered_frames() const noexcept {
  std::size_t n = 0;
  for (const MergeBucket& b : buckets_) n += b.frames.size();
  return n;
}

void DynamicSparseFrameAggregator::push(SparseFrame frame) {
  recent_density_ = stats_.frames_in == 0
                        ? frame.density()
                        : recent_density_ +
                              config_.density_ema_alpha *
                                  (frame.density() - recent_density_);
  ++stats_.frames_in;

  if (config_.merge_mode == MergeMode::kBatch) {
    // cBatch: every generated frame opens its own merge bucket.
    MergeBucket bucket;
    bucket.frames.push_back(std::move(frame));
    bucket.full = true;
    buckets_.push_back(std::move(bucket));
  } else {
    // Greedy placement into the earliest available bucket subject to the
    // MtTh / MdTh conditions; failing buckets are closed (FULL).
    bool placed = false;
    for (MergeBucket& bucket : buckets_) {
      if (!bucket.available(config_.merge_bucket_capacity)) continue;
      const SparseFrame& earliest = bucket.frames.front();
      const double delay_us =
          static_cast<double>(frame.t_start - earliest.t_start);
      if (delay_us > config_.max_time_delay_us) {
        bucket.full = true;
        ++stats_.time_threshold_closures;
        continue;
      }
      const SparseFrame merged =
          bucket.frames.size() == 1
              ? earliest
              : sparse::merge_frames(bucket.frames, MergeMode::kAdd);
      if (sparse::density_change(frame, merged) >
          config_.max_density_change) {
        bucket.full = true;
        ++stats_.density_threshold_closures;
        continue;
      }
      bucket.frames.push_back(std::move(frame));
      if (bucket.frames.size() >= config_.merge_bucket_capacity) {
        bucket.full = true;
        ++stats_.capacity_closures;
      }
      placed = true;
      break;
    }
    if (!placed) {
      MergeBucket bucket;
      bucket.frames.push_back(std::move(frame));
      bucket.full = bucket.frames.size() >= config_.merge_bucket_capacity;
      buckets_.push_back(std::move(bucket));
    }
  }

  if (buffered_frames() >= config_.event_buffer_size) {
    dispatch_all_buckets();
  }
}

void DynamicSparseFrameAggregator::dispatch_available() {
  dispatch_all_buckets();
}

void DynamicSparseFrameAggregator::dispatch_all_buckets() {
  if (buckets_.empty()) return;
  MergedBatch batch;
  batch.frames.reserve(buckets_.size());
  for (MergeBucket& bucket : buckets_) {
    if (bucket.frames.empty()) continue;
    if (config_.merge_mode == MergeMode::kBatch ||
        bucket.frames.size() == 1) {
      batch.frames.push_back(std::move(bucket.frames.front()));
    } else {
      batch.frames.push_back(
          sparse::merge_frames(bucket.frames, config_.merge_mode));
    }
    ++stats_.buckets_dispatched;
  }
  buckets_.clear();
  if (batch.empty()) return;

  // Forward to the inference queue, discarding the earliest entry on
  // overflow (paper: "the earliest sparse frames in each queue is
  // discarded").
  if (inference_queue_.size() >= config_.inference_queue_capacity) {
    stats_.frames_discarded += inference_queue_.front().frames.size();
    inference_queue_.pop_front();
  }
  inference_queue_.push_back(std::move(batch));
  ++stats_.batches_dispatched;
}

std::optional<MergedBatch>
DynamicSparseFrameAggregator::take_ready_batch() {
  if (inference_queue_.empty()) return std::nullopt;
  MergedBatch batch = std::move(inference_queue_.front());
  inference_queue_.pop_front();
  return batch;
}

}  // namespace evedge::core
