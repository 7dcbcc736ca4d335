#include "nn/lif.hpp"

#include <stdexcept>
#include <utility>

namespace evedge::nn {

void validate_lif(const LifParams& params) {
  if (params.leak <= 0.0f || params.leak > 1.0f) {
    throw std::invalid_argument("LIF leak must be in (0, 1]");
  }
  if (params.v_threshold <= 0.0f) {
    throw std::invalid_argument("LIF threshold must be > 0");
  }
}

LifState::LifState(TensorShape shape, LifParams params,
                   std::vector<float> channel_leak,
                   std::vector<float> channel_threshold)
    : shape_(shape),
      params_(params),
      channel_leak_(std::move(channel_leak)),
      channel_threshold_(std::move(channel_threshold)),
      membrane_(shape) {
  validate_lif(params_);
  sparse::validate_shape(shape_);
  if (!channel_leak_.empty() &&
      static_cast<int>(channel_leak_.size()) != shape_.c) {
    throw std::invalid_argument("per-channel leak size mismatch");
  }
  if (!channel_threshold_.empty() &&
      static_cast<int>(channel_threshold_.size()) != shape_.c) {
    throw std::invalid_argument("per-channel threshold size mismatch");
  }
  for (float l : channel_leak_) {
    if (l <= 0.0f || l > 1.0f) {
      throw std::invalid_argument("per-channel leak out of (0, 1]");
    }
  }
  for (float v : channel_threshold_) {
    if (v <= 0.0f) {
      throw std::invalid_argument("per-channel threshold must be > 0");
    }
  }
}

DenseTensor LifState::step(const DenseTensor& current) {
  if (!(current.shape() == shape_)) {
    throw std::invalid_argument("LIF step: input shape mismatch");
  }
  DenseTensor spikes(shape_);
  const auto plane = static_cast<std::size_t>(shape_.h) *
                     static_cast<std::size_t>(shape_.w);
  for (int n = 0; n < shape_.n; ++n) {
    for (int c = 0; c < shape_.c; ++c) {
      const float leak = channel_leak_.empty()
                             ? params_.leak
                             : channel_leak_[static_cast<std::size_t>(c)];
      const float vth =
          channel_threshold_.empty()
              ? params_.v_threshold
              : channel_threshold_[static_cast<std::size_t>(c)];
      const std::size_t base =
          (static_cast<std::size_t>(n) * static_cast<std::size_t>(shape_.c) +
           static_cast<std::size_t>(c)) *
          plane;
      for (std::size_t i = 0; i < plane; ++i) {
        float u = membrane_.data()[base + i] * leak +
                  current.data()[base + i];
        if (u >= vth) {
          spikes.data()[base + i] = 1.0f;
          u = params_.soft_reset ? u - vth : 0.0f;
          ++spikes_;
        }
        membrane_.data()[base + i] = u;
      }
    }
  }
  ++steps_;
  return spikes;
}

void LifState::begin_step() {
  // reset() reuses the buffer; contents are don't-care — every element
  // is committed by exactly one owned band before the end_step() swap.
  membrane_next_.reset(shape_);
}

void LifState::step_rows(const DenseTensor& current, int win_row0,
                         int own_row0, int own_row1, SpikeCoo& spikes_out) {
  const TensorShape& cs = current.shape();
  if (cs.n != shape_.n || cs.c != shape_.c || cs.w != shape_.w ||
      win_row0 < 0 || win_row0 + cs.h > shape_.h) {
    throw std::invalid_argument("LIF step_rows: window outside the plane");
  }
  if (own_row0 < win_row0 || own_row1 > win_row0 + cs.h) {
    throw std::invalid_argument("LIF step_rows: owned rows outside window");
  }
  const auto w = static_cast<std::size_t>(shape_.w);
  const auto plane = static_cast<std::size_t>(shape_.h) * w;
  const auto win_plane = static_cast<std::size_t>(cs.h) * w;
  if (spikes_out.size() < static_cast<std::size_t>(shape_.n)) {
    spikes_out.resize(static_cast<std::size_t>(shape_.n));
  }
  for (int n = 0; n < shape_.n; ++n) {
    auto& per_channel = spikes_out[static_cast<std::size_t>(n)];
    if (per_channel.size() < static_cast<std::size_t>(shape_.c)) {
      per_channel.resize(static_cast<std::size_t>(shape_.c));
    }
    for (int c = 0; c < shape_.c; ++c) {
      const float leak = channel_leak_.empty()
                             ? params_.leak
                             : channel_leak_[static_cast<std::size_t>(c)];
      const float vth =
          channel_threshold_.empty()
              ? params_.v_threshold
              : channel_threshold_[static_cast<std::size_t>(c)];
      const std::size_t base_full =
          (static_cast<std::size_t>(n) * static_cast<std::size_t>(shape_.c) +
           static_cast<std::size_t>(c)) *
          plane;
      const std::size_t base_win =
          (static_cast<std::size_t>(n) * static_cast<std::size_t>(shape_.c) +
           static_cast<std::size_t>(c)) *
          win_plane;
      auto& out_entries = per_channel[static_cast<std::size_t>(c)];
      for (int r = 0; r < cs.h; ++r) {
        const int gr = win_row0 + r;
        const bool owned = gr >= own_row0 && gr < own_row1;
        const float* cur_row =
            current.raw() + base_win + static_cast<std::size_t>(r) * w;
        const float* u_prev =
            membrane_.raw() + base_full + static_cast<std::size_t>(gr) * w;
        float* u_next =
            membrane_next_.raw() + base_full + static_cast<std::size_t>(gr) * w;
        for (int x = 0; x < shape_.w; ++x) {
          float u = u_prev[static_cast<std::size_t>(x)] * leak +
                    cur_row[static_cast<std::size_t>(x)];
          const bool spike = u >= vth;
          if (spike) {
            out_entries.push_back(sparse::CooEntry{gr, x, 1.0f});
            u = params_.soft_reset ? u - vth : 0.0f;
          }
          if (owned) {
            u_next[static_cast<std::size_t>(x)] = u;
            if (spike) ++spikes_;
          }
        }
      }
    }
  }
}

void LifState::end_step() {
  std::swap(membrane_, membrane_next_);
  ++steps_;
}

void LifState::reset() noexcept {
  for (float& v : membrane_.data()) v = 0.0f;
  steps_ = 0;
  spikes_ = 0;
}

double LifState::mean_firing_rate() const noexcept {
  const double sites = static_cast<double>(shape_.element_count()) *
                       static_cast<double>(steps_);
  return sites > 0.0 ? static_cast<double>(spikes_) / sites : 0.0;
}

}  // namespace evedge::nn
