// Kernel micro-benchmark: times the seed reference kernels
// (sparse::reference) against the rewritten fast paths on identical
// inputs — dense conv2d (direct + GEMM), sparse_conv2d and
// submanifold_conv2d at DAVIS346-scale shapes across event densities —
// and writes machine-readable results to BENCH_kernels.json so the perf
// trajectory is tracked from PR 1 onward. Parity (max abs diff vs the
// reference) is reported alongside every timing.
//
// Usage: bench_kernels [output.json]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel.hpp"
#include "nn/kernels.hpp"
#include "sparse/reference.hpp"
#include "sparse/sparse_ops.hpp"
#include "sparse/tensor.hpp"

namespace es = evedge::sparse;
namespace en = evedge::nn;
namespace eb = evedge::bench;
using evedge::bench::time_best_ms;

namespace {

struct Result {
  std::string kernel;
  std::string shape;
  double density = 1.0;
  double ref_ms = 0.0;
  double fast_ms = 0.0;
  double max_abs_diff = 0.0;

  [[nodiscard]] double speedup() const {
    return fast_ms > 0.0 ? ref_ms / fast_ms : 0.0;
  }
};

std::vector<es::CooChannel> random_channels(int channels, int h, int w,
                                            double density,
                                            std::uint64_t seed) {
  es::DenseTensor dense(es::TensorShape{1, channels, h, w});
  dense.fill_random(seed);
  // Keep roughly `density` of the elements, deterministically.
  const auto keep_every =
      density > 0.0 ? static_cast<std::size_t>(1.0 / density) : dense.size();
  std::size_t i = 0;
  for (float& v : dense.data()) {
    if (i++ % keep_every != 0) v = 0.0f;
  }
  return es::dense_to_channels(dense);
}

Result bench_dense_conv(const std::string& label, const es::TensorShape& in,
                        int out_channels, int kernel, int stride, int padding,
                        int ref_reps, int fast_reps) {
  const es::Conv2dSpec spec{in.c, out_channels, kernel, stride, padding};
  es::DenseTensor input(in);
  input.fill_random(11);
  es::DenseTensor weights(
      es::TensorShape{out_channels, in.c, kernel, kernel});
  weights.fill_random(12, 0.2f);
  std::vector<float> bias(static_cast<std::size_t>(out_channels), 0.05f);

  Result r;
  r.kernel = std::string("conv2d_") +
             (en::conv2d_uses_gemm(in, spec) ? "gemm" : "direct");
  r.shape = label;
  r.ref_ms = time_best_ms(
      [&] { (void)es::reference::conv2d(input, weights, bias, spec); },
      ref_reps);
  r.fast_ms = time_best_ms([&] { (void)en::conv2d(input, weights, bias, spec); },
                      fast_reps);
  r.max_abs_diff = es::max_abs_diff(
      en::conv2d(input, weights, bias, spec),
      es::reference::conv2d(input, weights, bias, spec));
  return r;
}

Result bench_sparse_conv(const std::string& label, int h, int w,
                         int in_channels, int out_channels, int kernel,
                         int stride, int padding, double density,
                         int ref_reps, int fast_reps) {
  const es::Conv2dSpec spec{in_channels, out_channels, kernel, stride,
                            padding};
  const auto input = random_channels(in_channels, h, w, density, 21);
  es::DenseTensor weights(
      es::TensorShape{out_channels, in_channels, kernel, kernel});
  weights.fill_random(22, 0.2f);
  std::vector<float> bias(static_cast<std::size_t>(out_channels), 0.05f);

  Result r;
  r.kernel = "sparse_conv2d";
  r.shape = label;
  r.density = density;
  r.ref_ms = time_best_ms(
      [&] { (void)es::reference::sparse_conv2d(input, weights, bias, spec); },
      ref_reps);
  r.fast_ms = time_best_ms(
      [&] { (void)es::sparse_conv2d(input, weights, bias, spec); },
      fast_reps);
  r.max_abs_diff =
      es::max_abs_diff(es::sparse_conv2d(input, weights, bias, spec),
                       es::reference::sparse_conv2d(input, weights, bias,
                                                    spec));
  return r;
}

Result bench_submanifold(const std::string& label, int h, int w,
                         int in_channels, int out_channels, int kernel,
                         double density, int ref_reps, int fast_reps) {
  const es::Conv2dSpec spec{in_channels, out_channels, kernel, 1,
                            (kernel - 1) / 2};
  const auto input = random_channels(in_channels, h, w, density, 31);
  es::DenseTensor weights(
      es::TensorShape{out_channels, in_channels, kernel, kernel});
  weights.fill_random(32, 0.2f);

  Result r;
  r.kernel = "submanifold_conv2d";
  r.shape = label;
  r.density = density;
  r.ref_ms = time_best_ms(
      [&] { (void)es::reference::submanifold_conv2d(input, weights, {}, spec); },
      ref_reps);
  r.fast_ms = time_best_ms(
      [&] { (void)es::submanifold_conv2d(input, weights, {}, spec); },
      fast_reps);
  r.max_abs_diff = es::max_abs_diff(
      es::channels_to_dense(es::submanifold_conv2d(input, weights, {}, spec)),
      es::channels_to_dense(
          es::reference::submanifold_conv2d(input, weights, {}, spec)));
  return r;
}

/// Forces one threading axis of the submanifold reduction (the kAuto
/// heuristic picks per shape; CI's multi-core runs show the axis split).
Result bench_submanifold_axis(const std::string& label, int h, int w,
                              int in_channels, int out_channels, int kernel,
                              double density, es::SubmanifoldThreading mode,
                              int ref_reps, int fast_reps) {
  const es::Conv2dSpec spec{in_channels, out_channels, kernel, 1,
                            (kernel - 1) / 2};
  const auto input = random_channels(in_channels, h, w, density, 31);
  es::DenseTensor weights(
      es::TensorShape{out_channels, in_channels, kernel, kernel});
  weights.fill_random(32, 0.2f);
  es::Workspace ws;

  Result r;
  r.kernel = mode == es::SubmanifoldThreading::kActiveSites
                 ? "submanifold_sites"
                 : "submanifold_oc";
  r.shape = label;
  r.density = density;
  r.ref_ms = time_best_ms(
      [&] { (void)es::reference::submanifold_conv2d(input, weights, {}, spec); },
      ref_reps);
  r.fast_ms = time_best_ms(
      [&] {
        (void)es::submanifold_conv2d(input, weights, {}, spec, nullptr, &ws,
                                     mode);
      },
      fast_reps);
  r.max_abs_diff = es::max_abs_diff(
      es::channels_to_dense(es::submanifold_conv2d(input, weights, {}, spec,
                                                   nullptr, &ws, mode)),
      es::channels_to_dense(
          es::reference::submanifold_conv2d(input, weights, {}, spec)));
  return r;
}

/// CSR-output strided sparse conv vs the seed path a sparse consumer
/// needs: dense-output scatter followed by the dense_to_channels
/// re-encode (the round-trip CSR chaining removes).
Result bench_sparse_csr(const std::string& label, int h, int w,
                        int in_channels, int out_channels, int kernel,
                        int stride, int padding, double density, int ref_reps,
                        int fast_reps) {
  const es::Conv2dSpec spec{in_channels, out_channels, kernel, stride,
                            padding};
  const auto input = random_channels(in_channels, h, w, density, 21);
  es::DenseTensor weights(
      es::TensorShape{out_channels, in_channels, kernel, kernel});
  weights.fill_random(22, 0.2f);
  es::Workspace ws;

  Result r;
  r.kernel = "sparse_conv2d_csr";
  r.shape = label;
  r.density = density;
  r.ref_ms = time_best_ms(
      [&] {
        (void)es::dense_to_channels(
            es::reference::sparse_conv2d(input, weights, {}, spec));
      },
      ref_reps);
  r.fast_ms = time_best_ms(
      [&] { (void)es::sparse_conv2d_csr(input, weights, {}, spec, nullptr,
                                        &ws); },
      fast_reps);
  r.max_abs_diff = es::max_abs_diff(
      es::channels_to_dense(
          es::sparse_conv2d_csr(input, weights, {}, spec, nullptr, &ws)),
      es::reference::sparse_conv2d(input, weights, {}, spec));
  return r;
}

[[nodiscard]] eb::BenchRecord to_record(const Result& r) {
  return {{eb::jstr("kernel", r.kernel), eb::jstr("shape", r.shape),
           eb::jnum("density", r.density)},
          {eb::jnum("speedup", r.speedup(), "%.2f")},
          {eb::jnum("ref_ms", r.ref_ms), eb::jnum("fast_ms", r.fast_ms),
           eb::jnum("max_abs_diff", r.max_abs_diff, "%.3g")}};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  std::vector<Result> results;

  std::printf("kernel benchmark (threads=%d)\n",
              evedge::core::parallel_thread_count());
  std::printf("%-22s %-26s %8s %10s %10s %9s %12s\n", "kernel", "shape",
              "density", "ref_ms", "fast_ms", "speedup", "max_diff");

  const auto report = [&](Result r) {
    std::printf("%-22s %-26s %8.4f %10.3f %10.3f %8.1fx %12.3g\n",
                r.kernel.c_str(), r.shape.c_str(), r.density, r.ref_ms,
                r.fast_ms, r.speedup(), r.max_abs_diff);
    std::fflush(stdout);
    results.push_back(std::move(r));
  };

  // --- Dense conv at zoo bench_scale() shapes (64x88 base, 16 channels)
  // and at DAVIS346 input scale (2-channel event frame -> first layer).
  report(bench_dense_conv("16x64x88 -> 32 k3s1",
                          es::TensorShape{1, 16, 64, 88}, 32, 3, 1, 1, 3, 9));
  report(bench_dense_conv("32x32x44 -> 64 k3s2",
                          es::TensorShape{1, 32, 32, 44}, 64, 3, 2, 1, 3, 9));
  report(bench_dense_conv("2x260x346 -> 16 k3s1",
                          es::TensorShape{1, 2, 260, 346}, 16, 3, 1, 1, 3, 9));
  report(bench_dense_conv("16x16x22 -> 32 k1s1 (direct)",
                          es::TensorShape{1, 16, 16, 22}, 32, 1, 1, 0, 5, 15));

  // --- Sparse scatter conv at DAVIS346 scale across densities.
  for (const double d : {0.005, 0.01, 0.02, 0.05}) {
    report(bench_sparse_conv("2x260x346 -> 16 k3s2", 260, 346, 2, 16, 3, 2, 1,
                             d, 3, 9));
  }

  // --- Submanifold conv at DAVIS346 scale across realistic densities.
  for (const double d : {0.005, 0.01, 0.02, 0.05}) {
    report(bench_submanifold("2x260x346 -> 16 k3", 260, 346, 2, 16, 3, d, 3,
                             9));
  }

  // --- CSR-output strided sparse conv (the densify-free chain link).
  for (const double d : {0.005, 0.02, 0.05}) {
    report(bench_sparse_csr("2x260x346 -> 16 k3s2", 260, 346, 2, 16, 3, 2, 1,
                            d, 3, 9));
  }

  // --- Submanifold threading axes on a wide-channel mid-pyramid shape
  // (the per-shape kAuto choice; identical results, different split).
  for (const auto mode : {es::SubmanifoldThreading::kOutputChannels,
                          es::SubmanifoldThreading::kActiveSites}) {
    report(bench_submanifold_axis("16x130x173 -> 32 k3", 130, 173, 16, 32, 3,
                                  0.02, mode, 3, 9));
  }

  std::vector<eb::BenchRecord> records;
  for (const Result& r : results) records.push_back(to_record(r));
  const bool wrote = eb::write_bench_json(
      out_path, evedge::core::parallel_thread_count(), {}, records);

  // Exit non-zero if any fast path diverged from the reference: the bench
  // doubles as a cheap numerical smoke test in CI.
  for (const Result& r : results) {
    if (r.max_abs_diff > 1e-3) {
      std::fprintf(stderr, "parity failure: %s %s diff=%g\n",
                   r.kernel.c_str(), r.shape.c_str(), r.max_abs_diff);
      return 1;
    }
  }
  return wrote ? 0 : 1;
}
