// Substrate microbenchmarks (google-benchmark): GEMM throughput at the
// shapes the PRIONN models actually use, im2col lowering, and one
// mini-batch forward/backward of the paper's 2D-CNN. Not a paper figure —
// these validate that the from-scratch substrate is fast enough to stand
// in for the paper's GPU stack on comparative-timing claims.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/model_zoo.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/rng.hpp"

using namespace prionn;

namespace {

void BM_GemmConvShape(benchmark::State& state) {
  // Conv1 of the fast 2D-CNN, lowered: (oc x patch_rows) x (pr x N*pixels).
  const std::size_t m = 8, k = 36, n = 32 * 4096;
  std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f), c(m * n);
  for (auto _ : state) {
    tensor::gemm(m, k, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * m * k * n),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_GemmDenseShape(benchmark::State& state) {
  // The 960-way runtime head: (batch x features) x (features x classes).
  const std::size_t m = 32, k = 128, n = 960;
  std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f), c(m * n);
  for (auto _ : state) {
    tensor::gemm(m, k, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * m * k * n),
      benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void BM_Im2col(benchmark::State& state) {
  tensor::Conv2dGeom g;
  g.channels = 4;
  g.height = g.width = 64;
  g.kernel_h = g.kernel_w = 3;
  g.pad_h = g.pad_w = 1;
  std::vector<float> image(g.channels * g.height * g.width, 1.0f);
  std::vector<float> cols(g.patch_rows() * g.patch_cols());
  for (auto _ : state) {
    tensor::im2col(g, image.data(), cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
}

void BM_Cnn2dTrainStep(benchmark::State& state) {
  core::ModelConfig cfg;
  cfg.preset = state.range(0) == 0 ? core::ModelPreset::kFast
                                   : core::ModelPreset::kPaper;
  auto net = core::build_model(cfg);
  util::Rng rng(1);
  tensor::Tensor batch({32, 4, 64, 64});
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<std::uint32_t> labels(32);
  for (std::size_t i = 0; i < 32; ++i)
    labels[i] = static_cast<std::uint32_t>(rng.uniform_int(0, 959));
  nn::Adam opt(1e-3);
  for (auto _ : state) {
    const double loss = net.train_batch(batch, labels, opt);
    benchmark::DoNotOptimize(loss);
  }
  state.counters["samples/s"] = benchmark::Counter(
      32.0, benchmark::Counter::kIsIterationInvariantRate);
}

// Real (wall-clock) time throughout: GEMM and the train step fan out to
// the thread pool, so the main thread's CPU time undercounts the work and
// would inflate every rate derived from it.
BENCHMARK(BM_GemmConvShape)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_GemmDenseShape)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Im2col)->Unit(benchmark::kMicrosecond)->UseRealTime();
BENCHMARK(BM_Cnn2dTrainStep)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
