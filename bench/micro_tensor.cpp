// Microbenchmarks for the tensor kernels and the optimizer step — the
// compute substrate under the training engine.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "optim/adam.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace zi;

std::vector<float> randn(std::size_t n) {
  Rng rng(1, n);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = rng.next_normal();
  return v;
}

void BM_Gemm(benchmark::State& state) {
  const i64 n = state.range(0);
  const auto a = randn(static_cast<std::size_t>(n * n));
  const auto b = randn(static_cast<std::size_t>(n * n));
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * n * n * n / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_LayerNorm(benchmark::State& state) {
  const i64 rows = 256, dim = state.range(0);
  const auto x = randn(static_cast<std::size_t>(rows * dim));
  std::vector<float> gamma(static_cast<std::size_t>(dim), 1.0f);
  std::vector<float> beta(static_cast<std::size_t>(dim), 0.0f);
  std::vector<float> y(x.size()), mean(static_cast<std::size_t>(rows)),
      rstd(static_cast<std::size_t>(rows));
  for (auto _ : state) {
    layernorm_forward(x.data(), gamma.data(), beta.data(), y.data(),
                      mean.data(), rstd.data(), rows, dim);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(x.size()) * 4);
}
BENCHMARK(BM_LayerNorm)->Arg(256)->Arg(1024);

void BM_Softmax(benchmark::State& state) {
  const i64 rows = 128, dim = state.range(0);
  const auto x = randn(static_cast<std::size_t>(rows * dim));
  std::vector<float> y(x.size());
  for (auto _ : state) {
    softmax_forward(x.data(), y.data(), rows, dim);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

void BM_Fp16Cast(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto f = randn(n);
  std::vector<half> h(n);
  std::vector<float> back(n);
  for (auto _ : state) {
    cast_f32_to_f16(f, h);
    cast_f16_to_f32(h, back);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 6);
}
BENCHMARK(BM_Fp16Cast)->Arg(1 << 14)->Arg(1 << 18);

void BM_AdamStep(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  AdamConfig cfg;
  auto w = randn(n);
  std::vector<float> m(n, 0.0f), v(n, 0.0f);
  const auto g = randn(n);
  std::int64_t step = 0;
  for (auto _ : state) {
    adam_step(cfg, ++step, w, m, v, g);
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["Melem/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AdamStep)->Arg(1 << 14)->Arg(1 << 18);

}  // namespace

BENCHMARK_MAIN();
