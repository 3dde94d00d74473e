// Microbenchmarks for tensor operations (the D-Tucker phases are timed by
// bench_linalg's BM_SliceRsvdGroup and bench_dtucker's BM_DTuckerSweep).
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "tensor/tensor_ops.h"

namespace dtucker {
namespace {

Tensor BenchTensor(Index side) {
  Rng rng(1);
  return Tensor::GaussianRandom({side, side, side}, rng);
}

void BM_UnfoldMode(benchmark::State& state) {
  Tensor x = BenchTensor(64);
  const Index mode = state.range(0);
  for (auto _ : state) {
    Matrix u = Unfold(x, mode);
    benchmark::DoNotOptimize(u.data());
  }
  state.SetBytesProcessed(state.iterations() * x.ByteSize());
}
BENCHMARK(BM_UnfoldMode)->Arg(0)->Arg(1)->Arg(2);

void BM_ModeProduct(benchmark::State& state) {
  Tensor x = BenchTensor(64);
  const Index mode = state.range(0);
  Rng rng(2);
  Matrix a = Matrix::GaussianRandom(64, 10, rng);
  for (auto _ : state) {
    Tensor y = ModeProduct(x, a, mode, Trans::kYes);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * x.size() * 10);
}
BENCHMARK(BM_ModeProduct)->Arg(0)->Arg(1)->Arg(2);

void BM_Kronecker(benchmark::State& state) {
  Rng rng(5);
  const Index n = state.range(0);
  Matrix a = Matrix::GaussianRandom(n, 10, rng);
  Matrix b = Matrix::GaussianRandom(n, 10, rng);
  for (auto _ : state) {
    Matrix k = Kronecker(a, b);
    benchmark::DoNotOptimize(k.data());
  }
}
BENCHMARK(BM_Kronecker)->Arg(16)->Arg(32)->Arg(64);

}  // namespace
}  // namespace dtucker

BENCHMARK_MAIN();
