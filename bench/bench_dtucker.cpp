// Microbenchmarks for the D-Tucker iteration phase: the matricization-free
// mode-n Gram kernel, the slice kernels of the carrier builders, one HOOI
// sweep, and the end-to-end pipeline. The binary links the global
// allocation probe (alloc_probe.h) so BM_ModeGram can assert the kernel
// never materializes an unfolding-sized copy.
#include <benchmark/benchmark.h>

#include "alloc_probe.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "dtucker/dtucker.h"
#include "linalg/blas.h"
#include "tensor/tensor_ops.h"

namespace dtucker {
namespace {

Tensor BenchTensor(Index side) {
  Rng rng(1);
  return Tensor::GaussianRandom({side, side, 32}, rng);
}

SliceApproximation BenchApprox(const Tensor& x) {
  SliceApproximationOptions opt;
  opt.slice_rank = 10;
  return ApproximateSlices(x, opt).value();
}

DTuckerOptions BenchOptions() {
  DTuckerOptions opt;
  opt.tucker.ranks = {10, 10, 10};
  opt.tucker.max_iterations = 3;
  opt.tucker.tolerance = 0.0;
  return opt;
}

// args: {side, mode}. Asserts the matricization-free contract: one call
// allocates strictly less than one unfolding copy of the tensor.
void BM_ModeGram(benchmark::State& state) {
  const Index side = state.range(0);
  const Index mode = state.range(1);
  Tensor x = BenchTensor(side);
  // Warm-up (also grows any lazy TLS buffers), then probe one call.
  { Matrix g = ModeGram(x, mode); benchmark::DoNotOptimize(g.data()); }
  const std::size_t before = AllocatedBytes();
  { Matrix g = ModeGram(x, mode); benchmark::DoNotOptimize(g.data()); }
  const std::size_t probe = AllocatedBytes() - before;
  const std::size_t unfold_bytes = x.ByteSize();
  if (probe >= unfold_bytes) {
    state.SkipWithError("ModeGram allocated an unfolding-sized copy");
    return;
  }
  for (auto _ : state) {
    Matrix g = ModeGram(x, mode);
    benchmark::DoNotOptimize(g.data());
  }
  const double flops = 2.0 * static_cast<double>(x.size()) * x.dim(mode);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["alloc_bytes"] = static_cast<double>(probe);
  state.counters["unfold_bytes"] = static_cast<double>(unfold_bytes);
  // Mirror the probe into the registry so a metrics snapshot of this
  // binary reports the same number the benchmark counter shows.
  MetricGauge("alloc.probe_bytes").SetMax(static_cast<double>(probe));
}
BENCHMARK(BM_ModeGram)
    ->Args({64, 0})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2});

// args: {side, which} — which 0: T1 builder, 1: T2 builder, 2: Z builder.
void BM_BuildCarrier(benchmark::State& state) {
  const Index side = state.range(0);
  const int which = static_cast<int>(state.range(1));
  Tensor x = BenchTensor(side);
  SliceApproximation approx = BenchApprox(x);
  Rng rng(2);
  Matrix a1 = Matrix::GaussianRandom(side, 10, rng);
  Matrix a2 = Matrix::GaussianRandom(side, 10, rng);
  Tensor out;
  for (auto _ : state) {
    switch (which) {
      case 0:
        internal_dtucker::BuildModeOneCarrierInto(approx.slices, side, a2, 1.0,
                                                  &out);
        break;
      case 1:
        internal_dtucker::BuildModeTwoCarrierInto(approx.slices, side, a1, 1.0,
                                                  &out);
        break;
      default:
        out.ResizeTo({10, 10, approx.NumSlices()});
        internal_dtucker::BuildProjectedCoreInto(approx.slices, a1, a2, 1.0,
                                                 out.data());
        break;
    }
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BuildCarrier)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({128, 2})
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({256, 2});

// One HOOI sweep through DTuckerFromApproximation at `threads` threads:
// the timed interval is the solver's own iteration-phase time for a
// one-sweep budget (initialization excluded), the steady-state sweep cost.
void RunOneSweep(benchmark::State& state, const RunContext* ctx) {
  const Index side = state.range(0);
  const int threads = static_cast<int>(state.range(1));
  SetBlasThreads(threads);
  Tensor x = BenchTensor(side);
  SliceApproximation approx = BenchApprox(x);
  DTuckerOptions opt = BenchOptions();
  opt.tucker.max_iterations = 1;
  opt.tucker.run_context = ctx;
  opt.num_threads = threads;
  for (auto _ : state) {
    TuckerStats stats;
    auto dec = DTuckerFromApproximation(approx, opt, &stats);
    benchmark::DoNotOptimize(dec.ok());
    state.SetIterationTime(stats.iterate_seconds);
  }
  SetBlasThreads(1);
}

// args: {side, threads}.
void BM_DTuckerSweep(benchmark::State& state) { RunOneSweep(state, nullptr); }
BENCHMARK(BM_DTuckerSweep)
    ->UseManualTime()
    ->Args({64, 1})
    ->Args({64, 8})
    ->Args({128, 1})
    ->Args({128, 8})
    ->Args({256, 1})
    ->Args({256, 8});

// args: {side, threads}. Same sweep with a live RunContext attached: the
// per-mode cancellation checks (relaxed atomic load + branch) are on, so
// the delta against BM_DTuckerSweep is the armed execution-control
// overhead. Must stay within run-to-run noise (±3%) of the un-armed
// number — see EXPERIMENTS.md.
void BM_DTuckerSweepArmed(benchmark::State& state) {
  RunContext ctx;
  ctx.SetDeadlineAfter(3600.0);  // Armed but never firing.
  RunOneSweep(state, &ctx);
}
BENCHMARK(BM_DTuckerSweepArmed)
    ->UseManualTime()
    ->Args({128, 1})
    ->Args({128, 8})
    ->Args({256, 1})
    ->Args({256, 8});

// args: {side, threads}. Approximation + initialization + iteration.
void BM_DTuckerEndToEnd(benchmark::State& state) {
  const Index side = state.range(0);
  SetBlasThreads(static_cast<int>(state.range(1)));
  Tensor x = BenchTensor(side);
  DTuckerOptions opt = BenchOptions();
  opt.num_threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto dec = DTucker(x, opt);
    benchmark::DoNotOptimize(dec.ok());
  }
  SetBlasThreads(1);
}
BENCHMARK(BM_DTuckerEndToEnd)
    ->Args({64, 1})
    ->Args({64, 8})
    ->Args({128, 1})
    ->Args({128, 8})
    ->Args({256, 1})
    ->Args({256, 8});

}  // namespace
}  // namespace dtucker

BENCHMARK_MAIN();
