// Microbenchmarks for the hand-written linear-algebra substrate.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "fft/fft.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/eigen_tridiag.h"
#include "linalg/qr.h"
#include "linalg/svd.h"
#include "rsvd/rsvd.h"

namespace dtucker {
namespace {

// Reports GEMM throughput as a GFLOP/s counter (2*m*n*k flops per product)
// so runs track the kernel's absolute efficiency, not just its time.
void SetGemmCounters(benchmark::State& state, Index m, Index n, Index k) {
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(flops));
}

void BM_GemmSquare(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(1);
  Matrix a = Matrix::GaussianRandom(n, n, rng);
  Matrix b = Matrix::GaussianRandom(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  SetGemmCounters(state, n, n, n);
}
BENCHMARK(BM_GemmSquare)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

// Same product, pool sized per the second argument: the threads/1-thread
// ratio at a fixed size is the kernel's parallel efficiency.
void BM_GemmSquareThreaded(benchmark::State& state) {
  const Index n = state.range(0);
  SetBlasThreads(static_cast<int>(state.range(1)));
  Rng rng(1);
  Matrix a = Matrix::GaussianRandom(n, n, rng);
  Matrix b = Matrix::GaussianRandom(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  SetGemmCounters(state, n, n, n);
  SetBlasThreads(1);
}
BENCHMARK(BM_GemmSquareThreaded)
    ->Args({512, 1})
    ->Args({512, 2})
    ->Args({512, 4});

// Transposed operands: packing absorbs the transpose, so these should
// track BM_GemmSquare closely (the seed kernel paid an extra materialized
// copy here).
void BM_GemmTransposed(benchmark::State& state) {
  const Index n = state.range(0);
  const Trans ta = state.range(1) != 0 ? Trans::kYes : Trans::kNo;
  const Trans tb = state.range(2) != 0 ? Trans::kYes : Trans::kNo;
  Rng rng(1);
  Matrix a = Matrix::GaussianRandom(n, n, rng);
  Matrix b = Matrix::GaussianRandom(n, n, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    Gemm(ta, tb, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  SetGemmCounters(state, n, n, n);
}
BENCHMARK(BM_GemmTransposed)
    ->Args({256, 1, 0})
    ->Args({256, 0, 1})
    ->Args({512, 1, 0})
    ->Args({512, 0, 1})
    ->Args({512, 1, 1});

void BM_GemmTallSkinny(benchmark::State& state) {
  // The shape dominating D-Tucker: (I x I) times (I x J), J small.
  const Index m = state.range(0);
  const Index j = 10;
  Rng rng(2);
  Matrix a = Matrix::GaussianRandom(m, m, rng);
  Matrix b = Matrix::GaussianRandom(m, j, rng);
  Matrix c(m, j);
  for (auto _ : state) {
    Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
  }
  SetGemmCounters(state, m, j, m);
}
BENCHMARK(BM_GemmTallSkinny)->Arg(128)->Arg(512)->Arg(1024);

// The slice rSVD's products on a 256^2 slice at rank 10 + 5 oversampling:
// A * Omega and A * Z (trans_a = 0), and A^T * Q (trans_a = 1).
void BM_GemmSlice(benchmark::State& state) {
  const Index m = state.range(0);
  const Trans ta = state.range(1) != 0 ? Trans::kYes : Trans::kNo;
  const Index j = 15;
  Rng rng(3);
  Matrix a = Matrix::GaussianRandom(m, m, rng);
  Matrix b = Matrix::GaussianRandom(m, j, rng);
  Matrix c(m, j);
  for (auto _ : state) {
    Gemm(ta, Trans::kNo, 1.0, a, b, 0.0, &c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  SetGemmCounters(state, m, j, m);
}
BENCHMARK(BM_GemmSlice)->Args({256, 0})->Args({256, 1});

// The n x n Gram A A^T of an n x k panel (the mode-0 ModeGram and factor
// update shape), threads per the third argument: SyrkRaw's lower tiles
// against the full GemmRaw product it replaces.
template <bool kSyrk>
void GramProduct(benchmark::State& state) {
  const Index n = state.range(0);
  const Index k = state.range(1);
  SetBlasThreads(static_cast<int>(state.range(2)));
  Rng rng(4);
  Matrix a = Matrix::GaussianRandom(n, k, rng);
  Matrix c(n, n);
  for (auto _ : state) {
    if (kSyrk) {
      SyrkRaw(Trans::kNo, n, k, a.data(), n, c.data(), n);
    } else {
      GemmRaw(Trans::kNo, Trans::kYes, n, n, k, 1.0, a.data(), n, a.data(), n,
              0.0, c.data(), n);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  SetGemmCounters(state, n, n, k);  // Full-product flops for both.
  SetBlasThreads(1);
}

void BM_GramGemm(benchmark::State& state) { GramProduct<false>(state); }
void BM_GramSyrk(benchmark::State& state) { GramProduct<true>(state); }

void GramShapes(benchmark::internal::Benchmark* b) {
  for (int threads : {1, 4}) {
    b->Args({100, 300, threads});
    b->Args({128, 400, threads});
    b->Args({256, 400, threads});
    b->Args({300, 400, threads});
  }
  b->UseRealTime();
}
BENCHMARK(BM_GramGemm)->Apply(GramShapes);
BENCHMARK(BM_GramSyrk)->Apply(GramShapes);

// Householder QR flop model (LAPACK working notes): factoring an m x n
// matrix costs 2n^2(m - n/3), and forming the thin Q costs the same again.
// The GFLOP/s counter makes QR runs comparable across shapes the same way
// the GEMM counter is.
void SetQrCounters(benchmark::State& state, Index m, Index n, bool forms_q) {
  const double mn = static_cast<double>(m) - static_cast<double>(n) / 3.0;
  double flops = 2.0 * static_cast<double>(n) * static_cast<double>(n) * mn;
  if (forms_q) flops *= 2.0;
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(flops));
}

// Householder QR, the CholeskyQR2 fallback and ThinSvd's preconditioner,
// on tall-skinny and wider shapes.
void BM_ThinQr(benchmark::State& state) {
  const Index m = state.range(0);
  const Index n = state.range(1);
  Rng rng(3);
  Matrix a = Matrix::GaussianRandom(m, n, rng);
  for (auto _ : state) {
    QrResult qr = ThinQr(a);
    benchmark::DoNotOptimize(qr.q.data());
  }
  SetQrCounters(state, m, n, /*forms_q=*/true);
}
BENCHMARK(BM_ThinQr)
    ->Args({100, 15})
    ->Args({400, 15})
    ->Args({1600, 15})
    ->Args({4096, 64})
    ->Args({1024, 256});

void BM_QrOrthonormalize(benchmark::State& state) {
  const Index m = state.range(0);
  const Index n = state.range(1);
  Rng rng(3);
  Matrix a = Matrix::GaussianRandom(m, n, rng);
  for (auto _ : state) {
    Matrix q = QrOrthonormalize(a);
    benchmark::DoNotOptimize(q.data());
  }
  SetQrCounters(state, m, n, /*forms_q=*/true);
}
BENCHMARK(BM_QrOrthonormalize)
    ->Args({1024, 15})
    ->Args({4096, 15})
    ->Args({4096, 64})
    ->Args({8192, 128})
    ->Args({1024, 256});

// The slice rSVD's panel orthonormalizer on its I x (J + p) panels. The
// flop counter models the useful work: two symmetric Grams and two
// triangular solves, m k^2 flops each.
void BM_CholeskyQr2(benchmark::State& state) {
  const Index m = state.range(0);
  const Index k = state.range(1);
  Rng rng(3);
  Matrix a = Matrix::GaussianRandom(m, k, rng);
  Matrix q = Matrix::Uninitialized(m, k);
  Matrix r = Matrix::Uninitialized(k, k);
  for (auto _ : state) {
    CholeskyQr2Raw(a.data(), m, k, q.data(), r.data());
    benchmark::DoNotOptimize(q.data());
    benchmark::DoNotOptimize(r.data());
    benchmark::ClobberMemory();
  }
  const double flops = 4.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(k);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_CholeskyQr2)->Args({80, 15})->Args({256, 15})->Args({1024, 15});

void BM_ThinSvdSmall(benchmark::State& state) {
  const Index n = state.range(0);
  Rng rng(4);
  Matrix a = Matrix::GaussianRandom(n, n, rng);
  for (auto _ : state) {
    SvdResult svd = ThinSvd(a);
    benchmark::DoNotOptimize(svd.u.data());
  }
}
BENCHMARK(BM_ThinSvdSmall)->Arg(10)->Arg(30)->Arg(60);

// The approximation-phase primitive on slice-shaped inputs. The flop
// counter models the dominant cost — (2q + 1) dense passes over the
// (m x n) slice at 2 m n sketch flops each — so GFLOP/s tracks how much
// of the packed kernel's throughput the restructured rSVD reaches.
void BM_RandomizedSvd(benchmark::State& state) {
  const Index m = state.range(0);
  const Index n = state.range(1);
  Rng rng(5);
  Matrix a = Matrix::GaussianRandom(m, n, rng);
  RsvdOptions opt;
  opt.rank = 10;
  for (auto _ : state) {
    SvdResult svd = RandomizedSvd(a, opt);
    benchmark::DoNotOptimize(svd.u.data());
  }
  const Index sketch = opt.rank + opt.oversampling;
  const double passes = 2.0 * opt.power_iterations + 1.0;
  const double flops = passes * 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(sketch);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(flops));
}
BENCHMARK(BM_RandomizedSvd)
    ->Args({128, 64})
    ->Args({256, 128})
    ->Args({512, 256})
    ->Args({1024, 1024})
    ->Args({4096, 512});

// The approximation phase's unit of work: one group of kRsvdGroupSize
// slices, each sketched, then one batched core SVD, then each slice's
// factors. us/slice is the wall time per slice; GFLOP/s uses
// BM_RandomizedSvd's pass model.
void BM_SliceRsvdGroup(benchmark::State& state) {
  const Index m = state.range(0);
  const Index n = state.range(1);
  Rng rng(5);
  std::vector<Matrix> slices;
  for (int l = 0; l < kRsvdGroupSize; ++l) {
    slices.push_back(Matrix::GaussianRandom(m, n, rng));
  }
  RsvdOptions opt;
  opt.rank = 10;
  opt.oversampling = 5;
  RsvdGroup group(m, n, opt);
  for (auto _ : state) {
    for (int l = 0; l < kRsvdGroupSize; ++l) {
      group.Sketch(l, slices[static_cast<std::size_t>(l)].data(), 42 + l);
    }
    group.Solve(kRsvdGroupSize);
    for (int l = 0; l < kRsvdGroupSize; ++l) {
      SvdResult svd = group.Extract(l, group.target());
      benchmark::DoNotOptimize(svd.u.data());
    }
  }
  const Index sketch = opt.rank + opt.oversampling;
  const double passes = 2.0 * opt.power_iterations + 1.0;
  const double flops = kRsvdGroupSize * passes * 2.0 * static_cast<double>(m) *
                       static_cast<double>(n) * static_cast<double>(sketch);
  state.counters["GFLOP/s"] = benchmark::Counter(
      flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["us/slice"] = benchmark::Counter(
      kRsvdGroupSize * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_SliceRsvdGroup)->Args({80, 60})->Args({256, 256});

Matrix BenchSymmetric(Index n) {
  Rng rng(11);
  Matrix g = Matrix::GaussianRandom(n, n / 2 + 1, rng);
  return Gram(g.Transposed());
}

void BM_EigenSymJacobi(benchmark::State& state) {
  Matrix a = BenchSymmetric(state.range(0));
  for (auto _ : state) {
    EigenSymResult eig = EigenSym(a);
    benchmark::DoNotOptimize(eig.values.data());
  }
}
BENCHMARK(BM_EigenSymJacobi)->Arg(30)->Arg(60)->Arg(120);

void BM_EigenSymQl(benchmark::State& state) {
  Matrix a = BenchSymmetric(state.range(0));
  for (auto _ : state) {
    auto eig = EigenSymQr(a);
    benchmark::DoNotOptimize(eig.ok());
  }
}
BENCHMARK(BM_EigenSymQl)->Arg(20)->Arg(64)->Arg(128)->Arg(240);

// A graded PSD spectrum: the Gram A A^T of n x 300 Gaussian columns scaled
// by 0.9^j, whose eigenvalues fall below eps * ||A A^T|| past j ~ 170.
Matrix GradedGram(Index n) {
  Rng rng(12);
  Matrix a = Matrix::GaussianRandom(n, 300, rng);
  double scale = 1.0;
  for (Index j = 0; j < a.cols(); ++j, scale *= 0.9) {
    Scal(scale, a.col_data(j), n);
  }
  return MultiplyNT(a, a);
}

void BM_EigenSymQlGraded(benchmark::State& state) {
  Matrix a = GradedGram(state.range(0));
  for (auto _ : state) {
    auto eig = EigenSymQr(a);
    if (!eig.ok()) state.SkipWithError("QL did not converge");
    benchmark::DoNotOptimize(eig.ok());
  }
}
BENCHMARK(BM_EigenSymQlGraded)->Arg(200);

void BM_TopEigSubspace(benchmark::State& state) {
  Matrix a = BenchSymmetric(state.range(0));
  for (auto _ : state) {
    Matrix v = TopEigenvectorsSym(a, 10);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_TopEigSubspace)->Arg(120)->Arg(240)->Arg(480);

void BM_Fft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex(rng.Gaussian(), 0);
  for (auto _ : state) {
    std::vector<Complex> y = x;
    Fft(&y);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(4096)->Arg(1000)->Arg(4100);

}  // namespace
}  // namespace dtucker

BENCHMARK_MAIN();
