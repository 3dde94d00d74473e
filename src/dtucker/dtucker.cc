#include "dtucker/dtucker.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>

#include "common/memory.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/gemm_kernel.h"
#include "tensor/tensor_ops.h"
#include "tensor/tensor_utils.h"
#include "tucker/hosvd.h"
#include "tucker/tucker_als.h"

namespace dtucker {

namespace {

// The init and iteration phases square the slice singular values (Gram
// accumulation); extreme input magnitudes would denormalize those
// products. When the largest singular value is outside a wide safe band,
// returns it as the scale to divide out (the core scales back linearly);
// the rescaling itself happens on the fly wherever a singular value is
// consumed (si * s_inv), so no copy of the approximation is ever made.
double ComputeScale(const SliceApproximation& approx) {
  double smax = 0.0;
  for (const auto& sl : approx.slices) {
    if (!sl.s.empty()) smax = std::max(smax, sl.s.front());
  }
  if (smax > 0.0 && (smax < 1e-100 || smax > 1e100)) return smax;
  return 1.0;
}

// Total energy of the compressed tensor: ||X~||^2 = sum_l sum_j s_lj^2
// (exact because U<l> and V<l> have orthonormal columns), with the
// singular values rescaled by `s_inv`.
double ApproxSquaredNorm(const SliceApproximation& approx, double s_inv) {
  double total = 0.0;
  for (const auto& sl : approx.slices) {
    for (double s : sl.s) {
      const double v = s * s_inv;
      total += v * v;
    }
  }
  return total;
}

// Grow-only thread_local scratch for per-slice temporaries (the p/q
// matrices of the carrier and projected-core builders, and the scaled
// factor of the Gram accumulation). Distinct slots because one slice build
// needs two live buffers at once. Never handed to nested GEMMs — those
// pack into their own TLS buffers (TlsPackBufferA/B).
double* TlsSliceScratch(int slot, std::size_t doubles) {
  static thread_local std::vector<double> bufs[3];
  std::vector<double>& b = bufs[slot];
  if (b.size() < doubles) b.resize(doubles);
  return b.data();
}

// Runs body(l) for every slice in [0, num_slices). Slices are independent
// and each writes a disjoint output slab, so any partition yields bitwise
// identical results: with a shared pool and enough slices to feed it the
// loop runs across workers (per-slice GEMMs kept serial by
// BlasWorkerScope); otherwise it runs serially and the per-slice GEMMs may
// thread internally (bitwise-deterministic by the packed-GEMM contract).
void ForEachSlice(Index num_slices, const std::function<void(Index)>& body) {
  ThreadPool* pool = SharedBlasPool();
  if (pool != nullptr && !InBlasWorker() &&
      num_slices >= static_cast<Index>(pool->num_threads())) {
    pool->ParallelForRanges(static_cast<std::size_t>(num_slices),
                            /*min_grain=*/1,
                            [&](std::size_t begin, std::size_t end) {
                              BlasWorkerScope scope;
                              for (std::size_t l = begin; l < end; ++l) {
                                body(static_cast<Index>(l));
                              }
                            });
  } else {
    for (Index l = 0; l < num_slices; ++l) body(l);
  }
}

// Number of independent accumulator chunks for the stacked-factor Grams.
// Fixed (never derived from the thread count) so the reduction order —
// and the result bits — do not change with SetBlasThreads().
constexpr Index kSliceChunkCount = 8;

}  // namespace

namespace internal_dtucker {

// Builds the projected tensor T1 (I1 x J2 x I3 x ... x IN) with frontal
// slices (U<l> S<l>) (V<l>^T A2). This is "X x_2 A2^T" computed through the
// slice factorizations at cost O(L (I2 + I1) Js J2).
void BuildModeOneCarrierInto(const SliceApproximation& approx, const Matrix& a2,
                             double s_inv, Tensor* t) {
  DT_TRACE_SPAN("dtucker.carrier_mode1");
  std::vector<Index> shape = approx.shape;
  shape[1] = a2.cols();
  t->ResizeTo(shape);
  const Index i1 = approx.Dim(0);
  const Index i2 = approx.Dim(1);
  const Index j2 = a2.cols();
  const std::size_t slab = static_cast<std::size_t>(i1 * j2);
  ForEachSlice(approx.NumSlices(), [&](Index l) {
    const SliceSvd& sl = approx.slices[static_cast<std::size_t>(l)];
    const Index js = sl.u.cols();
    // q = diag(s * s_inv) (V^T A2), Js x J2, staged in TLS scratch.
    double* q = TlsSliceScratch(0, static_cast<std::size_t>(js * j2));
    GemmRaw(Trans::kYes, Trans::kNo, js, j2, i2, 1.0, sl.v.data(), i2,
            a2.data(), i2, 0.0, q, js);
    for (Index j = 0; j < j2; ++j) {
      double* col = q + static_cast<std::size_t>(j) * static_cast<std::size_t>(js);
      for (Index i = 0; i < js; ++i) {
        col[i] *= sl.s[static_cast<std::size_t>(i)] * s_inv;
      }
    }
    // Slice l of T1 = U q, written straight into its frontal slab.
    GemmRaw(Trans::kNo, Trans::kNo, i1, j2, js, 1.0, sl.u.data(), i1, q, js,
            0.0, t->data() + static_cast<std::size_t>(l) * slab, i1);
  });
}

// Builds T2 (I2 x J1 x trailing): frontal slices V<l> (S<l> U<l>^T A1).
// Deliberately laid out mode-1-first (the transpose of the paper's J1 x I2
// slices): the mode-2 factor update then reads its operand as the *mode-0*
// unfolding of T2, which is the contiguous flat buffer — so the update can
// take the small-side Gram path in LeadingModeVectorsViaGram instead of
// eigendecomposing an I2 x I2 Gram. The two layouts hold identical columns,
// merely reordered, so spans and singular vectors are unchanged.
void BuildModeTwoCarrierInto(const SliceApproximation& approx, const Matrix& a1,
                             double s_inv, Tensor* t) {
  DT_TRACE_SPAN("dtucker.carrier_mode2");
  std::vector<Index> shape = approx.shape;
  shape[0] = approx.Dim(1);
  shape[1] = a1.cols();
  t->ResizeTo(shape);
  const Index i1 = approx.Dim(0);
  const Index i2 = approx.Dim(1);
  const Index j1 = a1.cols();
  const std::size_t slab = static_cast<std::size_t>(i2 * j1);
  ForEachSlice(approx.NumSlices(), [&](Index l) {
    const SliceSvd& sl = approx.slices[static_cast<std::size_t>(l)];
    const Index js = sl.u.cols();
    // p = (A1^T U) diag(s * s_inv), J1 x Js, staged in TLS scratch.
    double* p = TlsSliceScratch(0, static_cast<std::size_t>(j1 * js));
    GemmRaw(Trans::kYes, Trans::kNo, j1, js, i1, 1.0, a1.data(), i1,
            sl.u.data(), i1, 0.0, p, j1);
    for (Index j = 0; j < js; ++j) {
      Scal(sl.s[static_cast<std::size_t>(j)] * s_inv,
           p + static_cast<std::size_t>(j) * static_cast<std::size_t>(j1), j1);
    }
    // Slice l of T2 = V p^T, written straight into its frontal slab.
    GemmRaw(Trans::kNo, Trans::kYes, i2, j1, js, 1.0, sl.v.data(), i2, p, j1,
            0.0, t->data() + static_cast<std::size_t>(l) * slab, i2);
  });
}

// Builds the small projected tensor Z (J1 x J2 x trailing) with frontal
// slices (A1^T U<l> S<l>) (V<l>^T A2).
void BuildProjectedCoreInto(const SliceApproximation& approx, const Matrix& a1,
                            const Matrix& a2, double s_inv, Tensor* z) {
  DT_TRACE_SPAN("dtucker.projected_core");
  std::vector<Index> shape = approx.shape;
  shape[0] = a1.cols();
  shape[1] = a2.cols();
  z->ResizeTo(shape);
  const Index i1 = approx.Dim(0);
  const Index i2 = approx.Dim(1);
  const Index j1 = a1.cols();
  const Index j2 = a2.cols();
  const std::size_t slab = static_cast<std::size_t>(j1 * j2);
  ForEachSlice(approx.NumSlices(), [&](Index l) {
    const SliceSvd& sl = approx.slices[static_cast<std::size_t>(l)];
    const Index js = sl.u.cols();
    double* p = TlsSliceScratch(0, static_cast<std::size_t>(j1 * js));
    GemmRaw(Trans::kYes, Trans::kNo, j1, js, i1, 1.0, a1.data(), i1,
            sl.u.data(), i1, 0.0, p, j1);
    for (Index j = 0; j < js; ++j) {
      Scal(sl.s[static_cast<std::size_t>(j)] * s_inv,
           p + static_cast<std::size_t>(j) * static_cast<std::size_t>(j1), j1);
    }
    double* q = TlsSliceScratch(1, static_cast<std::size_t>(js * j2));
    GemmRaw(Trans::kYes, Trans::kNo, js, j2, i2, 1.0, sl.v.data(), i2,
            a2.data(), i2, 0.0, q, js);
    GemmRaw(Trans::kNo, Trans::kNo, j1, j2, js, 1.0, p, j1, q, js, 0.0,
            z->data() + static_cast<std::size_t>(l) * slab, j1);
  });
}

Tensor BuildProjectedCore(const SliceApproximation& approx, const Matrix& a1,
                          const Matrix& a2) {
  Tensor z;
  BuildProjectedCoreInto(approx, a1, a2, /*s_inv=*/1.0, &z);
  return z;
}

void AccumulateScaledFactorGram(const SliceSvd& sl, int m, double s_inv,
                                double beta, Matrix* gram) {
  const Matrix& f0 = m == 0 ? sl.u : sl.v;
  const Index dim = f0.rows();
  const Index js = f0.cols();
  DT_DCHECK_EQ(gram->rows(), dim);
  if (js == 0) {
    if (beta == 0.0) std::fill(gram->data(), gram->data() + gram->size(), 0.0);
    return;
  }
  double* f = TlsSliceScratch(2, static_cast<std::size_t>(dim * js));
  for (Index j = 0; j < js; ++j) {
    const double sj = sl.s[static_cast<std::size_t>(j)] * s_inv;
    const double* src = f0.col_data(j);
    double* dst = f + static_cast<std::size_t>(j) * static_cast<std::size_t>(dim);
    for (Index i = 0; i < dim; ++i) dst[i] = sj * src[i];
  }
  GemmRaw(Trans::kNo, Trans::kYes, dim, dim, js, 1.0, f, dim, f, dim, beta,
          gram->data(), dim);
}

const Tensor* ContractTrailing(const Tensor& t,
                               const std::vector<Matrix>& factors,
                               Index skip_mode, SweepWorkspace* ws) {
  std::vector<Index> modes;
  for (Index n = 2; n < static_cast<Index>(factors.size()); ++n) {
    if (n != skip_mode) modes.push_back(n);
  }
  // Largest dim -> rank shrinkage first, so the working tensor shrinks as
  // fast as possible (cross-multiplied to avoid fp ratios; stable sort
  // keeps ascending mode order on ties). The order depends only on the
  // factor shapes, never on the thread count.
  std::stable_sort(modes.begin(), modes.end(), [&](Index a, Index b) {
    const Matrix& fa = factors[static_cast<std::size_t>(a)];
    const Matrix& fb = factors[static_cast<std::size_t>(b)];
    return fa.cols() * fb.rows() < fb.cols() * fa.rows();
  });
  const Tensor* cur = &t;
  for (Index n : modes) {
    Tensor* dst = cur == &ws->ttm_a ? &ws->ttm_b : &ws->ttm_a;
    ModeProductInto(*cur, factors[static_cast<std::size_t>(n)], n, Trans::kYes,
                    dst);
    cur = dst;
  }
  return cur;
}

}  // namespace internal_dtucker

namespace {

using internal_dtucker::AccumulateScaledFactorGram;
using internal_dtucker::BuildProjectedCoreInto;
using internal_dtucker::ContractTrailing;
using internal_dtucker::SweepWorkspace;

// G = sum_l F_l diag(s_l * s_inv)^2 F_l^T over the stacked slice factors
// (F = U for m == 0, V for m == 1). Accumulated in kSliceChunkCount
// fixed slice chunks with a fixed-order reduction, parallelized across the
// shared BLAS pool — the same determinism contract as ModeGram.
Matrix StackedFactorGram(const SliceApproximation& approx, int m,
                         double s_inv) {
  const Index dim = approx.Dim(m);
  const Index num = approx.NumSlices();
  Matrix g = Matrix::Uninitialized(dim, dim);
  if (num == 0) {
    std::fill(g.data(), g.data() + g.size(), 0.0);
    return g;
  }
  const Index chunks = std::min(kSliceChunkCount, num);
  std::vector<Matrix> partials(
      static_cast<std::size_t>(chunks > 1 ? chunks - 1 : 0));
  for (Matrix& p : partials) p = Matrix::Uninitialized(dim, dim);
  auto chunk_acc = [&](Index c) -> Matrix* {
    return c == 0 ? &g : &partials[static_cast<std::size_t>(c - 1)];
  };
  auto run_chunk = [&](Index c) {
    const Index begin = num * c / chunks;
    const Index end = num * (c + 1) / chunks;
    Matrix* acc = chunk_acc(c);
    for (Index l = begin; l < end; ++l) {
      AccumulateScaledFactorGram(approx.slices[static_cast<std::size_t>(l)], m,
                                 s_inv, l == begin ? 0.0 : 1.0, acc);
    }
  };
  ThreadPool* pool = SharedBlasPool();
  if (pool != nullptr && !InBlasWorker() && chunks > 1) {
    pool->ParallelForRanges(static_cast<std::size_t>(chunks), /*min_grain=*/1,
                            [&](std::size_t begin, std::size_t end) {
                              BlasWorkerScope scope;
                              for (std::size_t c = begin; c < end; ++c) {
                                run_chunk(static_cast<Index>(c));
                              }
                            });
  } else {
    for (Index c = 0; c < chunks; ++c) run_chunk(c);
  }
  // Fixed-order reduction: ascending chunk index.
  for (Index c = 1; c < chunks; ++c) {
    Axpy(1.0, partials[static_cast<std::size_t>(c - 1)].data(), g.data(),
         g.size());
  }
  return g;
}

// Finds the permutation placing the two largest modes first (stable for
// ties), and its inverse.
void LargestTwoFirstPermutation(const std::vector<Index>& shape,
                                std::vector<Index>* perm,
                                std::vector<Index>* inverse) {
  const Index n = static_cast<Index>(shape.size());
  std::vector<Index> by_size(static_cast<std::size_t>(n));
  std::iota(by_size.begin(), by_size.end(), Index{0});
  std::stable_sort(by_size.begin(), by_size.end(), [&](Index a, Index b) {
    return shape[static_cast<std::size_t>(a)] >
           shape[static_cast<std::size_t>(b)];
  });
  perm->clear();
  perm->push_back(by_size[0]);
  perm->push_back(by_size[1]);
  for (Index k = 0; k < n; ++k) {
    if (k != by_size[0] && k != by_size[1]) perm->push_back(k);
  }
  inverse->assign(static_cast<std::size_t>(n), 0);
  for (Index k = 0; k < n; ++k) {
    (*inverse)[static_cast<std::size_t>((*perm)[static_cast<std::size_t>(k)])] =
        k;
  }
}

struct InitResult {
  std::vector<Matrix> factors;
  Tensor core;
};

// Initialization phase (Section 2 of the header comment). `ctx` is polled
// between panels (one panel = one factor's Gram/eigen solve or one
// projected-core build); the first interruption observed is recorded in
// *stop. Every panel still runs — each is a small bounded unit and all of
// them are required for the result to be a structurally valid
// decomposition — so an interruption here degrades the run to
// "initialization only" rather than aborting it.
InitResult InitializeFactors(const SliceApproximation& approx,
                             const std::vector<Index>& ranks, double s_inv,
                             SweepWorkspace* ws, const RunContext* ctx,
                             StatusCode* stop) {
  const Index order = static_cast<Index>(approx.shape.size());
  InitResult init;
  init.factors.resize(static_cast<std::size_t>(order));
  auto checkpoint = [&] {
    if (stop == nullptr || *stop != StatusCode::kOk) return;
    *stop = RunContext::CheckOrOk(ctx);
  };
  // A1 / A2 from the Grams of the stacked scaled slice factors.
  init.factors[0] =
      TopEigenvectorsSym(StackedFactorGram(approx, 0, s_inv), ranks[0]);
  checkpoint();
  init.factors[1] =
      TopEigenvectorsSym(StackedFactorGram(approx, 1, s_inv), ranks[1]);
  checkpoint();

  // Trailing factors from the small projected tensor Z, matricization-free
  // via the mode-n Gram. The subspace slots seed the sweeps' warm starts:
  // the sweep updates extract from the same In x In mode Grams.
  if (static_cast<Index>(ws->subspace.size()) < order) {
    ws->subspace.resize(static_cast<std::size_t>(order));
  }
  BuildProjectedCoreInto(approx, init.factors[0], init.factors[1], s_inv,
                         &ws->z);
  checkpoint();
  for (Index n = 2; n < order; ++n) {
    init.factors[static_cast<std::size_t>(n)] = LeadingModeVectorsViaGram(
        ws->z, n, ranks[static_cast<std::size_t>(n)],
        &ws->subspace[static_cast<std::size_t>(n)]);
    checkpoint();
  }
  init.core = *ContractTrailing(ws->z, init.factors, /*skip_mode=*/-1, ws);
  return init;
}

}  // namespace

Status DTuckerOptions::Validate(const std::vector<Index>& shape) const {
  if (shape.size() < 3) {
    return Status::InvalidArgument("D-Tucker requires an order >= 3 tensor");
  }
  DT_RETURN_NOT_OK(ValidateRanks(shape, tucker.ranks));
  if (tucker.max_iterations < 0) {
    return Status::InvalidArgument("max_iterations must be non-negative");
  }
  if (tucker.tolerance < 0) {
    return Status::InvalidArgument("tolerance must be non-negative");
  }
  if (slice_rank < 0) {
    return Status::InvalidArgument("slice_rank must be non-negative");
  }
  if (oversampling < 0) {
    return Status::InvalidArgument("oversampling must be non-negative");
  }
  if (power_iterations < 0) {
    return Status::InvalidArgument("power_iterations must be non-negative");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be non-negative");
  }
  return Status::OK();
}

namespace internal_dtucker {

bool DTuckerSweep(const SliceApproximation& approx,
                  const std::vector<Index>& ranks,
                  std::vector<Matrix>* factors, Tensor* core,
                  SweepWorkspace* ws, double s_inv, const RunContext* ctx) {
  DT_TRACE_SPAN("dtucker.sweep");
  const Index order = static_cast<Index>(approx.shape.size());
  if (static_cast<Index>(ws->subspace.size()) < order) {
    ws->subspace.resize(static_cast<std::size_t>(order));
  }
  // Interruption checkpoints sit between mode updates: a mode update is the
  // bounded unit of work (one carrier build + one eigen solve), so a
  // cancellation is noticed within one update's latency. After a trip the
  // factors are mid-update — the caller owns the pre-sweep snapshot.
  auto interrupted = [&] {
    return RunContext::CheckOrOk(ctx) != StatusCode::kOk;
  };
  // Inexact inner solves: each factor update only needs a subspace good
  // enough for the next HOOI sweep to improve on, and the warm start means
  // the basis keeps refining across sweeps even when a single call stops
  // early. On the flat spectra HOOI produces near convergence, the default
  // 1e-11 Ritz tolerance never trips and every solve would burn the full
  // 50-sweep budget for digits the outer loop immediately discards.
  SubspaceIterationOptions inner_eig;
  inner_eig.max_sweeps = 4;
  inner_eig.ritz_tolerance = 1e-9;
  // Mode-1 update: carrier T1 = X~ x_2 A2^T, contract trailing modes, then
  // leading left singular vectors of the mode-0 unfolding — the small-side
  // Gram path of LeadingModeVectorsViaGram (the contracted carrier is
  // I1 x J2 x J3 x ..., so the wide side is a product of ranks),
  // warm-started from the previous sweep's subspace.
  if (interrupted()) return false;
  {
    DT_TRACE_SPAN("dtucker.update_mode1");
    BuildModeOneCarrierInto(approx, (*factors)[1], s_inv, &ws->carrier);
    (*factors)[0] = LeadingModeVectorsViaGram(
        *ContractTrailing(ws->carrier, *factors, /*skip_mode=*/-1, ws), 0,
        ranks[0], &ws->subspace[0], inner_eig);
  }
  if (interrupted()) return false;
  {
    // Mode-2 update (uses the fresh A1). T2 is laid out mode-1-first, so
    // this too is a mode-0 problem on the contracted carrier
    // (I2 x J1 x J3 x ...).
    DT_TRACE_SPAN("dtucker.update_mode2");
    BuildModeTwoCarrierInto(approx, (*factors)[0], s_inv, &ws->carrier);
    (*factors)[1] = LeadingModeVectorsViaGram(
        *ContractTrailing(ws->carrier, *factors, /*skip_mode=*/-1, ws), 0,
        ranks[1], &ws->subspace[1], inner_eig);
  }
  {
    // Trailing-mode updates share one projected tensor Z built from the
    // fresh A1, A2 (Z does not depend on trailing factors).
    DT_TRACE_SPAN("dtucker.update_trailing");
    if (interrupted()) return false;
    BuildProjectedCoreInto(approx, (*factors)[0], (*factors)[1], s_inv,
                           &ws->z);
    for (Index n = 2; n < order; ++n) {
      if (interrupted()) return false;
      (*factors)[static_cast<std::size_t>(n)] = LeadingModeVectorsViaGram(
          *ContractTrailing(ws->z, *factors, /*skip_mode=*/n, ws), n,
          ranks[static_cast<std::size_t>(n)],
          &ws->subspace[static_cast<std::size_t>(n)], inner_eig);
    }
  }
  if (interrupted()) return false;
  {
    DT_TRACE_SPAN("dtucker.core_refresh");
    *core = *ContractTrailing(ws->z, *factors, /*skip_mode=*/-1, ws);
  }
  return true;
}

bool DTuckerSweep(const SliceApproximation& approx,
                  const std::vector<Index>& ranks,
                  std::vector<Matrix>* factors, Tensor* core) {
  SweepWorkspace ws;
  return DTuckerSweep(approx, ranks, factors, core, &ws, /*s_inv=*/1.0);
}

}  // namespace internal_dtucker

Result<RankSuggestion> SuggestRanksFromApproximation(
    const SliceApproximation& approx, double energy_threshold,
    Index max_rank) {
  if (energy_threshold <= 0.0 || energy_threshold > 1.0) {
    return Status::InvalidArgument("energy_threshold must be in (0, 1]");
  }
  DT_RETURN_NOT_OK(approx.Validate());
  const Index order = static_cast<Index>(approx.shape.size());

  RankSuggestion out;
  out.ranks.resize(static_cast<std::size_t>(order));
  out.spectra.resize(static_cast<std::size_t>(order));
  out.retained_energy.resize(static_cast<std::size_t>(order));

  auto pick = [&](std::vector<double> spectrum, Index mode) {
    double total = 0;
    for (double v : spectrum) total += std::max(v, 0.0);
    Index rank = 1;
    double cum = 0;
    for (std::size_t i = 0; i < spectrum.size(); ++i) {
      cum += std::max(spectrum[i], 0.0);
      rank = static_cast<Index>(i + 1);
      if (total <= 0.0 || cum >= energy_threshold * total) break;
    }
    if (max_rank > 0) rank = std::min(rank, max_rank);
    double kept = 0;
    for (Index i = 0; i < rank; ++i) {
      kept += std::max(spectrum[static_cast<std::size_t>(i)], 0.0);
    }
    out.ranks[static_cast<std::size_t>(mode)] = rank;
    out.retained_energy[static_cast<std::size_t>(mode)] =
        total > 0 ? kept / total : 1.0;
    out.spectra[static_cast<std::size_t>(mode)] = std::move(spectrum);
  };

  // Modes 1 and 2: exact (for the approximated tensor) spectra from the
  // accumulated slice-factor Grams, since X~_(1) X~_(1)^T = sum_l U S^2 U^T.
  std::vector<Matrix> leading_vecs(2);
  for (int m = 0; m < 2; ++m) {
    const Index dim = approx.Dim(m);
    EigenSymResult eig = EigenSym(StackedFactorGram(approx, m, /*s_inv=*/1.0));
    leading_vecs[static_cast<std::size_t>(m)] = eig.vectors.LeftCols(
        std::min(dim, std::max<Index>(approx.slice_rank, 1)));
    pick(std::move(eig.values), m);
  }

  // Trailing modes: spectra of the projected tensor Z built at the probe
  // rank — energy within the leading-subspace projection (a lower bound
  // that is tight when the probe rank covers the signal). The mode Grams
  // come straight from Z's flat buffer (no unfolding copies).
  Tensor z = internal_dtucker::BuildProjectedCore(approx, leading_vecs[0],
                                                  leading_vecs[1]);
  for (Index n = 2; n < order; ++n) {
    EigenSymResult eig = EigenSym(ModeGram(z, n));
    pick(std::move(eig.values), n);
  }
  return out;
}

Result<TuckerDecomposition> DTuckerInitializeOnly(
    const SliceApproximation& approx, const DTuckerOptions& options) {
  DT_RETURN_NOT_OK(approx.Validate());
  DT_RETURN_NOT_OK(options.Validate(approx.shape));
  const RunContext* ctx = options.tucker.run_context;
  if (ctx != nullptr) {
    DT_RETURN_NOT_OK(ctx->CheckStatus("d-tucker initialization"));
  }
  const double scale = ComputeScale(approx);
  const double s_inv = 1.0 / scale;  // Exactly 1.0 in the common case.
  SweepWorkspace ws;
  // All panels run even under interruption (see InitializeFactors): the
  // init-only result *is* the final product here, so nothing is skipped.
  StatusCode stop = StatusCode::kOk;
  InitResult init = InitializeFactors(approx, options.tucker.ranks, s_inv,
                                      &ws, ctx, &stop);
  TuckerDecomposition dec;
  dec.factors = std::move(init.factors);
  dec.core = std::move(init.core);
  if (scale != 1.0) dec.core *= scale;
  return dec;
}

Result<TuckerDecomposition> DTuckerFromApproximation(
    const SliceApproximation& approx, const DTuckerOptions& options,
    TuckerStats* stats) {
  DT_RETURN_NOT_OK(approx.Validate());
  DT_RETURN_NOT_OK(options.Validate(approx.shape));
  const RunContext* ctx = options.tucker.run_context;
  // Nothing has been computed yet, so an interruption observed here is a
  // plain error rather than a degraded result.
  if (ctx != nullptr) DT_RETURN_NOT_OK(ctx->CheckStatus("d-tucker solve"));
  const double scale = ComputeScale(approx);
  const double s_inv = 1.0 / scale;  // Exactly 1.0 in the common case.
  const double approx_norm2 = ApproxSquaredNorm(approx, s_inv);

  Timer init_timer;
  SweepWorkspace ws;
  StatusCode stop = StatusCode::kOk;
  InitResult state = [&] {
    DT_TRACE_SPAN("dtucker.initialization");
    return InitializeFactors(approx, options.tucker.ranks, s_inv, &ws, ctx,
                             &stop);
  }();
  GlobalPhaseTimer().Add("dtucker.initialization", init_timer.Seconds());
  if (stats != nullptr) stats->init_seconds = init_timer.Seconds();
  const char* stop_phase =
      stop != StatusCode::kOk ? "initialization" : nullptr;

  Timer iterate_timer;
  DT_TRACE_SPAN("dtucker.iteration");
  double prev_error =
      OrthogonalTuckerRelativeError(approx_norm2, state.core.SquaredNorm());
  if (stats != nullptr) stats->error_history.push_back(prev_error);
  static Counter& eig_sweeps = MetricCounter("eig.subspace_sweeps");
  double prev_fit = 1.0 - std::sqrt(std::max(prev_error, 0.0));

  // Pre-sweep snapshots (taken whenever a RunContext is attached — a
  // cancel from another thread can land mid-sweep even if the context was
  // idle at loop entry): a mid-sweep abort leaves the factors half-updated,
  // so the loop rolls back to the last completed sweep — the returned
  // decomposition then matches the last telemetry record exactly.
  const bool armed = ctx != nullptr;
  std::vector<Matrix> factors_snapshot;
  Tensor core_snapshot;

  int it = 0;
  for (; it < options.tucker.max_iterations; ++it) {
    if (stop == StatusCode::kOk) stop = RunContext::CheckOrOk(ctx);
    if (stop != StatusCode::kOk) {
      if (stop_phase == nullptr) stop_phase = "between iteration sweeps";
      break;
    }
    Timer sweep_timer;
    const std::uint64_t eig_before = eig_sweeps.Value();
    if (armed) {
      factors_snapshot = state.factors;
      core_snapshot = state.core;
    }
    const bool completed = internal_dtucker::DTuckerSweep(
        approx, options.tucker.ranks, &state.factors, &state.core, &ws, s_inv,
        ctx);
    if (!completed) {
      state.factors = std::move(factors_snapshot);
      state.core = std::move(core_snapshot);
      stop = RunContext::CheckOrOk(ctx);
      if (stop == StatusCode::kOk) stop = StatusCode::kCancelled;
      stop_phase = "mid-sweep (rolled back to the previous sweep)";
      break;
    }
    const double error = OrthogonalTuckerRelativeError(
        approx_norm2, state.core.SquaredNorm());
    static Histogram& sweep_hist = MetricHistogram("dtucker.sweep_ns");
    sweep_hist.Record(
        static_cast<std::uint64_t>(sweep_timer.Seconds() * 1e9));
    if (stats != nullptr) stats->error_history.push_back(error);
    const bool want_telemetry = stats != nullptr || options.sweep_callback;
    if (want_telemetry) {
      SweepTelemetry t;
      t.sweep = it + 1;
      t.relative_error = error;
      t.fit = 1.0 - std::sqrt(std::max(error, 0.0));
      t.delta_fit = t.fit - prev_fit;
      t.seconds = sweep_timer.Seconds();
      t.subspace_iterations = eig_sweeps.Value() - eig_before;
      prev_fit = t.fit;
      if (stats != nullptr) stats->sweep_history.push_back(t);
      if (options.sweep_callback) options.sweep_callback(t);
    }
    const double delta = std::fabs(prev_error - error);
    prev_error = error;
    if (delta < options.tucker.tolerance) {
      ++it;
      break;
    }
  }
  GlobalPhaseTimer().Add("dtucker.iteration", iterate_timer.Seconds());
  MetricGauge("process.peak_rss_bytes")
      .SetMax(static_cast<double>(PeakRssBytes()));
  if (stats != nullptr) {
    stats->iterations = it;
    stats->iterate_seconds = iterate_timer.Seconds();
    stats->working_bytes = approx.ByteSize();
    stats->completion = stop;
    if (stop != StatusCode::kOk) {
      stats->completion_detail =
          std::string(StatusCodeToString(stop)) + " during " +
          (stop_phase != nullptr ? stop_phase : "iteration") + "; " +
          std::to_string(it) + " completed sweep(s)";
    }
  }

  TuckerDecomposition dec;
  dec.factors = std::move(state.factors);
  dec.core = std::move(state.core);
  if (scale != 1.0) dec.core *= scale;
  return dec;
}

Result<TuckerDecomposition> DTucker(const Tensor& x,
                                    const DTuckerOptions& options,
                                    TuckerStats* stats) {
  DT_RETURN_NOT_OK(options.Validate(x.shape()));
  if (options.tucker.validate_input) DT_RETURN_NOT_OK(ValidateFinite(x));

  if (options.auto_reorder) {
    std::vector<Index> perm, inverse;
    LargestTwoFirstPermutation(x.shape(), &perm, &inverse);
    bool already_ordered = true;
    for (Index k = 0; k < x.order(); ++k) {
      if (perm[static_cast<std::size_t>(k)] != k) already_ordered = false;
    }
    if (!already_ordered) {
      Tensor xp = x.Permuted(perm);
      DTuckerOptions inner = options;
      inner.auto_reorder = false;
      inner.tucker.ranks.clear();
      for (Index k = 0; k < x.order(); ++k) {
        inner.tucker.ranks.push_back(options.tucker.ranks[static_cast<std::size_t>(
            perm[static_cast<std::size_t>(k)])]);
      }
      DT_ASSIGN_OR_RETURN(TuckerDecomposition dp, DTucker(xp, inner, stats));
      TuckerDecomposition dec;
      dec.factors.resize(static_cast<std::size_t>(x.order()));
      for (Index k = 0; k < x.order(); ++k) {
        dec.factors[static_cast<std::size_t>(perm[static_cast<std::size_t>(k)])] =
            std::move(dp.factors[static_cast<std::size_t>(k)]);
      }
      dec.core = dp.core.Permuted(inverse);
      return dec;
    }
  }

  SliceApproximationOptions approx_opts;
  approx_opts.slice_rank =
      std::min(options.EffectiveSliceRank(), std::min(x.dim(0), x.dim(1)));
  approx_opts.oversampling = options.oversampling;
  approx_opts.power_iterations = options.power_iterations;
  approx_opts.seed = options.tucker.seed;
  approx_opts.num_threads = options.num_threads;
  approx_opts.run_context = options.tucker.run_context;

  Timer approx_timer;
  Result<SliceApproximation> approx_result = [&] {
    DT_TRACE_SPAN("dtucker.approximation");
    return ApproximateSlices(x, approx_opts);
  }();
  if (!approx_result.ok()) return approx_result.status();
  SliceApproximation approx = std::move(approx_result).ValueOrDie();
  GlobalPhaseTimer().Add("dtucker.approximation", approx_timer.Seconds());
  if (stats != nullptr) stats->preprocess_seconds = approx_timer.Seconds();

  return DTuckerFromApproximation(approx, options, stats);
}

}  // namespace dtucker
