#include "dtucker/dtucker.h"

#include <algorithm>
#include <numeric>

#include "common/trace.h"
#include "linalg/blas.h"
#include "rsvd/rsvd.h"
#include "tensor/tensor_ops.h"
#include "tucker/tucker_als.h"

namespace dtucker {

namespace {

// Grow-only thread_local scratch for per-slice temporaries (the p/q
// matrices of the carrier and projected-core builders). Distinct slots
// because one slice build needs two live buffers at once. Never handed to
// nested GEMMs — those pack into their own TLS buffers (TlsPackBufferA/B).
double* TlsSliceScratch(int slot, std::size_t doubles) {
  static thread_local std::vector<double> bufs[2];
  std::vector<double>& b = bufs[slot];
  if (b.size() < doubles) b.resize(doubles);
  return b.data();
}

Index NumSlices(std::span<const SliceSvd> slices) {
  return static_cast<Index>(slices.size());
}

}  // namespace

namespace internal_dtucker {

// T1 is "X x_2 A2^T" restricted to the slices, computed through the slice
// factorizations at cost O(n (I2 + I1) Js J2).
void BuildModeOneCarrierInto(std::span<const SliceSvd> slices, Index i1,
                             const Matrix& a2, double s_inv, Tensor* t) {
  DT_TRACE_SPAN("dtucker.carrier_mode1");
  const Index i2 = a2.rows();
  const Index j2 = a2.cols();
  t->ResizeTo({i1, j2, NumSlices(slices)});
  const std::size_t slab = static_cast<std::size_t>(i1 * j2);
  for (Index l = 0; l < NumSlices(slices); ++l) {
    const SliceSvd& sl = slices[static_cast<std::size_t>(l)];
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
  }
}

void BuildModeTwoCarrierInto(std::span<const SliceSvd> slices, Index i2,
                             const Matrix& a1, double s_inv, Tensor* t) {
  DT_TRACE_SPAN("dtucker.carrier_mode2");
  const Index i1 = a1.rows();
  const Index j1 = a1.cols();
  t->ResizeTo({i2, j1, NumSlices(slices)});
  const std::size_t slab = static_cast<std::size_t>(i2 * j1);
  for (Index l = 0; l < NumSlices(slices); ++l) {
    const SliceSvd& sl = slices[static_cast<std::size_t>(l)];
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
  }
}

void BuildProjectedCoreInto(std::span<const SliceSvd> slices,
                            const Matrix& a1, const Matrix& a2, double s_inv,
                            Tensor* z) {
  DT_TRACE_SPAN("dtucker.projected_core");
  const Index i1 = a1.rows();
  const Index i2 = a2.rows();
  const Index j1 = a1.cols();
  const Index j2 = a2.cols();
  z->ResizeTo({j1, j2, NumSlices(slices)});
  const std::size_t slab = static_cast<std::size_t>(j1 * j2);
  for (Index l = 0; l < NumSlices(slices); ++l) {
    const SliceSvd& sl = slices[static_cast<std::size_t>(l)];
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
  }
}

void PackScaledFactors(std::span<const SliceSvd> slices, int m, double s_inv,
                       double* pack) {
  for (const SliceSvd& sl : slices) {
    const Matrix& f = m == 0 ? sl.u : sl.v;
    const Index dim = f.rows();
    for (Index j = 0; j < f.cols(); ++j) {
      const double sj = sl.s[static_cast<std::size_t>(j)] * s_inv;
      const double* src = f.col_data(j);
      for (Index i = 0; i < dim; ++i) pack[i] = sj * src[i];
      pack += dim;
    }
  }
}

void FillInitSketch(std::span<const SliceSvd> slices, Index first_slice,
                    int m, std::uint64_t seed, Index width, double* omega_t) {
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const Index l = first_slice + static_cast<Index>(i);
    const std::size_t count =
        static_cast<std::size_t>(width) *
        static_cast<std::size_t>(m == 0 ? slices[i].u.cols()
                                        : slices[i].v.cols());
    // Rng mixes its seed through SplitMix64; the odd multiplier keeps
    // (m, l) apart from the approximation phase's seed + l * 0x9E3779B9.
    Rng rng(seed ^ ((2 * static_cast<std::uint64_t>(l) +
                     static_cast<std::uint64_t>(m) + 1) *
                    0xD1B54A32D192ED03ULL));
    FillSketchGaussian(rng, omega_t, count);
    omega_t += count;
  }
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

Result<TuckerDecomposition> SolveReordered(
    const Tensor& x, const DTuckerOptions& options,
    const std::function<Result<TuckerDecomposition>(
        const Tensor&, const DTuckerOptions&)>& solve) {
  if (!options.auto_reorder) return solve(x, options);
  // The permutation placing the two largest modes first (stable for ties).
  const Index order = x.order();
  std::vector<Index> by_size(static_cast<std::size_t>(order));
  std::iota(by_size.begin(), by_size.end(), Index{0});
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&](Index a, Index b) { return x.dim(a) > x.dim(b); });
  std::vector<Index> perm = {by_size[0], by_size[1]};
  for (Index k = 0; k < order; ++k) {
    if (k != by_size[0] && k != by_size[1]) perm.push_back(k);
  }
  DTuckerOptions inner = options;
  inner.auto_reorder = false;
  bool identity = true;
  std::vector<Index> inverse(static_cast<std::size_t>(order));
  for (Index k = 0; k < order; ++k) {
    const Index from = perm[static_cast<std::size_t>(k)];
    identity = identity && from == k;
    inverse[static_cast<std::size_t>(from)] = k;
    inner.tucker.ranks[static_cast<std::size_t>(k)] =
        options.tucker.ranks[static_cast<std::size_t>(from)];
  }
  if (identity) return solve(x, inner);
  DT_ASSIGN_OR_RETURN(TuckerDecomposition dp, solve(x.Permuted(perm), inner));
  TuckerDecomposition dec;
  dec.factors.resize(static_cast<std::size_t>(order));
  for (Index k = 0; k < order; ++k) {
    dec.factors[static_cast<std::size_t>(perm[static_cast<std::size_t>(k)])] =
        std::move(dp.factors[static_cast<std::size_t>(k)]);
  }
  dec.core = dp.core.Permuted(inverse);
  return dec;
}

}  // namespace internal_dtucker

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

Result<TuckerDecomposition> DTuckerInitializeOnly(
    const SliceApproximation& approx, const DTuckerOptions& options) {
  DTuckerOptions init_only = options;
  init_only.tucker.max_iterations = 0;
  return DTuckerFromApproximation(approx, init_only);
}

}  // namespace dtucker
