#include "dtucker/dtucker.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>

#include "comm/sharding.h"
#include "common/memory.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/tensor_file.h"
#include "dtucker/out_of_core.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "rsvd/rsvd.h"
#include "tensor/tensor_ops.h"
#include "tucker/hosvd.h"
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
                            double* z) {
  DT_TRACE_SPAN("dtucker.projected_core");
  const Index i1 = a1.rows();
  const Index i2 = a2.rows();
  const Index j1 = a1.cols();
  const Index j2 = a2.cols();
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
            z + static_cast<std::size_t>(l) * slab, j1);
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

namespace {

using internal_dtucker::BuildModeOneCarrierInto;
using internal_dtucker::BuildModeTwoCarrierInto;
using internal_dtucker::BuildProjectedCoreInto;
using internal_dtucker::ContractTrailing;
using internal_dtucker::FillInitSketch;
using internal_dtucker::PackScaledFactors;
using internal_dtucker::SweepWorkspace;

// Bounded inner eigensolve for the sweeps' factor updates: the outer HOOI
// loop absorbs the slack of an inexact update. On the flat spectra HOOI
// produces near convergence, the default 1e-11 Ritz tolerance never trips
// and every solve would burn the full sweep budget for digits the next
// sweep discards.
constexpr SubspaceIterationOptions kInnerEig{/*max_sweeps=*/4,
                                             /*ritz_tolerance=*/1e-9};

Index TrailingVolume(const std::vector<Index>& shape) {
  Index l = 1;
  for (std::size_t n = 2; n < shape.size(); ++n) l *= shape[n];
  return l;
}

// Records the enclosing scope's wall time into a latency histogram on
// every exit path.
class StageTimer {
 public:
  explicit StageTimer(Histogram* histogram) : histogram_(histogram) {}
  ~StageTimer() {
    histogram_->Record(static_cast<std::uint64_t>(timer_.Seconds() * 1e9));
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Histogram* histogram_;
  Timer timer_;
};

// What every slice pass of a solve reads: the slices, read in place from
// the caller's approximation, and the chunk grid they run on.
struct SolveContext {
  std::span<const SliceSvd> slices;  // All L slices.
  std::vector<Index> shape;          // Tensor shape.
  ShardPlan plan;
  int num_threads = 1;  // RunChunks width requested for the slice passes.
  double s_inv = 1.0;

  // Slices [begin, end).
  std::span<const SliceSvd> SliceRange(Index begin, Index end) const {
    return slices.subspan(static_cast<std::size_t>(begin),
                          static_cast<std::size_t>(end - begin));
  }
};

// One RunChunks worker's buffers for the chunk it is on.
struct ChunkScratch {
  Tensor carrier;             // The chunk's carrier slabs.
  std::vector<double> pack;   // Packed scaled slice factors (PackChunk).
  std::vector<double> panel;  // A panel beside them (range finder).
  std::vector<double> runs;   // Per-run mode-3 contractions.
};

// Reusable buffers across sweeps, wrapping the slice-kernel workspace
// (whose z slot holds the full projected tensor).
struct SolveWorkspace {
  SweepWorkspace ws;
  Tensor w;                   // Reduced carrier contraction target.
  Matrix kout;                // Outer trailing weights (BuildOuterWeights).
  std::vector<double> scratch;  // Chunk partials (ReduceOverChunks).
  std::vector<ChunkScratch> workers;  // One per RunChunks worker.
};

// The canonical reduction (comm/sharding.h) over the solve's slices:
// chunk(begin, end, scratch, block) writes the partial of slices
// [begin, end) into `block` (n doubles), with its worker's scratch. The
// sum lands in out[0, n), the same bits for every thread count.
template <typename ChunkFn>
void ReduceSlices(const SolveContext& sc, std::size_t n, const ChunkFn& chunk,
                  double* out, SolveWorkspace* sw) {
  ReduceOverChunks(
      sc.plan, sc.num_threads, n,
      [&](Index c, int worker, double* block) {
        chunk(sc.plan.ChunkSliceBegin(c), sc.plan.ChunkSliceEnd(c),
              &sw->workers[static_cast<std::size_t>(worker)], block);
      },
      out, &sw->scratch);
}

// Packs F_l diag(s_l * s_inv) of the slices [begin, end) side by side
// into `pack` (PackScaledFactors), growing it as needed, and returns their
// column count c: `pack` then holds P, dim x c.
Index PackChunk(const SolveContext& sc, int m, Index begin, Index end,
                std::vector<double>* pack) {
  const Index dim = sc.shape[static_cast<std::size_t>(m)];
  Index c = 0;
  for (const SliceSvd& sl : sc.SliceRange(begin, end)) c += sl.u.cols();
  if (pack->size() < static_cast<std::size_t>(c * dim)) {
    pack->resize(static_cast<std::size_t>(c * dim));
  }
  PackScaledFactors(sc.SliceRange(begin, end), m, sc.s_inv, pack->data());
  return c;
}

// G = sum_l F_l diag(s_l * s_inv)^2 F_l^T over every slice (F = U for
// m == 0, V for m == 1), one SyrkRaw P P^T per chunk. Only
// SuggestRanksFromApproximation forms it, for the full mode-1/2 spectra;
// the solve's initialization takes the range finder below.
void StackedFactorGram(const SolveContext& sc, int m, SolveWorkspace* sw,
                       Matrix* g) {
  const Index dim = sc.shape[static_cast<std::size_t>(m)];
  const std::size_t gs = static_cast<std::size_t>(dim * dim);
  *g = Matrix::Uninitialized(dim, dim);
  ReduceSlices(
      sc, gs,
      [&](Index begin, Index end, ChunkScratch* cs, double* block) {
        const Index c = PackChunk(sc, m, begin, end, &cs->pack);
        if (c == 0) {
          std::fill(block, block + gs, 0.0);
          return;
        }
        SyrkRaw(Trans::kNo, dim, c, cs->pack.data(), dim, block, dim);
      },
      g->data(), sw);
}

// ||X~||^2 through the canonical reduction, on the calling thread alone:
// a chunk's partial is a handful of multiply-adds.
double ApproxSquaredNorm(const SolveContext& sc, SolveWorkspace* sw) {
  double total = 0.0;
  ReduceOverChunks(
      sc.plan, /*num_threads=*/1, 1,
      [&](Index c, int, double* block) {
        double acc = 0.0;
        for (const SliceSvd& sl : sc.SliceRange(sc.plan.ChunkSliceBegin(c),
                                                sc.plan.ChunkSliceEnd(c))) {
          for (double s : sl.s) {
            const double v = s * sc.s_inv;
            acc += v * v;
          }
        }
        *block = acc;
      },
      &total, &sw->scratch);
  return total;
}

// Largest slice singular value. The init and iteration phases square the
// singular values; when the largest is outside a wide safe band it is
// returned as the scale to divide out (the core scales back linearly),
// applied on the fly wherever a singular value is consumed.
double SliceScale(std::span<const SliceSvd> slices) {
  double smax = 0.0;
  for (const SliceSvd& sl : slices) {
    if (!sl.s.empty()) smax = std::max(smax, sl.s.front());
  }
  if (smax > 0.0 && (smax < 1e-100 || smax > 1e100)) return smax;
  return 1.0;
}

// The contraction of every trailing mode, X~ x_3 A3^T ... x_N AN^T, maps
// slice l = i_3 + I3 * o (o = the outer index (i_4, ..., i_N), mode-4
// fastest) to the weights A3[i_3, :] (x) kout[o, :], where
// kout[o, q] = prod_{n >= 4} A(n)[i_n(o), j_n(q)] over the column index q
// (j_4 fastest). Fills `kout` with one row per outer index; for order 3 it
// is the single weight 1. Returns P_out = prod_{n >= 4} J_n.
Index BuildOuterWeights(const std::vector<Matrix>& factors,
                        const std::vector<Index>& shape, Matrix* kout) {
  const Index order = static_cast<Index>(shape.size());
  Index p_out = 1;
  Index rows = 1;
  for (Index n = 3; n < order; ++n) {
    p_out *= factors[static_cast<std::size_t>(n)].cols();
    rows *= shape[static_cast<std::size_t>(n)];
  }
  if (kout->rows() != rows || kout->cols() != p_out) {
    *kout = Matrix::Uninitialized(rows, p_out);
  }
  std::vector<double> row(static_cast<std::size_t>(p_out));
  std::vector<double> next(static_cast<std::size_t>(p_out));
  for (Index r = 0; r < rows; ++r) {
    Index rem = r;
    row[0] = 1.0;
    Index sz = 1;
    for (Index n = 3; n < order; ++n) {
      const Index dim_n = shape[static_cast<std::size_t>(n)];
      const Index idx = rem % dim_n;
      rem /= dim_n;
      const Matrix& a = factors[static_cast<std::size_t>(n)];
      const Index jn = a.cols();
      for (Index j = 0; j < jn; ++j) {
        const double w = a.col_data(j)[idx];
        double* dst = next.data() + static_cast<std::size_t>(j * sz);
        for (Index q = 0; q < sz; ++q) {
          dst[q] = w * row[static_cast<std::size_t>(q)];
        }
      }
      sz *= jn;
      std::swap(row, next);
    }
    for (Index q = 0; q < p_out; ++q) {
      kout->col_data(q)[r] = row[static_cast<std::size_t>(q)];
    }
  }
  return p_out;
}

// W = sum over all slices of carrier_slab_l (x) A3[i_3(l), :] (x)
// kout[o(l), :], i.e. the carrier with every trailing mode contracted,
// shaped `out_shape` (slab_rows x J3 * P_out flat). `slabs(begin, end,
// scratch)` returns the carrier slabs of slices [begin, end), contiguous
// slab_rows-row columns: built for one chunk at a time, so a worker never
// holds more than a chunk of carrier. Per chunk: one GEMM against A3 for
// each run of slices sharing an outer index, then (for order >= 4) one
// GEMM combining the runs against their outer weights — a TTM chain on the
// chunk, never the full Kronecker product. Then the canonical reduction.
template <typename SlabsFn>
void ReduceCarrierContraction(const SolveContext& sc, Index slab_rows,
                              const std::vector<Matrix>& factors,
                              const Matrix& kout,
                              const std::vector<Index>& out_shape,
                              const SlabsFn& slabs, SolveWorkspace* sw,
                              Tensor* out) {
  DT_TRACE_SPAN("dtucker.carrier_reduce");
  out->ResizeTo(out_shape);
  const Index i3 = sc.shape[2];
  const Matrix& a3 = factors[2];
  const Index j3 = a3.cols();
  const Index p_out = kout.cols();
  const std::size_t stride = static_cast<std::size_t>(slab_rows * j3);
  ReduceSlices(
      sc, stride * static_cast<std::size_t>(p_out),
      [&](Index begin, Index end, ChunkScratch* cs, double* w) {
        const double* chunk = slabs(begin, end, cs);
        auto slab = [&](Index l) {
          return chunk + static_cast<std::size_t>(l - begin) *
                             static_cast<std::size_t>(slab_rows);
        };
        if (sc.shape.size() == 3) {
          GemmRaw(Trans::kNo, Trans::kNo, slab_rows, j3, end - begin, 1.0,
                  slab(begin), slab_rows, a3.data() + begin, i3, 0.0, w,
                  slab_rows);
          return;
        }
        const Index o_first = begin / i3;
        const Index runs = (end - 1) / i3 - o_first + 1;
        if (cs->runs.size() < stride * static_cast<std::size_t>(runs)) {
          cs->runs.resize(stride * static_cast<std::size_t>(runs));
        }
        for (Index r = 0; r < runs; ++r) {
          const Index lo = std::max(begin, (o_first + r) * i3);
          const Index hi = std::min(end, (o_first + r + 1) * i3);
          GemmRaw(Trans::kNo, Trans::kNo, slab_rows, j3, hi - lo, 1.0,
                  slab(lo), slab_rows, a3.data() + (lo - (o_first + r) * i3),
                  i3, 0.0,
                  cs->runs.data() + static_cast<std::size_t>(r) * stride,
                  slab_rows);
        }
        GemmRaw(Trans::kNo, Trans::kNo, static_cast<Index>(stride), p_out,
                runs, 1.0, cs->runs.data(), static_cast<Index>(stride),
                kout.data() + o_first, kout.rows(), 0.0, w,
                static_cast<Index>(stride));
      },
      out->data(), sw);
}

// Builds the full projected tensor Z (J1 x J2 x I3 x ... x IN) into
// sw->ws.z, each chunk writing its own frontal slabs in place. No
// floating-point combine, so Z does not depend on the thread count.
void BuildProjectedCore(const SolveContext& sc, const Matrix& a1,
                        const Matrix& a2, SolveWorkspace* sw) {
  DT_TRACE_SPAN("dtucker.build_z");
  std::vector<Index> zshape = sc.shape;
  zshape[0] = a1.cols();
  zshape[1] = a2.cols();
  sw->ws.z.ResizeTo(zshape);
  const std::size_t slab =
      static_cast<std::size_t>(a1.cols()) * static_cast<std::size_t>(a2.cols());
  RunChunks(sc.plan.num_chunks, sc.num_threads, [&](Index c, int) {
    const Index begin = sc.plan.ChunkSliceBegin(c);
    BuildProjectedCoreInto(sc.SliceRange(begin, sc.plan.ChunkSliceEnd(c)), a1,
                           a2, sc.s_inv,
                           sw->ws.z.data() + static_cast<std::size_t>(begin) *
                                                 slab);
  });
}

// Mode-m (0 or 1) initial factor: the top k = ranks[m] left singular
// vectors of the stacked scaled slice factors B = [F_l S_l] (F_l = U_l or
// V_l, S_l = diag(s_l * s_inv); PAPER.md §1 step 2), by a randomized range
// finder on G = B B^T of width s = min(I, k + p) with q power steps (p, q =
// the options' oversampling and power iterations):
//   1. Y = B Omega = sum_l F_l S_l Omega_l (FillInitSketch's test
//      matrices);
//   2. q times: Q = orth(Y), then Y = G Q = sum_l F_l S_l (S_l F_l^T Q);
//   3. Q = orth(Y), then Y = G Q once more. H = Q^T Y = Q^T G Q is the
//      Rayleigh-Ritz matrix; the Nystrom approximation
//      G ~ Y H^+ Y^T = Q2 (K K^T) Q2^T (Y = Q2 R2, H = V diag(h) V^T,
//      K = R2 V diag(h)^(-1/2)) also uses the range of this last product,
//      so A = Q2 * (top-k eigenvectors of K K^T) captures as much energy
//      as Rayleigh-Ritz after one more power step would.
// Every sum goes through the canonical reduction (I x s doubles). Each
// product packs the chunk's F_l S_l side by side (PackScaledFactors) and
// is one GEMM per chunk on the packed copy, still in cache; a worker holds
// one chunk's copy. The orthonormalizations (CholeskyQR2, Householder
// fallback) and the s x s eigensolves run once, on the calling thread. The
// result depends on the approximation and the options alone: the same bits
// for every thread count, and on every repeat.
void RangeFinderFactor(const SolveContext& sc, int m, Index k,
                       const DTuckerOptions& options, SolveWorkspace* sw,
                       Matrix* a) {
  DT_TRACE_SPAN("dtucker.init_range_finder");
  const Index dim = sc.shape[static_cast<std::size_t>(m)];
  const Index s = std::min(dim, k + options.oversampling);
  const std::size_t ys = static_cast<std::size_t>(dim * s);
  // One chunk's packed factors P (dim x c), and a c x s panel beside them.
  auto chunk = [&](Index begin, Index end, ChunkScratch* cs, Index* c) {
    *c = PackChunk(sc, m, begin, end, &cs->pack);
    if (cs->panel.size() < static_cast<std::size_t>(*c * s)) {
      cs->panel.resize(static_cast<std::size_t>(*c * s));
    }
    return cs->pack.data();
  };
  Matrix y = Matrix::Uninitialized(dim, s);
  Matrix q = Matrix::Uninitialized(dim, s);
  ReduceSlices(
      sc, ys,
      [&](Index begin, Index end, ChunkScratch* cs, double* block) {
        Index c = 0;
        const double* p = chunk(begin, end, cs, &c);
        if (c == 0) {
          std::fill(block, block + ys, 0.0);
          return;
        }
        // The panel holds Omega^T (s x c).
        FillInitSketch(sc.SliceRange(begin, end), begin, m,
                       options.tucker.seed, s, cs->panel.data());
        GemmRaw(Trans::kNo, Trans::kYes, dim, s, c, 1.0, p, dim,
                cs->panel.data(), s, 0.0, block, dim);
      },
      y.data(), sw);
  // Y = G orth(Y): the q power steps, then step 3's product, whose Q
  // stays in q.
  for (int it = 0; it <= options.power_iterations; ++it) {
    CholeskyQr2Raw(y.data(), dim, s, q.data(), nullptr);
    ReduceSlices(
        sc, ys,
        [&](Index begin, Index end, ChunkScratch* cs, double* block) {
          Index c = 0;
          const double* p = chunk(begin, end, cs, &c);
          if (c == 0) {
            std::fill(block, block + ys, 0.0);
            return;
          }
          GemmRaw(Trans::kYes, Trans::kNo, c, s, dim, 1.0, p, dim, q.data(),
                  dim, 0.0, cs->panel.data(), c);
          GemmRaw(Trans::kNo, Trans::kNo, dim, s, c, 1.0, p, dim,
                  cs->panel.data(), c, 0.0, block, dim);
        },
        y.data(), sw);
  }
  // H = Q^T Y, symmetrized against roundoff.
  Matrix h = Matrix::Uninitialized(s, s);
  GemmRaw(Trans::kYes, Trans::kNo, s, s, dim, 1.0, q.data(), dim, y.data(),
          dim, 0.0, h.data(), s);
  for (Index j = 0; j < s; ++j) {
    for (Index i = 0; i < j; ++i) {
      const double v = 0.5 * (h(i, j) + h(j, i));
      h(i, j) = v;
      h(j, i) = v;
    }
  }
  const EigenSymResult he = EigenSymFast(h);
  Matrix r = Matrix::Uninitialized(s, s);
  CholeskyQr2Raw(y.data(), dim, s, q.data(), r.data());  // Y = Q2 R2.
  // K = R2 V diag(h)^(-1/2) over the eigenvalues above 1e-13 h_max: the
  // pseudo-inverse drops the directions G annihilates, whose columns would
  // be rounding noise. A zero G keeps none, and A is Q2's leading columns.
  Index keep = 0;
  while (keep < s && he.values[static_cast<std::size_t>(keep)] >
                         1e-13 * he.values[0]) {
    ++keep;
  }
  Matrix kk(s, s);
  if (keep > 0) {
    Matrix vs = Matrix::Uninitialized(s, keep);
    for (Index j = 0; j < keep; ++j) {
      const double w = 1.0 / std::sqrt(he.values[static_cast<std::size_t>(j)]);
      for (Index i = 0; i < s; ++i) vs(i, j) = w * he.vectors(i, j);
    }
    const Matrix km = Multiply(r, vs);
    SyrkRaw(Trans::kNo, s, keep, km.data(), s, kk.data(), s);
  }
  const EigenSymResult nystrom = EigenSymFast(kk);
  *a = Matrix::Uninitialized(dim, k);
  GemmRaw(Trans::kNo, Trans::kNo, dim, k, s, 1.0, q.data(), dim,
          nystrom.vectors.data(), s, 0.0, a->data(), dim);
}

struct InitResult {
  std::vector<Matrix> factors;
  Tensor core;
};

// Initialization phase: the range finder for A1/A2, then Z for the
// trailing factors and the first core. It always runs whole (an
// interruption degrades the run to "initialization only" rather than
// aborting it); the caller checks the run context afterwards.
void Initialize(const SolveContext& sc, const DTuckerOptions& options,
                SolveWorkspace* sw, InitResult* init) {
  const std::vector<Index>& ranks = options.tucker.ranks;
  const Index order = static_cast<Index>(sc.shape.size());
  init->factors.resize(static_cast<std::size_t>(order));
  for (int m = 0; m < 2; ++m) {
    RangeFinderFactor(sc, m, ranks[static_cast<std::size_t>(m)], options, sw,
                      &init->factors[static_cast<std::size_t>(m)]);
  }
  if (static_cast<Index>(sw->ws.subspace.size()) < order) {
    sw->ws.subspace.resize(static_cast<std::size_t>(order));
  }
  BuildProjectedCore(sc, init->factors[0], init->factors[1], sw);
  for (Index n = 2; n < order; ++n) {
    init->factors[static_cast<std::size_t>(n)] = LeadingModeVectorsViaGram(
        sw->ws.z, n, ranks[static_cast<std::size_t>(n)],
        &sw->ws.subspace[static_cast<std::size_t>(n)]);
  }
  init->core = *ContractTrailing(sw->ws.z, init->factors, /*skip_mode=*/-1,
                                 &sw->ws);
}

// Where a sweep observed an interruption.
enum class SweepStop { kNone, kEntry, kMid };

// One HOOI sweep: the mode-1/2 carrier contractions reduced over the chunk
// grid, then Z, and the trailing factors and the core computed from it on
// the calling thread. The run context is checked at the sweep's entry and
// after every factor update; `stop`/`where` report what it said and where.
void Sweep(const SolveContext& sc, const std::vector<Index>& ranks,
           const RunContext* ctx, std::vector<Matrix>* factors, Tensor* core,
           SolveWorkspace* sw, StatusCode* stop, SweepStop* where) {
  DT_TRACE_SPAN("dtucker.sweep");
  *where = SweepStop::kNone;
  const Index order = static_cast<Index>(sc.shape.size());
  auto stopped = [&](SweepStop boundary) {
    const StatusCode code = RunContext::CheckOrOk(ctx);
    if (code == StatusCode::kOk) return false;
    *stop = code;
    *where = boundary;
    return true;
  };
  if (stopped(SweepStop::kEntry)) return;

  // The trailing factors are frozen during the mode-1/2 updates, so one
  // outer-weight build serves both.
  BuildOuterWeights(*factors, sc.shape, &sw->kout);
  const Index i1 = sc.shape[0];
  const Index i2 = sc.shape[1];
  // Shape of a carrier with every trailing mode contracted.
  auto contracted = [&](Index rows, Index j) {
    std::vector<Index> shape = {rows, j};
    for (Index n = 2; n < order; ++n) {
      shape.push_back((*factors)[static_cast<std::size_t>(n)].cols());
    }
    return shape;
  };
  {
    DT_TRACE_SPAN("dtucker.update_mode1");
    static Histogram& stage_hist = MetricHistogram("dtucker.stage_ns.mode1");
    StageTimer stage_timer(&stage_hist);
    const Index j2 = (*factors)[1].cols();
    ReduceCarrierContraction(
        sc, i1 * j2, *factors, sw->kout, contracted(i1, j2),
        [&](Index begin, Index end, ChunkScratch* cs) {
          BuildModeOneCarrierInto(sc.SliceRange(begin, end), i1, (*factors)[1],
                                  sc.s_inv, &cs->carrier);
          return cs->carrier.data();
        },
        sw, &sw->w);
    (*factors)[0] = LeadingModeVectorsViaGram(
        sw->w, 0, ranks[0], &sw->ws.subspace[0], kInnerEig);
  }
  if (stopped(SweepStop::kMid)) return;
  {
    // Mode-2 update, on the fresh A1. The carrier T2 is laid out
    // mode-1-first so the update is a mode-0 problem on W.
    DT_TRACE_SPAN("dtucker.update_mode2");
    static Histogram& stage_hist = MetricHistogram("dtucker.stage_ns.mode2");
    StageTimer stage_timer(&stage_hist);
    const Index j1 = (*factors)[0].cols();
    ReduceCarrierContraction(
        sc, i2 * j1, *factors, sw->kout, contracted(i2, j1),
        [&](Index begin, Index end, ChunkScratch* cs) {
          BuildModeTwoCarrierInto(sc.SliceRange(begin, end), i2, (*factors)[0],
                                  sc.s_inv, &cs->carrier);
          return cs->carrier.data();
        },
        sw, &sw->w);
    (*factors)[1] = LeadingModeVectorsViaGram(
        sw->w, 0, ranks[1], &sw->ws.subspace[1], kInnerEig);
  }
  if (stopped(SweepStop::kMid)) return;
  {
    DT_TRACE_SPAN("dtucker.update_trailing");
    static Histogram& stage_hist =
        MetricHistogram("dtucker.stage_ns.trailing");
    StageTimer stage_timer(&stage_hist);
    // Every trailing factor from Z. LeadingModeVectorsViaGram picks the
    // Gram side from the contracted tensor's shape.
    BuildProjectedCore(sc, (*factors)[0], (*factors)[1], sw);
    for (Index n = 2; n < order; ++n) {
      (*factors)[static_cast<std::size_t>(n)] = LeadingModeVectorsViaGram(
          *ContractTrailing(sw->ws.z, *factors, /*skip_mode=*/n, &sw->ws), n,
          ranks[static_cast<std::size_t>(n)],
          &sw->ws.subspace[static_cast<std::size_t>(n)], kInnerEig);
    }
  }
  if (stopped(SweepStop::kMid)) return;
  {
    DT_TRACE_SPAN("dtucker.core_refresh");
    static Histogram& stage_hist =
        MetricHistogram("dtucker.stage_ns.core_refresh");
    StageTimer stage_timer(&stage_hist);
    // Z against the *updated* trailing factors, as in the initialization.
    *core = *ContractTrailing(sw->ws.z, *factors, /*skip_mode=*/-1, &sw->ws);
  }
}

// Initialization + iteration on `slices` (every slice of a tensor shaped
// `shape`), read in place.
TuckerDecomposition SolveSlices(std::span<const SliceSvd> slices,
                                const std::vector<Index>& shape,
                                const DTuckerOptions& options,
                                TuckerStats* stats) {
  SolveContext sc;
  sc.slices = slices;
  sc.shape = shape;
  sc.plan = MakeShardPlan(static_cast<Index>(slices.size())).ValueOrDie();
  sc.num_threads = options.num_threads;
  const double scale = SliceScale(slices);
  sc.s_inv = 1.0 / scale;  // Exactly 1.0 in the common case.
  SolveWorkspace sw;
  sw.workers.resize(static_cast<std::size_t>(
      std::clamp<Index>(options.num_threads, 1, sc.plan.num_chunks)));
  const double approx_norm2 = ApproxSquaredNorm(sc, &sw);

  const RunContext* ctx = options.tucker.run_context;
  const std::vector<Index>& ranks = options.tucker.ranks;

  Timer init_timer;
  InitResult state;
  {
    DT_TRACE_SPAN("dtucker.initialization");
    Initialize(sc, options, &sw, &state);
  }
  // One check for the whole init phase, which always runs whole: a cancel
  // during init degrades the run to initialization-only.
  StatusCode stop = RunContext::CheckOrOk(ctx);
  GlobalPhaseTimer().Add("dtucker.initialization", init_timer.Seconds());
  if (stats != nullptr) stats->init_seconds = init_timer.Seconds();
  const char* stop_phase = stop != StatusCode::kOk ? "initialization" : nullptr;

  Timer iterate_timer;
  int it = 0;
  {
    DT_TRACE_SPAN("dtucker.iteration");
    double prev_error =
        OrthogonalTuckerRelativeError(approx_norm2, state.core.SquaredNorm());
    if (stats != nullptr) stats->error_history.push_back(prev_error);
    double prev_fit = 1.0 - std::sqrt(std::max(prev_error, 0.0));

    // A mid-sweep interruption rolls back to the last completed sweep.
    std::vector<Matrix> factors_snapshot;
    Tensor core_snapshot;

    for (; it < options.tucker.max_iterations; ++it) {
      if (stop != StatusCode::kOk) {
        if (stop_phase == nullptr) stop_phase = "between iteration sweeps";
        break;
      }
      Timer sweep_timer;
      const std::uint64_t eig_before = SubspaceSweepsOnThisThread();
      factors_snapshot = state.factors;
      core_snapshot = state.core;
      SweepStop where = SweepStop::kNone;
      Sweep(sc, ranks, ctx, &state.factors, &state.core, &sw, &stop, &where);
      if (where != SweepStop::kNone) {
        if (where == SweepStop::kMid) {
          state.factors = std::move(factors_snapshot);
          state.core = std::move(core_snapshot);
          stop_phase = "mid-sweep (rolled back to the previous sweep)";
        } else {
          stop_phase = "between iteration sweeps";
        }
        break;
      }
      const double error = OrthogonalTuckerRelativeError(
          approx_norm2, state.core.SquaredNorm());
      if (stats != nullptr) stats->error_history.push_back(error);
      if (stats != nullptr || options.sweep_callback) {
        SweepTelemetry t;
        t.sweep = it + 1;
        t.relative_error = error;
        t.fit = 1.0 - std::sqrt(std::max(error, 0.0));
        t.delta_fit = t.fit - prev_fit;
        t.seconds = sweep_timer.Seconds();
        t.subspace_iterations = SubspaceSweepsOnThisThread() - eig_before;
        prev_fit = t.fit;
        if (stats != nullptr) stats->sweep_history.push_back(t);
        if (options.sweep_callback) options.sweep_callback(t);
      }
      static Histogram& sweep_hist = MetricHistogram("dtucker.sweep_ns");
      sweep_hist.Record(
          static_cast<std::uint64_t>(sweep_timer.Seconds() * 1e9));
      const double delta = std::fabs(prev_error - error);
      prev_error = error;
      if (delta < options.tucker.tolerance) {
        ++it;
        break;
      }
    }
  }
  GlobalPhaseTimer().Add("dtucker.iteration", iterate_timer.Seconds());
  MetricGauge("process.peak_rss_bytes")
      .SetMax(static_cast<double>(PeakRssBytes()));
  if (stats != nullptr) {
    stats->iterations = it;
    stats->iterate_seconds = iterate_timer.Seconds();
    // The compressed slices the solve held.
    stats->working_bytes = 0;
    for (const SliceSvd& sl : slices) {
      stats->working_bytes +=
          sl.u.ByteSize() + sl.v.ByteSize() + sl.s.size() * sizeof(double);
    }
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

// Nothing has been computed yet when an entry point starts, so an
// interruption observed there is a plain error rather than a degraded
// result.
Status CheckNotInterrupted(const DTuckerOptions& options) {
  const RunContext* ctx = options.tucker.run_context;
  return ctx != nullptr ? ctx->CheckStatus("d-tucker solve") : Status::OK();
}

// The approximation phase of the tensor and file entry points: `compress`
// fills every slice of a tensor shaped `shape` with the given options (one
// chunk of the grid per task), then SolveSlices runs on the result.
Result<TuckerDecomposition> ApproximateAndSolve(
    const std::vector<Index>& shape, const DTuckerOptions& options,
    TuckerStats* stats,
    const std::function<Status(const SliceApproximationOptions&,
                               std::vector<SliceSvd>*)>& compress) {
  DT_RETURN_NOT_OK(CheckNotInterrupted(options));
  SliceApproximationOptions ao;
  ao.slice_rank = std::min(options.EffectiveSliceRank(),
                           std::min(shape[0], shape[1]));
  ao.oversampling = options.oversampling;
  ao.power_iterations = options.power_iterations;
  ao.seed = options.tucker.seed;
  ao.num_threads = options.num_threads;
  ao.run_context = options.tucker.run_context;
  Timer approx_timer;
  std::vector<SliceSvd> slices;
  {
    DT_TRACE_SPAN("dtucker.approximation");
    DT_RETURN_NOT_OK(compress(ao, &slices));
  }
  GlobalPhaseTimer().Add("dtucker.approximation", approx_timer.Seconds());
  if (stats != nullptr) stats->preprocess_seconds = approx_timer.Seconds();
  return SolveSlices(slices, shape, options, stats);
}

}  // namespace

Result<TuckerDecomposition> DTucker(const Tensor& x,
                                    const DTuckerOptions& options,
                                    TuckerStats* stats) {
  DT_RETURN_NOT_OK(options.Validate(x.shape()));
  return internal_dtucker::SolveReordered(
      x, options, [stats](const Tensor& xs, const DTuckerOptions& inner) {
        return ApproximateAndSolve(
            xs.shape(), inner, stats,
            [&xs](const SliceApproximationOptions& ao,
                  std::vector<SliceSvd>* slices) {
              DT_ASSIGN_OR_RETURN(SliceApproximation approx,
                                  ApproximateSlices(xs, ao));
              *slices = std::move(approx.slices);
              return Status::OK();
            });
      });
}

Result<TuckerDecomposition> DTuckerFromFile(const std::string& path,
                                            const DTuckerOptions& options,
                                            TuckerStats* stats) {
  std::vector<Index> shape;
  {
    DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
    shape = reader.shape();
  }
  DT_RETURN_NOT_OK(options.Validate(shape));
  const Index num_slices = TrailingVolume(shape);
  return ApproximateAndSolve(
      shape, options, stats,
      [&](const SliceApproximationOptions& ao, std::vector<SliceSvd>* slices) {
        // One reader per chunk, each streaming only its own slices.
        slices->resize(static_cast<std::size_t>(num_slices));
        return internal_dtucker::CompressChunks(
            num_slices, ao.num_threads,
            [&](Index first, Index count, SliceSvd* out) {
              DT_ASSIGN_OR_RETURN(
                  std::vector<SliceSvd> part,
                  ApproximateSliceRangeFromFile(path, first, count, ao));
              std::move(part.begin(), part.end(), out);
              return Status::OK();
            },
            slices->data());
      });
}

Result<TuckerDecomposition> DTuckerFromApproximation(
    const SliceApproximation& approx, const DTuckerOptions& options,
    TuckerStats* stats) {
  DT_RETURN_NOT_OK(approx.Validate());
  DT_RETURN_NOT_OK(options.Validate(approx.shape));
  DT_RETURN_NOT_OK(CheckNotInterrupted(options));
  return SolveSlices(approx.slices, approx.shape, options, stats);
}

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

  // Modes 1 and 2: exact (for the approximated tensor) spectra from the
  // accumulated slice-factor Grams, since X~_(1) X~_(1)^T = sum_l U S^2 U^T,
  // reduced on the calling thread through the canonical chunk tree.
  SolveContext sc;
  sc.slices = approx.slices;
  sc.shape = approx.shape;
  DT_ASSIGN_OR_RETURN(sc.plan, MakeShardPlan(approx.NumSlices()));
  SolveWorkspace sw;
  sw.workers.resize(1);
  std::vector<Matrix> leading_vecs(2);
  for (int m = 0; m < 2; ++m) {
    const Index dim = approx.Dim(m);
    Matrix gram;
    StackedFactorGram(sc, m, &sw, &gram);
    EigenSymResult eig = EigenSymFast(gram);
    leading_vecs[static_cast<std::size_t>(m)] = eig.vectors.LeftCols(
        std::min(dim, std::max<Index>(approx.slice_rank, 1)));
    PickRankFromSpectrum(std::move(eig.values), energy_threshold, max_rank,
                         m, &out);
  }

  // Trailing modes: spectra of the projected tensor Z built at the probe
  // rank — energy within the leading-subspace projection (a lower bound
  // that is tight when the probe rank covers the signal). The mode Grams
  // come straight from Z's flat buffer (no unfolding copies).
  std::vector<Index> zshape = approx.shape;
  zshape[0] = leading_vecs[0].cols();
  zshape[1] = leading_vecs[1].cols();
  Tensor z;
  z.ResizeTo(zshape);
  BuildProjectedCoreInto(approx.slices, leading_vecs[0], leading_vecs[1],
                         /*s_inv=*/1.0, z.data());
  for (Index n = 2; n < order; ++n) {
    PickRankFromSpectrum(EigenSymFast(ModeGram(z, n)).values,
                         energy_threshold, max_rank, n, &out);
  }
  return out;
}

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
