#include "dtucker/sharded_dtucker.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/memory.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/tensor_file.h"
#include "dtucker/out_of_core.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "tensor/tensor_ops.h"
#include "tucker/hosvd.h"

namespace dtucker {

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
// every exit path (the sweep stages return early through
// DT_RETURN_NOT_OK).
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

// Everything a collective phase needs about this rank's shard.
struct ShardContext {
  // This rank's slices, read in place from the caller's approximation:
  // slices[0] is global slice plan.slice_begin.
  std::span<const SliceSvd> slices;
  std::vector<Index> full_shape;  // Global tensor shape.
  ShardPlan plan;
  Communicator* comm = nullptr;
  double s_inv = 1.0;

  const SliceSvd& Slice(Index l) const {
    return slices[static_cast<std::size_t>(l - plan.slice_begin)];
  }
  // Global slices [begin, end), all owned by this rank.
  std::span<const SliceSvd> SliceRange(Index begin, Index end) const {
    return slices.subspan(static_cast<std::size_t>(begin - plan.slice_begin),
                          static_cast<std::size_t>(end - begin));
  }
};

// Reusable per-rank buffers across sweeps, wrapping the slice-kernel
// workspace (whose z slot holds the *gathered* full projected tensor).
struct ShardWorkspace {
  SweepWorkspace ws;
  Tensor z_local;                // This rank's Z slab (J1 x J2 x nlocal).
  Tensor w;                      // Reduced carrier contraction target.
  Matrix kout;                   // Outer trailing weights (BuildOuterWeights).
  std::vector<double> runs;      // Per-run mode-3 contractions of a chunk.
  std::vector<double> scratch;   // Chunk partials in flight (reductions).
  std::vector<std::size_t> z_counts;  // Owned-slice counts per rank.
};

// Maps an agreed status code back to a Status.
Status StatusFromCode(StatusCode code, const char* what) {
  if (code == StatusCode::kOk) return Status::OK();
  return Status(code, what);
}

// The cross-rank interruption agreement: every rank contributes its local
// status code, the max (an arbitrary but deterministic total order; all
// interruption codes are non-zero) is reduced and broadcast, and every
// rank leaves with the identical verdict — so control flow stays in
// lockstep no matter which rank tripped. Collective: all ranks must call
// at the same point.
Result<StatusCode> AgreeOnStop(Communicator* comm, StatusCode local) {
  double code = static_cast<double>(local);
  DT_RETURN_NOT_OK(comm->AllReduceMax(&code, 1));
  return static_cast<StatusCode>(static_cast<int>(code));
}

// The canonical reduction (comm/sharding.h) of one partial per owned
// chunk: chunk(begin, end, block) writes the partial of the chunk's global
// slices [begin, end) into `block` (n doubles). The sum over every rank's
// chunks lands in out[0, n), identical on every rank for every rank count.
template <typename ChunkFn>
Status ReduceOverChunks(const ShardContext& sc, std::size_t n,
                        const ChunkFn& chunk, double* out,
                        std::vector<double>* scratch) {
  return ChunkTreeAllReduce(
      sc.comm, sc.plan, n,
      [&](Index c, double* block) {
        chunk(sc.plan.ChunkSliceBegin(c), sc.plan.ChunkSliceEnd(c), block);
      },
      out, scratch);
}

// Packs F_l diag(s_l * s_inv) of the slices [begin, end) side by side
// into `pack` (PackScaledFactors), growing it as needed, and returns their
// column count c: `pack` then holds P, dim x c.
Index PackChunk(const ShardContext& sc, int m, Index begin, Index end,
                std::vector<double>* pack) {
  const Index dim = sc.full_shape[static_cast<std::size_t>(m)];
  Index c = 0;
  for (const SliceSvd& sl : sc.SliceRange(begin, end)) c += sl.u.cols();
  if (pack->size() < static_cast<std::size_t>(c * dim)) {
    pack->resize(static_cast<std::size_t>(c * dim));
  }
  PackScaledFactors(sc.SliceRange(begin, end), m, sc.s_inv, pack->data());
  return c;
}

// G = sum_l F_l diag(s_l * s_inv)^2 F_l^T over *all* ranks' slices
// (F = U for m == 0, V for m == 1), one GEMM P P^T per chunk. Only
// SuggestRanksFromApproximation forms it, for the full mode-1/2 spectra;
// the solve's initialization takes the range finder below. The I x I
// chunk partials are freed on return.
Status ShardedStackedFactorGram(const ShardContext& sc, int m, Matrix* g) {
  const Index dim = sc.full_shape[static_cast<std::size_t>(m)];
  const std::size_t gs = static_cast<std::size_t>(dim * dim);
  *g = Matrix::Uninitialized(dim, dim);
  std::vector<double> pack;
  std::vector<double> scratch;
  return ReduceOverChunks(
      sc, gs,
      [&](Index begin, Index end, double* block) {
        const Index c = PackChunk(sc, m, begin, end, &pack);
        if (c == 0) {
          std::fill(block, block + gs, 0.0);
          return;
        }
        GemmRaw(Trans::kNo, Trans::kYes, dim, dim, c, 1.0, pack.data(), dim,
                pack.data(), dim, 0.0, block, dim);
      },
      g->data(), &scratch);
}

// ||X~||^2 over all ranks, through the same canonical reduction.
Result<double> ShardedApproxSquaredNorm(const ShardContext& sc,
                                        ShardWorkspace* sw) {
  double total = 0.0;
  DT_RETURN_NOT_OK(ReduceOverChunks(
      sc, 1,
      [&](Index begin, Index end, double* block) {
        double acc = 0.0;
        for (Index l = begin; l < end; ++l) {
          for (double s : sc.Slice(l).s) {
            const double v = s * sc.s_inv;
            acc += v * v;
          }
        }
        *block = acc;
      },
      &total, &sw->scratch));
  return total;
}

// Global largest slice singular value (max is exactly associative, so a
// plain reduce is bitwise-deterministic). The init and iteration phases
// square the singular values; when the largest is outside a wide safe band
// it is returned as the scale to divide out (the core scales back
// linearly), applied on the fly wherever a singular value is consumed.
Result<double> ShardedScale(const ShardContext& sc) {
  double smax = 0.0;
  for (const SliceSvd& sl : sc.slices) {
    if (!sl.s.empty()) smax = std::max(smax, sl.s.front());
  }
  DT_RETURN_NOT_OK(sc.comm->AllReduceMax(&smax, 1));
  if (smax > 0.0 && (smax < 1e-100 || smax > 1e100)) return smax;
  return 1.0;
}

// The contraction of every trailing mode, X~ x_3 A3^T ... x_N AN^T, maps
// slice l = i_3 + I3 * o (o = the outer index (i_4, ..., i_N), mode-4
// fastest) to the weights A3[i_3, :] (x) kout[o, :], where
// kout[o, q] = prod_{n >= 4} A(n)[i_n(o), j_n(q)] over the column index q
// (j_4 fastest). Fills `kout` for the outer indices this rank's slices
// touch, first row = outer index slice_begin / I3; for order 3 it is the
// single weight 1. Returns P_out = prod_{n >= 4} J_n.
Index BuildOuterWeights(const std::vector<Matrix>& factors,
                        const std::vector<Index>& full_shape,
                        const ShardPlan& plan, Matrix* kout) {
  const Index order = static_cast<Index>(full_shape.size());
  const Index i3 = full_shape[2];
  Index p_out = 1;
  for (Index n = 3; n < order; ++n) {
    p_out *= factors[static_cast<std::size_t>(n)].cols();
  }
  const Index o_begin = plan.slice_begin / i3;
  const Index rows =
      plan.Degenerate() ? 0 : (plan.slice_end - 1) / i3 - o_begin + 1;
  if (kout->rows() != rows || kout->cols() != p_out) {
    *kout = Matrix::Uninitialized(rows, p_out);
  }
  std::vector<double> row(static_cast<std::size_t>(p_out));
  std::vector<double> next(static_cast<std::size_t>(p_out));
  for (Index r = 0; r < rows; ++r) {
    Index rem = o_begin + r;
    row[0] = 1.0;
    Index sz = 1;
    for (Index n = 3; n < order; ++n) {
      const Index dim_n = full_shape[static_cast<std::size_t>(n)];
      const Index idx = rem % dim_n;
      rem /= dim_n;
      const Matrix& a = factors[static_cast<std::size_t>(n)];
      const Index jn = a.cols();
      for (Index j = 0; j < jn; ++j) {
        const double w = a.col_data(j)[idx];
        double* dst = next.data() + static_cast<std::size_t>(j * sz);
        for (Index q = 0; q < sz; ++q) dst[q] = w * row[static_cast<std::size_t>(q)];
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

// W = sum over ALL slices of carrier_slab_l (x) A3[i_3(l), :] (x)
// kout[o(l), :], i.e. the carrier with every trailing mode contracted,
// shaped `out_shape` (slab_rows x J3 * P_out flat). `slabs(begin, end)`
// returns the carrier slabs of global slices [begin, end), contiguous
// slab_rows-row columns: built for one chunk at a time, so a rank never
// holds more than a chunk of carrier. Per owned chunk: one GEMM against A3
// for each run of slices sharing an outer index, then (for order >= 4) one
// GEMM combining the runs against their outer weights — a TTM chain on the
// chunk, never the full Kronecker product. Then the canonical reduction.
template <typename SlabsFn>
Status ReduceCarrierContraction(const ShardContext& sc, Index slab_rows,
                                const std::vector<Matrix>& factors,
                                const Matrix& kout,
                                const std::vector<Index>& out_shape,
                                const SlabsFn& slabs, ShardWorkspace* sw,
                                Tensor* out) {
  DT_TRACE_SPAN("dtucker.carrier_reduce");
  out->ResizeTo(out_shape);
  const Index i3 = sc.full_shape[2];
  const Matrix& a3 = factors[2];
  const Index j3 = a3.cols();
  const Index p_out = kout.cols();
  const Index o_begin = sc.plan.slice_begin / i3;
  const std::size_t stride = static_cast<std::size_t>(slab_rows * j3);
  return ReduceOverChunks(
      sc, stride * static_cast<std::size_t>(p_out),
      [&](Index begin, Index end, double* w) {
        const double* chunk = slabs(begin, end);
        auto slab = [&](Index l) {
          return chunk + static_cast<std::size_t>(l - begin) *
                             static_cast<std::size_t>(slab_rows);
        };
        if (sc.full_shape.size() == 3) {
          GemmRaw(Trans::kNo, Trans::kNo, slab_rows, j3, end - begin, 1.0,
                  slab(begin), slab_rows, a3.data() + begin, i3, 0.0, w,
                  slab_rows);
          return;
        }
        const Index o_first = begin / i3;
        const Index runs = (end - 1) / i3 - o_first + 1;
        if (sw->runs.size() < stride * static_cast<std::size_t>(runs)) {
          sw->runs.resize(stride * static_cast<std::size_t>(runs));
        }
        for (Index r = 0; r < runs; ++r) {
          const Index lo = std::max(begin, (o_first + r) * i3);
          const Index hi = std::min(end, (o_first + r + 1) * i3);
          GemmRaw(Trans::kNo, Trans::kNo, slab_rows, j3, hi - lo, 1.0,
                  slab(lo), slab_rows, a3.data() + (lo - (o_first + r) * i3),
                  i3, 0.0,
                  sw->runs.data() + static_cast<std::size_t>(r) * stride,
                  slab_rows);
        }
        GemmRaw(Trans::kNo, Trans::kNo, static_cast<Index>(stride), p_out,
                runs, 1.0, sw->runs.data(), static_cast<Index>(stride),
                kout.data() + (o_first - o_begin), kout.rows(), 0.0, w,
                static_cast<Index>(stride));
      },
      out->data(), &sw->scratch);
}

// Every rank's owned-slice count, reconstructed locally and cached. The
// plan is a pure function of (L, R, r), so no counts exchange is needed;
// MakeShardPlan cannot fail here because the group size was validated when
// this rank's own plan was built.
const std::vector<std::size_t>& RankSliceCounts(const ShardContext& sc,
                                                ShardWorkspace* sw) {
  if (sw->z_counts.size() != static_cast<std::size_t>(sc.comm->size())) {
    sw->z_counts.resize(static_cast<std::size_t>(sc.comm->size()));
    for (int r = 0; r < sc.comm->size(); ++r) {
      ShardPlan peer =
          MakeShardPlan(sc.plan.num_slices, sc.plan.num_ranks, r).ValueOrDie();
      sw->z_counts[static_cast<std::size_t>(r)] =
          static_cast<std::size_t>(peer.NumLocalSlices());
    }
  }
  return sw->z_counts;
}

// Builds this rank's Z slab and assembles the full projected tensor
// (J1 x J2 x I3 x ... x IN) on every rank. Pure concatenation in global
// slice order — no floating-point combine — so the gathered Z is bitwise
// identical to a single-rank build regardless of the rank count.
Status GatherProjectedCore(const ShardContext& sc, const Matrix& a1,
                           const Matrix& a2, ShardWorkspace* sw) {
  DT_TRACE_SPAN("dtucker.gather_z");
  BuildProjectedCoreInto(sc.slices, a1, a2, sc.s_inv, &sw->z_local);
  std::vector<Index> zshape = sc.full_shape;
  zshape[0] = a1.cols();
  zshape[1] = a2.cols();
  sw->ws.z.ResizeTo(zshape);
  const std::size_t slab =
      static_cast<std::size_t>(a1.cols()) * static_cast<std::size_t>(a2.cols());
  const std::vector<std::size_t>& slice_counts = RankSliceCounts(sc, sw);
  std::vector<std::size_t> counts(slice_counts.size());
  for (std::size_t r = 0; r < counts.size(); ++r) {
    counts[r] = slice_counts[r] * slab;
  }
  return sc.comm->AllGatherV(sw->z_local.data(), counts, sw->ws.z.data());
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
// is one GEMM per chunk on the packed copy, still in cache; a rank holds
// one chunk's copy, not one of its whole slice range. Only the
// orthonormalizations (CholeskyQR2, Householder fallback) and the s x s
// eigensolves are replicated. The result depends on the approximation and
// the options alone: the same bits for every rank and thread count, and on
// every repeat.
Status RangeFinderFactor(const ShardContext& sc, int m, Index k,
                         const DTuckerOptions& options, ShardWorkspace* sw,
                         Matrix* a) {
  DT_TRACE_SPAN("dtucker.init_range_finder");
  const Index dim = sc.full_shape[static_cast<std::size_t>(m)];
  const Index s = std::min(dim, k + options.oversampling);
  const std::size_t ys = static_cast<std::size_t>(dim * s);
  // One chunk's packed factors P (dim x c), and a c x s panel beside them.
  std::vector<double> pack;
  std::vector<double> panel;
  auto chunk = [&](Index begin, Index end, Index* c) {
    *c = PackChunk(sc, m, begin, end, &pack);
    if (panel.size() < static_cast<std::size_t>(*c * s)) {
      panel.resize(static_cast<std::size_t>(*c * s));
    }
    return pack.data();
  };
  Matrix y = Matrix::Uninitialized(dim, s);
  Matrix q = Matrix::Uninitialized(dim, s);
  DT_RETURN_NOT_OK(ReduceOverChunks(
      sc, ys,
      [&](Index begin, Index end, double* block) {
        Index c = 0;
        const double* p = chunk(begin, end, &c);
        if (c == 0) {
          std::fill(block, block + ys, 0.0);
          return;
        }
        // The panel holds Omega^T (s x c).
        FillInitSketch(sc.SliceRange(begin, end), begin, m,
                       options.tucker.seed, s, panel.data());
        GemmRaw(Trans::kNo, Trans::kYes, dim, s, c, 1.0, p, dim,
                panel.data(), s, 0.0, block, dim);
      },
      y.data(), &sw->scratch));
  // Y = G orth(Y): the q power steps, then step 3's product, whose Q
  // stays in q.
  auto power_step = [&]() {
    CholeskyQr2Raw(y.data(), dim, s, q.data(), nullptr);
    return ReduceOverChunks(
        sc, ys,
        [&](Index begin, Index end, double* block) {
          Index c = 0;
          const double* p = chunk(begin, end, &c);
          if (c == 0) {
            std::fill(block, block + ys, 0.0);
            return;
          }
          GemmRaw(Trans::kYes, Trans::kNo, c, s, dim, 1.0, p, dim, q.data(),
                  dim, 0.0, panel.data(), c);
          GemmRaw(Trans::kNo, Trans::kNo, dim, s, c, 1.0, p, dim,
                  panel.data(), c, 0.0, block, dim);
        },
        y.data(), &sw->scratch);
  };
  for (int it = 0; it <= options.power_iterations; ++it) {
    DT_RETURN_NOT_OK(power_step());
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
    GemmRaw(Trans::kNo, Trans::kYes, s, s, keep, 1.0, km.data(), s,
            km.data(), s, 0.0, kk.data(), s);
    for (Index j = 0; j < s; ++j) {
      for (Index i = 0; i < j; ++i) kk(i, j) = kk(j, i);
    }
  }
  const EigenSymResult nystrom = EigenSymFast(kk);
  *a = Matrix::Uninitialized(dim, k);
  GemmRaw(Trans::kNo, Trans::kNo, dim, k, s, 1.0, q.data(), dim,
          nystrom.vectors.data(), s, 0.0, a->data(), dim);
  return Status::OK();
}

struct InitResult {
  std::vector<Matrix> factors;
  Tensor core;
};

// Initialization phase: the range finder for A1/A2, gathered Z for the
// trailing factors and the first core. All panels are collective and every
// rank runs all of them (an interruption degrades the run to
// "initialization only" rather than aborting it); the caller agrees on the
// interruption verdict afterwards.
Status ShardedInitialize(const ShardContext& sc, const DTuckerOptions& options,
                         ShardWorkspace* sw, InitResult* init) {
  const std::vector<Index>& ranks = options.tucker.ranks;
  const Index order = static_cast<Index>(sc.full_shape.size());
  init->factors.resize(static_cast<std::size_t>(order));
  for (int m = 0; m < 2; ++m) {
    DT_RETURN_NOT_OK(RangeFinderFactor(
        sc, m, ranks[static_cast<std::size_t>(m)], options, sw,
        &init->factors[static_cast<std::size_t>(m)]));
  }

  if (static_cast<Index>(sw->ws.subspace.size()) < order) {
    sw->ws.subspace.resize(static_cast<std::size_t>(order));
  }
  DT_RETURN_NOT_OK(
      GatherProjectedCore(sc, init->factors[0], init->factors[1], sw));
  // From here on everything operates on the replicated small Z —
  // bitwise-identical input on every rank, deterministic solvers, so the
  // ranks stay in agreement without further communication.
  for (Index n = 2; n < order; ++n) {
    init->factors[static_cast<std::size_t>(n)] = LeadingModeVectorsViaGram(
        sw->ws.z, n, ranks[static_cast<std::size_t>(n)],
        &sw->ws.subspace[static_cast<std::size_t>(n)]);
  }
  init->core = *ContractTrailing(sw->ws.z, init->factors, /*skip_mode=*/-1,
                                 &sw->ws);
  return Status::OK();
}

// Where a sweep observed the agreed interruption.
enum class SweepStop { kNone, kEntry, kMid };

// One HOOI sweep: the mode-1/2 carrier contractions reduced across ranks,
// then Z gathered on every rank and the trailing factors and the core
// computed from it, replicated. Interruption checkpoints are *agreement
// points* (AgreeOnStop) so every rank observes the same verdict at the
// same boundary; `stop`/`where` report it. A communicator failure is
// returned as an error Status.
Status ShardedSweep(const ShardContext& sc, const std::vector<Index>& ranks,
                    const RunContext* ctx, std::vector<Matrix>* factors,
                    Tensor* core, ShardWorkspace* sw, StatusCode* stop,
                    SweepStop* where) {
  DT_TRACE_SPAN("dtucker.sweep");
  *where = SweepStop::kNone;
  const Index order = static_cast<Index>(sc.full_shape.size());
  auto agree = [&](SweepStop boundary) -> Result<bool> {
    DT_ASSIGN_OR_RETURN(StatusCode agreed,
                        AgreeOnStop(sc.comm, RunContext::CheckOrOk(ctx)));
    if (agreed == StatusCode::kOk) return false;
    *stop = agreed;
    *where = boundary;
    return true;
  };

  DT_ASSIGN_OR_RETURN(bool stopped, agree(SweepStop::kEntry));
  if (stopped) return Status::OK();

  // The trailing factors are frozen during the mode-1/2 updates, so one
  // outer-weight build serves both.
  BuildOuterWeights(*factors, sc.full_shape, sc.plan, &sw->kout);
  const Index i1 = sc.full_shape[0];
  const Index i2 = sc.full_shape[1];
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
    DT_RETURN_NOT_OK(ReduceCarrierContraction(
        sc, i1 * j2, *factors, sw->kout, contracted(i1, j2),
        [&](Index begin, Index end) {
          BuildModeOneCarrierInto(sc.SliceRange(begin, end), i1, (*factors)[1],
                                  sc.s_inv, &sw->ws.carrier);
          return sw->ws.carrier.data();
        },
        sw, &sw->w));
    (*factors)[0] = LeadingModeVectorsViaGram(
        sw->w, 0, ranks[0], &sw->ws.subspace[0], kInnerEig);
  }
  DT_ASSIGN_OR_RETURN(stopped, agree(SweepStop::kMid));
  if (stopped) return Status::OK();
  {
    // Mode-2 update, on the fresh A1. The carrier T2 is laid out
    // mode-1-first so the update is a mode-0 problem on W.
    DT_TRACE_SPAN("dtucker.update_mode2");
    static Histogram& stage_hist = MetricHistogram("dtucker.stage_ns.mode2");
    StageTimer stage_timer(&stage_hist);
    const Index j1 = (*factors)[0].cols();
    DT_RETURN_NOT_OK(ReduceCarrierContraction(
        sc, i2 * j1, *factors, sw->kout, contracted(i2, j1),
        [&](Index begin, Index end) {
          BuildModeTwoCarrierInto(sc.SliceRange(begin, end), i2, (*factors)[0],
                                  sc.s_inv, &sw->ws.carrier);
          return sw->ws.carrier.data();
        },
        sw, &sw->w));
    (*factors)[1] = LeadingModeVectorsViaGram(
        sw->w, 0, ranks[1], &sw->ws.subspace[1], kInnerEig);
  }
  DT_ASSIGN_OR_RETURN(stopped, agree(SweepStop::kMid));
  if (stopped) return Status::OK();
  {
    DT_TRACE_SPAN("dtucker.update_trailing");
    static Histogram& stage_hist =
        MetricHistogram("dtucker.stage_ns.trailing");
    StageTimer stage_timer(&stage_hist);
    // Every trailing factor from the gathered Z: replicated compute, no
    // communication past the gather. LeadingModeVectorsViaGram picks the
    // Gram side from the contracted tensor's shape.
    DT_RETURN_NOT_OK(
        GatherProjectedCore(sc, (*factors)[0], (*factors)[1], sw));
    for (Index n = 2; n < order; ++n) {
      (*factors)[static_cast<std::size_t>(n)] = LeadingModeVectorsViaGram(
          *ContractTrailing(sw->ws.z, *factors, /*skip_mode=*/n, &sw->ws), n,
          ranks[static_cast<std::size_t>(n)],
          &sw->ws.subspace[static_cast<std::size_t>(n)], kInnerEig);
    }
  }
  DT_ASSIGN_OR_RETURN(stopped, agree(SweepStop::kMid));
  if (stopped) return Status::OK();
  {
    DT_TRACE_SPAN("dtucker.core_refresh");
    static Histogram& stage_hist =
        MetricHistogram("dtucker.stage_ns.core_refresh");
    StageTimer stage_timer(&stage_hist);
    // The gathered Z against the *updated* trailing factors, as in the
    // initialization: replicated, so no reduction.
    *core = *ContractTrailing(sw->ws.z, *factors, /*skip_mode=*/-1, &sw->ws);
  }
  return Status::OK();
}

// Initialization + iteration on this rank's slices `owned` (the global
// range of `plan`), read in place. Every rank of the group calls this with
// identical options and returns the identical decomposition; phase times
// go to the process-wide timer from rank 0 only, so they add up to wall
// time however many ranks run.
Result<TuckerDecomposition> SolveRank(std::span<const SliceSvd> owned,
                                      const std::vector<Index>& full_shape,
                                      const ShardPlan& plan,
                                      const DTuckerOptions& options,
                                      Communicator* comm, TuckerStats* stats) {
  const bool lead = comm->rank() == 0;

  ShardContext sc;
  sc.slices = owned;
  sc.full_shape = full_shape;
  sc.plan = plan;
  sc.comm = comm;
  ShardWorkspace sw;
  DT_ASSIGN_OR_RETURN(const double scale, ShardedScale(sc));
  sc.s_inv = 1.0 / scale;  // Exactly 1.0 in the common case.
  DT_ASSIGN_OR_RETURN(const double approx_norm2,
                      ShardedApproxSquaredNorm(sc, &sw));

  const RunContext* ctx = options.tucker.run_context;
  const std::vector<Index>& ranks = options.tucker.ranks;

  Timer init_timer;
  InitResult state;
  {
    DT_TRACE_SPAN("dtucker.initialization");
    DT_RETURN_NOT_OK(ShardedInitialize(sc, options, &sw, &state));
  }
  // One verdict for the whole init phase: all panels always run (each is a
  // bounded collective unit), so a cancel during init degrades the run to
  // initialization-only on every rank at once.
  DT_ASSIGN_OR_RETURN(StatusCode stop,
                      AgreeOnStop(comm, RunContext::CheckOrOk(ctx)));
  if (lead) {
    GlobalPhaseTimer().Add("dtucker.initialization", init_timer.Seconds());
  }
  if (stats != nullptr) stats->init_seconds = init_timer.Seconds();
  const char* stop_phase = stop != StatusCode::kOk ? "initialization" : nullptr;

  Timer iterate_timer;
  int it = 0;
  {
    // Scoped so the span is closed before the telemetry gather below.
    DT_TRACE_SPAN("dtucker.iteration");
    double prev_error =
        OrthogonalTuckerRelativeError(approx_norm2, state.core.SquaredNorm());
    if (stats != nullptr) stats->error_history.push_back(prev_error);
    double prev_fit = 1.0 - std::sqrt(std::max(prev_error, 0.0));
    const bool do_callback = options.sweep_callback && lead;

    // Every rank snapshots: a cancel can originate on *any* rank, so every
    // rank must be able to roll a mid-sweep abort back to the last completed
    // sweep — that is what keeps the returned decompositions identical
    // across the group.
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
      DT_RETURN_NOT_OK(ShardedSweep(sc, ranks, ctx, &state.factors, &state.core,
                                    &sw, &stop, &where));
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
      // Convergence bookkeeping runs on replicated, bitwise-identical values
      // (the core is the same on every rank), so each rank takes the same
      // branch below without any extra communication.
      const double error = OrthogonalTuckerRelativeError(
          approx_norm2, state.core.SquaredNorm());
      if (stats != nullptr) stats->error_history.push_back(error);
      const bool want_telemetry = stats != nullptr || do_callback;
      if (want_telemetry) {
        SweepTelemetry t;
        t.sweep = it + 1;
        t.relative_error = error;
        t.fit = 1.0 - std::sqrt(std::max(error, 0.0));
        t.delta_fit = t.fit - prev_fit;
        t.seconds = sweep_timer.Seconds();
        t.subspace_iterations = SubspaceSweepsOnThisThread() - eig_before;
        prev_fit = t.fit;
        if (stats != nullptr) stats->sweep_history.push_back(t);
        if (do_callback) options.sweep_callback(t);
      }
      if (lead) {
        static Histogram& sweep_hist = MetricHistogram("dtucker.sweep_ns");
        sweep_hist.Record(
            static_cast<std::uint64_t>(sweep_timer.Seconds() * 1e9));
      }
      const double delta = std::fabs(prev_error - error);
      prev_error = error;
      if (delta < options.tucker.tolerance) {
        ++it;
        break;
      }
    }
  }
  if (lead) {
    GlobalPhaseTimer().Add("dtucker.iteration", iterate_timer.Seconds());
  }
  MetricGauge("process.peak_rss_bytes")
      .SetMax(static_cast<double>(PeakRssBytes()));
  if (stats != nullptr) {
    stats->iterations = it;
    stats->iterate_seconds = iterate_timer.Seconds();
    // The compressed slices this rank held (the in-process driver sums the
    // ranks' shares).
    stats->working_bytes = 0;
    for (const SliceSvd& sl : owned) {
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

SliceApproximationOptions ApproxOptionsFor(const DTuckerOptions& options,
                                           Index min_dim) {
  SliceApproximationOptions approx_opts;
  approx_opts.slice_rank = std::min(options.EffectiveSliceRank(), min_dim);
  approx_opts.oversampling = options.oversampling;
  approx_opts.power_iterations = options.power_iterations;
  approx_opts.seed = options.tucker.seed;
  approx_opts.run_context = options.tucker.run_context;
  return approx_opts;
}

// Approximation phase of one rank, then SolveRank on what it produced.
// `compress` compresses the rank's slice range; the ranks agree on its
// outcome before anyone proceeds (a failed rank would otherwise leave its
// peers blocked in the first collective until the communicator timeout).
Result<TuckerDecomposition> ApproximateAndSolveRank(
    const std::vector<Index>& shape, const DTuckerOptions& options,
    Communicator* comm, TuckerStats* stats,
    const std::function<Result<std::vector<SliceSvd>>(
        Index, Index, const SliceApproximationOptions&)>& compress) {
  DT_ASSIGN_OR_RETURN(
      ShardPlan plan,
      MakeShardPlan(TrailingVolume(shape), comm->size(), comm->rank()));
  Timer approx_timer;
  Result<std::vector<SliceSvd>> slices = [&] {
    DT_TRACE_SPAN("dtucker.approximation");
    return compress(plan.slice_begin, plan.NumLocalSlices(),
                    ApproxOptionsFor(options, std::min(shape[0], shape[1])));
  }();
  const StatusCode local_code =
      slices.ok() ? StatusCode::kOk : slices.status().code();
  DT_ASSIGN_OR_RETURN(StatusCode agreed, AgreeOnStop(comm, local_code));
  if (agreed != StatusCode::kOk) {
    if (!slices.ok()) return slices.status();
    return StatusFromCode(agreed,
                          "a peer rank failed during the approximation phase");
  }
  if (comm->rank() == 0) {
    GlobalPhaseTimer().Add("dtucker.approximation", approx_timer.Seconds());
  }
  if (stats != nullptr) stats->preprocess_seconds = approx_timer.Seconds();
  return SolveRank(slices.value(), shape, plan, options, comm, stats);
}

Result<TuckerDecomposition> SolveRankFromTensor(const Tensor& x,
                                                const DTuckerOptions& options,
                                                Communicator* comm,
                                                TuckerStats* stats) {
  return ApproximateAndSolveRank(
      x.shape(), options, comm, stats,
      [&x](Index first, Index count, const SliceApproximationOptions& ao) {
        return ApproximateSliceRange(x, first, count, ao);
      });
}

// The one rank launcher of the in-process entry points: runs
// R = RanksForThreads(options.num_threads, num_slices) ranks over an
// InProcessGroup, one thread each, and returns rank 0's result (all ranks
// finish identically). stats->working_bytes sums every rank's share.
Result<TuckerDecomposition> RunInProcessRanks(
    const DTuckerOptions& options, Index num_slices,
    const std::function<Result<TuckerDecomposition>(
        const DTuckerOptions&, Communicator*, TuckerStats*)>& rank_fn,
    TuckerStats* stats) {
  // Nothing has been computed yet, so an interruption observed here is a
  // plain error rather than a degraded result.
  const RunContext* ctx = options.tucker.run_context;
  if (ctx != nullptr) DT_RETURN_NOT_OK(ctx->CheckStatus("d-tucker solve"));
  const int num_ranks = RanksForThreads(options.num_threads, num_slices);
  std::shared_ptr<InProcessGroup> group = InProcessGroup::Create(num_ranks);

  // All rank threads of one run share a flow-id namespace: collective
  // call k on every rank carries the same flow id, which is what binds
  // the rank-local spans into one cross-rank flow arrow in the trace. The
  // counter keeps concurrent/successive runs in one process
  // from colliding.
  static std::atomic<std::uint64_t> run_counter{0};
  const std::uint64_t flow_group = run_counter.fetch_add(1) + 1;

  std::vector<std::unique_ptr<Result<TuckerDecomposition>>> results(
      static_cast<std::size_t>(num_ranks));
  std::vector<TuckerStats> rank_stats(static_cast<std::size_t>(num_ranks));
  RunRankThreads(num_ranks, [&](int r) {
    // Each rank thread's spans export under pid == r (its own Perfetto
    // lane). Shared pool workers stay on the default (rank 0) lane.
    SetTraceRankForCurrentThread(r);
    DTuckerOptions rank_options = options;
    if (r != 0) rank_options.sweep_callback = nullptr;
    Communicator* comm = group->comm(r);
    comm->set_trace_flow_group(flow_group);
    results[static_cast<std::size_t>(r)] =
        std::make_unique<Result<TuckerDecomposition>>(rank_fn(
            rank_options, comm, &rank_stats[static_cast<std::size_t>(r)]));
  });

  // Rank 0 speaks for the group; a peer-only failure still surfaces as an
  // error.
  for (int r = 1; r < num_ranks; ++r) {
    const Result<TuckerDecomposition>& peer =
        *results[static_cast<std::size_t>(r)];
    if (!peer.ok() && results[0]->ok()) return peer.status();
  }
  if (stats != nullptr) {
    *stats = rank_stats[0];
    for (int r = 1; r < num_ranks; ++r) {
      stats->working_bytes +=
          rank_stats[static_cast<std::size_t>(r)].working_bytes;
    }
  }
  return std::move(*results[0]);
}

}  // namespace

Result<TuckerDecomposition> ShardedDTuckerRank(const Tensor& x,
                                               const DTuckerOptions& options,
                                               Communicator* comm,
                                               TuckerStats* stats) {
  DT_RETURN_NOT_OK(options.Validate(x.shape()));
  return internal_dtucker::SolveReordered(
      x, options, [&](const Tensor& xs, const DTuckerOptions& inner) {
        return SolveRankFromTensor(xs, inner, comm, stats);
      });
}

Result<TuckerDecomposition> ShardedDTuckerRankFromFile(
    const std::string& path, const DTuckerOptions& options, Communicator* comm,
    TuckerStats* stats) {
  // Header peek for the shape; each rank then streams only its own shard.
  std::vector<Index> shape;
  {
    DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
    shape = reader.shape();
  }
  DT_RETURN_NOT_OK(options.Validate(shape));
  return ApproximateAndSolveRank(
      shape, options, comm, stats,
      [&path](Index first, Index count, const SliceApproximationOptions& ao) {
        return ApproximateSliceRangeFromFile(path, first, count, ao);
      });
}

Result<TuckerDecomposition> ShardedDTuckerRankFromApproximation(
    const SliceApproximation& approx, const DTuckerOptions& options,
    Communicator* comm, TuckerStats* stats) {
  DT_RETURN_NOT_OK(approx.Validate());
  DT_RETURN_NOT_OK(options.Validate(approx.shape));
  DT_ASSIGN_OR_RETURN(
      ShardPlan plan,
      MakeShardPlan(approx.NumSlices(), comm->size(), comm->rank()));
  return SolveRank(std::span<const SliceSvd>(approx.slices)
                       .subspan(static_cast<std::size_t>(plan.slice_begin),
                                static_cast<std::size_t>(
                                    plan.NumLocalSlices())),
                   approx.shape, plan, options, comm, stats);
}

Result<TuckerDecomposition> DTucker(const Tensor& x,
                                    const DTuckerOptions& options,
                                    TuckerStats* stats) {
  DT_RETURN_NOT_OK(options.Validate(x.shape()));
  // Permuted before the ranks start, so every rank reads the same tensor
  // and the rank count follows the permuted slice count.
  return internal_dtucker::SolveReordered(
      x, options, [stats](const Tensor& xs, const DTuckerOptions& inner) {
        return RunInProcessRanks(
            inner, xs.NumFrontalSlices(),
            [&xs](const DTuckerOptions& opt, Communicator* comm,
                  TuckerStats* st) {
              return SolveRankFromTensor(xs, opt, comm, st);
            },
            stats);
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
  return RunInProcessRanks(
      options, TrailingVolume(shape),
      [&path](const DTuckerOptions& opt, Communicator* comm, TuckerStats* st) {
        return ShardedDTuckerRankFromFile(path, opt, comm, st);
      },
      stats);
}

Result<TuckerDecomposition> DTuckerFromApproximation(
    const SliceApproximation& approx, const DTuckerOptions& options,
    TuckerStats* stats) {
  DT_RETURN_NOT_OK(approx.Validate());
  DT_RETURN_NOT_OK(options.Validate(approx.shape));
  return RunInProcessRanks(
      options, approx.NumSlices(),
      [&approx](const DTuckerOptions& opt, Communicator* comm,
                TuckerStats* st) {
        return ShardedDTuckerRankFromApproximation(approx, opt, comm, st);
      },
      stats);
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
  // reduced on one rank through the canonical chunk tree.
  ShardContext sc;
  sc.slices = approx.slices;
  sc.full_shape = approx.shape;
  DT_ASSIGN_OR_RETURN(sc.plan, MakeShardPlan(approx.NumSlices(), 1, 0));
  std::vector<Matrix> leading_vecs(2);
  for (int m = 0; m < 2; ++m) {
    const Index dim = approx.Dim(m);
    Matrix gram;
    DT_RETURN_NOT_OK(ShardedStackedFactorGram(sc, m, &gram));
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
  Tensor z;
  BuildProjectedCoreInto(approx.slices, leading_vecs[0], leading_vecs[1],
                         /*s_inv=*/1.0, &z);
  std::vector<Index> zshape = approx.shape;
  zshape[0] = leading_vecs[0].cols();
  zshape[1] = leading_vecs[1].cols();
  z = z.Reshaped(zshape);
  for (Index n = 2; n < order; ++n) {
    PickRankFromSpectrum(EigenSymFast(ModeGram(z, n)).values,
                         energy_threshold, max_rank, n, &out);
  }
  return out;
}

}  // namespace dtucker
