#include "dtucker/sharded_dtucker.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "comm/telemetry_gather.h"
#include "common/logging.h"
#include "common/memory.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/tensor_file.h"
#include "dtucker/out_of_core.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "tensor/tensor_utils.h"
#include "tucker/hosvd.h"

namespace dtucker {

namespace {

using internal_dtucker::AccumulateScaledFactorGram;
using internal_dtucker::BuildModeOneCarrierInto;
using internal_dtucker::BuildModeTwoCarrierInto;
using internal_dtucker::BuildProjectedCoreInto;
using internal_dtucker::ContractTrailing;
using internal_dtucker::SweepWorkspace;

// Same bounded inner eigensolve as the unsharded sweep (dtucker.cc): the
// outer HOOI loop absorbs the slack of an inexact factor update.
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
  const SliceApproximation* local = nullptr;  // Shape {I1, I2, nlocal}.
  std::vector<Index> full_shape;              // Global tensor shape.
  ShardPlan plan;
  Communicator* comm = nullptr;
  double s_inv = 1.0;
  // DTuckerOptions::shard_trailing_updates: sweep-time trailing factor
  // updates and core refresh run on the rank's own Z slab instead of a
  // gathered Z (see ShardedSweep). Identical on every rank, so the
  // branch choice stays in lockstep.
  bool shard_trailing = true;
};

// Reusable per-rank buffers across sweeps, wrapping the unsharded
// workspace (whose z slot holds the *gathered* full projected tensor, so
// the trailing-mode code is shared verbatim).
struct ShardWorkspace {
  SweepWorkspace ws;
  Tensor z_local;                // This rank's Z slab (J1 x J2 x nlocal).
  Tensor w;                      // Reduced carrier contraction target.
  Matrix kron;                   // Trailing Kronecker weights (nlocal x P).
  std::vector<Matrix> partials;  // Per-chunk GEMM partials.
  std::vector<std::size_t> z_counts;  // Owned-slice counts per rank.
  // Sharded trailing-update scratch (order-3 fast path).
  Matrix trailing_gram;  // Small-side Gram C = Z_(3)^T Z_(3) (m x m).
  Matrix ut_local;       // This rank's factor rows, transposed (k x nlocal).
  Matrix ut_all;         // Gathered panel, transposed (k x L).
  Matrix trailing_u;     // Unnormalized factor panel (L x k).
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

// Runs body(c, chunk_slice_begin, chunk_slice_end) serially over this
// rank's chunks, in ascending chunk order — step 2 of the canonical
// reduction (comm/sharding.h).
template <typename Body>
void ForEachLocalChunk(const ShardPlan& plan, const Body& body) {
  for (Index c = plan.chunk_begin; c < plan.chunk_end; ++c) {
    body(c - plan.chunk_begin, plan.ChunkSliceBegin(c), plan.ChunkSliceEnd(c));
  }
}

// G = sum_l F_l diag(s_l * s_inv)^2 F_l^T over *all* ranks' slices
// (F = U for m == 0, V for m == 1): local per-chunk accumulation, pairwise
// tree over the local chunk partials, binomial AllReduceSum across ranks.
// For power-of-two rank counts this composes into the same global tree as
// a 1-rank run (see comm/sharding.h).
Status ShardedStackedFactorGram(const ShardContext& sc, int m, Matrix* g) {
  const Index dim = sc.full_shape[static_cast<std::size_t>(m)];
  const Index nchunks = sc.plan.NumLocalChunks();
  std::vector<Matrix> partials(static_cast<std::size_t>(nchunks));
  ForEachLocalChunk(sc.plan, [&](Index i, Index begin, Index end) {
    Matrix& p = partials[static_cast<std::size_t>(i)];
    p = Matrix::Uninitialized(dim, dim);
    for (Index l = begin; l < end; ++l) {
      const std::size_t l_loc =
          static_cast<std::size_t>(l - sc.plan.slice_begin);
      AccumulateScaledFactorGram(sc.local->slices[l_loc], m, sc.s_inv,
                                 l == begin ? 0.0 : 1.0, &p);
    }
  });
  TreeCombine(&partials, [](Matrix* dst, const Matrix& src) {
    Axpy(1.0, src.data(), dst->data(), dst->size());
  });
  if (g->rows() != dim || g->cols() != dim) {
    *g = Matrix::Uninitialized(dim, dim);
  }
  if (partials.empty()) {
    std::fill(g->data(), g->data() + g->size(), 0.0);
  } else {
    std::memcpy(g->data(), partials[0].data(),
                static_cast<std::size_t>(g->size()) * sizeof(double));
  }
  return sc.comm->AllReduceSum(g);
}

// ||X~||^2 over all ranks, through the same canonical reduction.
Result<double> ShardedApproxSquaredNorm(const ShardContext& sc) {
  const Index nchunks = sc.plan.NumLocalChunks();
  std::vector<double> partials(static_cast<std::size_t>(nchunks), 0.0);
  ForEachLocalChunk(sc.plan, [&](Index i, Index begin, Index end) {
    double acc = 0.0;
    for (Index l = begin; l < end; ++l) {
      const SliceSvd& sl =
          sc.local->slices[static_cast<std::size_t>(l - sc.plan.slice_begin)];
      for (double s : sl.s) {
        const double v = s * sc.s_inv;
        acc += v * v;
      }
    }
    partials[static_cast<std::size_t>(i)] = acc;
  });
  TreeCombine(&partials,
              [](double* dst, const double& src) { *dst += src; });
  double total = partials.empty() ? 0.0 : partials[0];
  DT_RETURN_NOT_OK(sc.comm->AllReduceSum(&total, 1));
  return total;
}

// Global largest slice singular value (max is exactly associative, so a
// plain reduce is bitwise-deterministic), then the unsharded band rule.
Result<double> ShardedScale(const ShardContext& sc) {
  double smax = 0.0;
  for (const auto& sl : sc.local->slices) {
    if (!sl.s.empty()) smax = std::max(smax, sl.s.front());
  }
  DT_RETURN_NOT_OK(sc.comm->AllReduceMax(&smax, 1));
  if (smax > 0.0 && (smax < 1e-100 || smax > 1e100)) return smax;
  return 1.0;
}

// Rows of the trailing Kronecker-weight matrix for this rank's slices:
// kron[l_loc, p] = prod_{n >= 3} A(n)[i_n(l), j_n(p)], where the global
// slice index l decomposes mode-3-fastest into (i_3, ..., i_N) and the
// column index p j_3-fastest into (j_3, ..., j_N). With this matrix the
// mode-1 update's "build carrier T1, contract every trailing mode" chain
// collapses to one GEMM per chunk: W = T1_(unfold) * kron is exactly
// X~ x_2 A2^T x_3 A3^T ... x_N AN^T restricted to the owned slices, and
// the frontal-slab layout of T1 is already the needed unfolding. Returns
// the trailing rank product P.
Index BuildKroneckerWeights(const std::vector<Matrix>& factors,
                            const std::vector<Index>& full_shape,
                            const ShardPlan& plan, Matrix* kron) {
  const Index order = static_cast<Index>(full_shape.size());
  Index p_total = 1;
  for (Index n = 2; n < order; ++n) {
    p_total *= factors[static_cast<std::size_t>(n)].cols();
  }
  const Index nlocal = plan.NumLocalSlices();
  if (kron->rows() != nlocal || kron->cols() != p_total) {
    *kron = Matrix::Uninitialized(nlocal, p_total);
  }
  std::vector<double> row(static_cast<std::size_t>(p_total));
  std::vector<double> next(static_cast<std::size_t>(p_total));
  for (Index l_loc = 0; l_loc < nlocal; ++l_loc) {
    Index rem = plan.slice_begin + l_loc;
    row[0] = 1.0;
    Index sz = 1;
    for (Index n = 2; n < order; ++n) {
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
    for (Index p = 0; p < p_total; ++p) {
      kron->col_data(p)[l_loc] = row[static_cast<std::size_t>(p)];
    }
  }
  return p_total;
}

// W = sum over ALL slices of carrier_slab_l (x) kron_row_l, i.e. the fully
// trailing-contracted carrier, shaped `out_shape` (slab_rows x P flat).
// One GEMM per owned chunk (inner dimension = that chunk's slice count, an
// operand-deterministic unit), pairwise tree over the chunk partials,
// binomial AllReduceSum across ranks — the canonical reduction again, so
// the result is bitwise rank-count-invariant for power-of-two counts.
Status ReduceCarrierContraction(const ShardContext& sc, const Tensor& carrier,
                                Index slab_rows, const Matrix& kron,
                                Index p_total,
                                const std::vector<Index>& out_shape,
                                ShardWorkspace* sw, Tensor* out) {
  DT_TRACE_SPAN("dtucker.shard.carrier_reduce");
  out->ResizeTo(out_shape);
  const Index nlocal = sc.plan.NumLocalSlices();
  const Index nchunks = sc.plan.NumLocalChunks();
  sw->partials.resize(static_cast<std::size_t>(nchunks));
  ForEachLocalChunk(sc.plan, [&](Index i, Index begin, Index end) {
    Matrix& p = sw->partials[static_cast<std::size_t>(i)];
    if (p.rows() != slab_rows || p.cols() != p_total) {
      p = Matrix::Uninitialized(slab_rows, p_total);
    }
    const std::size_t col0 = static_cast<std::size_t>(begin - sc.plan.slice_begin);
    GemmRaw(Trans::kNo, Trans::kNo, slab_rows, p_total, end - begin,
            /*alpha=*/1.0,
            carrier.data() + col0 * static_cast<std::size_t>(slab_rows),
            slab_rows, kron.data() + col0, nlocal, /*beta=*/0.0, p.data(),
            slab_rows);
  });
  TreeCombine(&sw->partials, [](Matrix* dst, const Matrix& src) {
    Axpy(1.0, src.data(), dst->data(), dst->size());
  });
  const std::size_t total =
      static_cast<std::size_t>(slab_rows) * static_cast<std::size_t>(p_total);
  if (sw->partials.empty()) {
    std::fill(out->data(), out->data() + total, 0.0);
  } else {
    std::memcpy(out->data(), sw->partials[0].data(), total * sizeof(double));
  }
  return sc.comm->AllReduceSum(out->data(), total);
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
  DT_TRACE_SPAN("dtucker.shard.gather_z");
  BuildProjectedCoreInto(*sc.local, a1, a2, sc.s_inv, &sw->z_local);
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

// Whether the sweep-time trailing update runs sharded: order-3 (the
// paper's primary case — one trailing mode whose Gram decomposes slice by
// slice on the chunk grid) with a trailing rank small enough for the
// small-side Gram. Orders >= 4 fall back to the gathered-Z path: there a
// trailing unfolding's columns group several slices whose indices straddle
// shard boundaries, so the small-side Gram no longer shards on the slice
// grid (and Z is tiny for the shapes that path serves). Pure function of
// options + shape, hence identical on every rank.
bool UseShardedTrailing(const ShardContext& sc,
                        const std::vector<Index>& ranks) {
  return sc.shard_trailing && sc.full_shape.size() == 3 &&
         ranks[2] <= ranks[0] * ranks[1];
}

// Sharded mode-3 factor update (order-3), never materializing the gathered
// Z. With B = Z_(3)^T (m x L, m = J1*J2, column l = vec(z_l)):
//   1. Small-side Gram C = B B^T = sum_l vec(z_l) vec(z_l)^T through the
//      canonical reduction — one GEMM per owned chunk, pairwise tree over
//      chunk partials, binomial AllReduceSum — so C is replicated and
//      bitwise rank-count-invariant (power-of-two counts).
//   2. Replicated small eig: W = top-k eigenvectors of C, the dominant
//      right singular basis of the mode-3 unfolding.
//   3. Each rank recovers only its own rows of the unnormalized panel
//      U = Z_(3) W, computed transposed (k x nlocal) so step 4 is a pure
//      ascending-rank concatenation with no floating-point combine.
//   4. AllGatherV + local transpose to L x k.
//   5. Replicated thin QR restores orthonormal columns. Identical inputs
//      and a deterministic kernel keep every rank in bitwise agreement.
// The computed basis spans the same subspace as the replicated
// LeadingModeVectorsViaGram update but through a different factorization,
// so its bits differ from the shard_trailing_updates=false variant (the
// cross-rank-count identity is what the contract guarantees).
Status ShardedTrailingFactorUpdate(const ShardContext& sc,
                                   const std::vector<Index>& ranks,
                                   std::vector<Matrix>* factors,
                                   ShardWorkspace* sw) {
  DT_TRACE_SPAN("dtucker.shard.update_trailing_sharded");
  const Index m = ranks[0] * ranks[1];
  const Index k = ranks[2];
  const Index big_l = sc.plan.num_slices;
  const Index nlocal = sc.plan.NumLocalSlices();
  const Index nchunks = sc.plan.NumLocalChunks();
  sw->partials.resize(static_cast<std::size_t>(nchunks));
  ForEachLocalChunk(sc.plan, [&](Index i, Index begin, Index end) {
    Matrix& p = sw->partials[static_cast<std::size_t>(i)];
    if (p.rows() != m || p.cols() != m) p = Matrix::Uninitialized(m, m);
    const double* z0 =
        sw->z_local.data() +
        static_cast<std::size_t>(begin - sc.plan.slice_begin) *
            static_cast<std::size_t>(m);
    GemmRaw(Trans::kNo, Trans::kYes, m, m, end - begin, /*alpha=*/1.0, z0, m,
            z0, m, /*beta=*/0.0, p.data(), m);
  });
  TreeCombine(&sw->partials, [](Matrix* dst, const Matrix& src) {
    Axpy(1.0, src.data(), dst->data(), dst->size());
  });
  Matrix& c = sw->trailing_gram;
  if (c.rows() != m || c.cols() != m) c = Matrix::Uninitialized(m, m);
  if (sw->partials.empty()) {
    std::fill(c.data(), c.data() + c.size(), 0.0);
  } else {
    std::memcpy(c.data(), sw->partials[0].data(),
                static_cast<std::size_t>(c.size()) * sizeof(double));
  }
  DT_RETURN_NOT_OK(sc.comm->AllReduceSum(&c));
  const Matrix w =
      TopEigenvectorsSym(c, k, &sw->ws.subspace[2], kInnerEig);
  Matrix& ut = sw->ut_local;
  if (ut.rows() != k || ut.cols() != nlocal) {
    ut = Matrix::Uninitialized(k, nlocal);
  }
  if (nlocal > 0) {
    GemmRaw(Trans::kYes, Trans::kNo, k, nlocal, m, /*alpha=*/1.0, w.data(), m,
            sw->z_local.data(), m, /*beta=*/0.0, ut.data(), k);
  }
  const std::vector<std::size_t>& slice_counts = RankSliceCounts(sc, sw);
  std::vector<std::size_t> counts(slice_counts.size());
  for (std::size_t r = 0; r < counts.size(); ++r) {
    counts[r] = slice_counts[r] * static_cast<std::size_t>(k);
  }
  Matrix& ut_all = sw->ut_all;
  if (ut_all.rows() != k || ut_all.cols() != big_l) {
    ut_all = Matrix::Uninitialized(k, big_l);
  }
  DT_RETURN_NOT_OK(sc.comm->AllGatherV(ut.data(), counts, ut_all.data()));
  Matrix& u = sw->trailing_u;
  if (u.rows() != big_l || u.cols() != k) {
    u = Matrix::Uninitialized(big_l, k);
  }
  for (Index l = 0; l < big_l; ++l) {
    const double* src = ut_all.col_data(l);
    for (Index j = 0; j < k; ++j) u.col_data(j)[l] = src[j];
  }
  (*factors)[2] = QrOrthonormalize(u);
  return Status::OK();
}

struct InitResult {
  std::vector<Matrix> factors;
  Tensor core;
};

// Initialization phase, sharded: reduced Grams for A1/A2, gathered Z for
// the trailing factors and the first core. All panels are collective and
// every rank runs all of them (matching the unsharded contract that an
// interruption degrades the run to "initialization only" rather than
// aborting it); the caller agrees on the interruption verdict afterwards.
Status ShardedInitialize(const ShardContext& sc,
                         const std::vector<Index>& ranks, ShardWorkspace* sw,
                         InitResult* init) {
  DT_TRACE_SPAN("dtucker.shard.initialization");
  const Index order = static_cast<Index>(sc.full_shape.size());
  init->factors.resize(static_cast<std::size_t>(order));
  Matrix gram;
  DT_RETURN_NOT_OK(ShardedStackedFactorGram(sc, 0, &gram));
  init->factors[0] = TopEigenvectorsSym(gram, ranks[0]);
  DT_RETURN_NOT_OK(ShardedStackedFactorGram(sc, 1, &gram));
  init->factors[1] = TopEigenvectorsSym(gram, ranks[1]);

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

// One sharded HOOI sweep. Mirrors internal_dtucker::DTuckerSweep with the
// mode-1/2 carrier contractions reduced across ranks, the trailing update
// and core refresh sharded over this rank's Z slab (order-3 fast path —
// see UseShardedTrailing) or replicated on the gathered Z (fallback and
// shard_trailing_updates=false). Interruption checkpoints are
// *agreement points* (AgreeOnStop) so every rank observes the same verdict
// at the same boundary; `stop`/`where` report it. A communicator failure
// is returned as an error Status.
Status ShardedSweep(const ShardContext& sc, const std::vector<Index>& ranks,
                    const RunContext* ctx, std::vector<Matrix>* factors,
                    Tensor* core, ShardWorkspace* sw, StatusCode* stop,
                    SweepStop* where) {
  DT_TRACE_SPAN("dtucker.shard.sweep");
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
  // Kronecker-weight build serves both.
  const Index p_total =
      BuildKroneckerWeights(*factors, sc.full_shape, sc.plan, &sw->kron);
  const Index i1 = sc.full_shape[0];
  const Index i2 = sc.full_shape[1];
  {
    DT_TRACE_SPAN("dtucker.shard.update_mode1");
    static Histogram& stage_hist = MetricHistogram("dtucker.stage_ns.mode1");
    StageTimer stage_timer(&stage_hist);
    BuildModeOneCarrierInto(*sc.local, (*factors)[1], sc.s_inv,
                            &sw->ws.carrier);
    const Index j2 = (*factors)[1].cols();
    std::vector<Index> wshape = sc.full_shape;
    wshape[1] = j2;
    for (Index n = 2; n < order; ++n) {
      wshape[static_cast<std::size_t>(n)] =
          (*factors)[static_cast<std::size_t>(n)].cols();
    }
    DT_RETURN_NOT_OK(ReduceCarrierContraction(sc, sw->ws.carrier, i1 * j2,
                                              sw->kron, p_total, wshape, sw,
                                              &sw->w));
    (*factors)[0] = LeadingModeVectorsViaGram(
        sw->w, 0, ranks[0], &sw->ws.subspace[0], kInnerEig);
  }
  DT_ASSIGN_OR_RETURN(stopped, agree(SweepStop::kMid));
  if (stopped) return Status::OK();
  {
    // Mode-2 update, on the fresh A1. Like the unsharded T2, the carrier
    // is laid out mode-1-first so the update is a mode-0 problem on W.
    DT_TRACE_SPAN("dtucker.shard.update_mode2");
    static Histogram& stage_hist = MetricHistogram("dtucker.stage_ns.mode2");
    StageTimer stage_timer(&stage_hist);
    BuildModeTwoCarrierInto(*sc.local, (*factors)[0], sc.s_inv,
                            &sw->ws.carrier);
    const Index j1 = (*factors)[0].cols();
    std::vector<Index> wshape = sc.full_shape;
    wshape[0] = i2;
    wshape[1] = j1;
    for (Index n = 2; n < order; ++n) {
      wshape[static_cast<std::size_t>(n)] =
          (*factors)[static_cast<std::size_t>(n)].cols();
    }
    DT_RETURN_NOT_OK(ReduceCarrierContraction(sc, sw->ws.carrier, i2 * j1,
                                              sw->kron, p_total, wshape, sw,
                                              &sw->w));
    (*factors)[1] = LeadingModeVectorsViaGram(
        sw->w, 0, ranks[1], &sw->ws.subspace[1], kInnerEig);
  }
  DT_ASSIGN_OR_RETURN(stopped, agree(SweepStop::kMid));
  if (stopped) return Status::OK();
  {
    DT_TRACE_SPAN("dtucker.shard.update_trailing");
    static Histogram& stage_hist =
        MetricHistogram("dtucker.stage_ns.trailing");
    StageTimer stage_timer(&stage_hist);
    if (UseShardedTrailing(sc, ranks)) {
      // Sharded trailing update: refresh only this rank's Z slab on the
      // fresh A1/A2 and recover the mode-3 factor from the small-side
      // Gram reduced through the canonical tree — the full Z is never
      // gathered during sweeps.
      BuildProjectedCoreInto(*sc.local, (*factors)[0], (*factors)[1],
                             sc.s_inv, &sw->z_local);
      DT_RETURN_NOT_OK(ShardedTrailingFactorUpdate(sc, ranks, factors, sw));
    } else {
      // Replicated fallback (orders >= 4, oversized trailing rank, or
      // shard_trailing_updates = false): trailing updates on the gathered
      // Z — replicated compute, zero communication past the gather.
      DT_RETURN_NOT_OK(
          GatherProjectedCore(sc, (*factors)[0], (*factors)[1], sw));
      for (Index n = 2; n < order; ++n) {
        (*factors)[static_cast<std::size_t>(n)] = LeadingModeVectorsViaGram(
            *ContractTrailing(sw->ws.z, *factors, /*skip_mode=*/n, &sw->ws), n,
            ranks[static_cast<std::size_t>(n)],
            &sw->ws.subspace[static_cast<std::size_t>(n)],
            kInnerEig);
      }
    }
  }
  DT_ASSIGN_OR_RETURN(stopped, agree(SweepStop::kMid));
  if (stopped) return Status::OK();
  {
    DT_TRACE_SPAN("dtucker.shard.core_refresh");
    static Histogram& stage_hist =
        MetricHistogram("dtucker.stage_ns.core_refresh");
    StageTimer stage_timer(&stage_hist);
    if (sc.shard_trailing) {
      // Sharded core refresh (any order): contract this rank's Z slab —
      // current in both branches above — against Kronecker weights rebuilt
      // from the *updated* trailing factors, through the same fixed
      // reduction tree the mode-1/2 updates use.
      const Index p2 =
          BuildKroneckerWeights(*factors, sc.full_shape, sc.plan, &sw->kron);
      DT_RETURN_NOT_OK(ReduceCarrierContraction(sc, sw->z_local,
                                                ranks[0] * ranks[1], sw->kron,
                                                p2, ranks, sw, core));
    } else {
      *core = *ContractTrailing(sw->ws.z, *factors, /*skip_mode=*/-1, &sw->ws);
    }
  }
  return Status::OK();
}

}  // namespace

Status ShardedDTuckerOptions::Validate(const std::vector<Index>& shape) const {
  DT_RETURN_NOT_OK(dtucker.Validate(shape));
  if (dtucker.auto_reorder) {
    return Status::InvalidArgument(
        "sharded D-Tucker does not support auto_reorder; permute the tensor "
        "(or drop --ranks) instead");
  }
  if (num_ranks < 1) {
    return Status::InvalidArgument("num_ranks must be >= 1");
  }
  const Index l = TrailingVolume(shape);
  if (static_cast<Index>(num_ranks) > l) {
    return Status::InvalidArgument(
        "num_ranks (" + std::to_string(num_ranks) +
        ") exceeds the slice count L=" + std::to_string(l) +
        "; reduce --ranks to at most the trailing-mode volume");
  }
  if (comm_timeout_seconds <= 0.0) {
    return Status::InvalidArgument("comm_timeout_seconds must be positive");
  }
  return Status::OK();
}

Result<TuckerDecomposition> ShardedDTuckerFromLocalApproximation(
    const SliceApproximation& local, const std::vector<Index>& full_shape,
    const ShardPlan& plan, const DTuckerOptions& options, Communicator* comm,
    TuckerStats* stats) {
  // A degenerate shard (zero owned slices, legal when the rank count
  // exceeds the chunk grid) fails the strict shape check — its trailing
  // dimension is 0 — so it is validated structurally below instead.
  if (!plan.Degenerate()) DT_RETURN_NOT_OK(local.Validate());
  DT_RETURN_NOT_OK(options.Validate(full_shape));
  if (options.auto_reorder) {
    return Status::InvalidArgument(
        "sharded D-Tucker does not support auto_reorder");
  }
  if (plan.rank != comm->rank() || plan.num_ranks != comm->size()) {
    return Status::InvalidArgument(
        "shard plan does not match the communicator's rank/size");
  }
  if (plan.num_slices != TrailingVolume(full_shape)) {
    return Status::InvalidArgument(
        "shard plan slice count does not match the tensor shape");
  }
  if (local.NumSlices() != plan.NumLocalSlices() ||
      local.Dim(0) != full_shape[0] || local.Dim(1) != full_shape[1]) {
    return Status::InvalidArgument(
        "local approximation does not match this rank's shard");
  }

  // Clock alignment before the first traced collective, so every exported
  // span of this run already sits on rank 0's time axis. Gated on flags
  // that are derived identically on every rank (collective discipline).
  if (TelemetryGatherEnabled() && TraceEnabled()) {
    Status align = AlignTraceClockWithRoot(comm);
    if (!align.ok()) {
      DT_LOG(WARNING) << "trace clock alignment failed: " << align.message();
    }
  }

  ShardContext sc;
  sc.local = &local;
  sc.full_shape = full_shape;
  sc.plan = plan;
  sc.comm = comm;
  sc.shard_trailing = options.shard_trailing_updates;
  DT_ASSIGN_OR_RETURN(const double scale, ShardedScale(sc));
  sc.s_inv = 1.0 / scale;  // Exactly 1.0 in the common case.
  DT_ASSIGN_OR_RETURN(const double approx_norm2, ShardedApproxSquaredNorm(sc));

  const RunContext* ctx = options.tucker.run_context;
  const std::vector<Index>& ranks = options.tucker.ranks;

  Timer init_timer;
  ShardWorkspace sw;
  InitResult state;
  DT_RETURN_NOT_OK(ShardedInitialize(sc, ranks, &sw, &state));
  // One verdict for the whole init phase: all panels always run (each is a
  // bounded collective unit), so a cancel during init degrades the run to
  // initialization-only on every rank at once.
  DT_ASSIGN_OR_RETURN(StatusCode stop,
                      AgreeOnStop(comm, RunContext::CheckOrOk(ctx)));
  GlobalPhaseTimer().Add("dtucker.initialization", init_timer.Seconds());
  if (stats != nullptr) stats->init_seconds = init_timer.Seconds();
  const char* stop_phase = stop != StatusCode::kOk ? "initialization" : nullptr;

  Timer iterate_timer;
  DT_TRACE_SPAN("dtucker.shard.iteration");
  double prev_error =
      OrthogonalTuckerRelativeError(approx_norm2, state.core.SquaredNorm());
  if (stats != nullptr) stats->error_history.push_back(prev_error);
  static Counter& eig_sweeps = MetricCounter("eig.subspace_sweeps");
  double prev_fit = 1.0 - std::sqrt(std::max(prev_error, 0.0));
  const bool do_callback = options.sweep_callback && comm->rank() == 0;

  // The sharded loop always snapshots: a cancel can originate on *any*
  // rank, so every rank must be able to roll a mid-sweep abort back to the
  // last completed sweep — that is what keeps the returned decompositions
  // identical across the group.
  std::vector<Matrix> factors_snapshot;
  Tensor core_snapshot;

  int it = 0;
  for (; it < options.tucker.max_iterations; ++it) {
    if (stop != StatusCode::kOk) {
      if (stop_phase == nullptr) stop_phase = "between iteration sweeps";
      break;
    }
    Timer sweep_timer;
    const std::uint64_t eig_before = eig_sweeps.Value();
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
      t.subspace_iterations = eig_sweeps.Value() - eig_before;
      prev_fit = t.fit;
      if (stats != nullptr) stats->sweep_history.push_back(t);
      if (do_callback) options.sweep_callback(t);
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
  GlobalPhaseTimer().Add("dtucker.iteration", iterate_timer.Seconds());
  MetricGauge("process.peak_rss_bytes")
      .SetMax(static_cast<double>(PeakRssBytes()));
  if (stats != nullptr) {
    stats->iterations = it;
    stats->iterate_seconds = iterate_timer.Seconds();
    // The per-rank footprint — the whole point of sharding: this rank only
    // ever held its own shard of the compressed form.
    stats->working_bytes = local.ByteSize();
    stats->completion = stop;
    if (stop != StatusCode::kOk) {
      stats->completion_detail =
          std::string(StatusCodeToString(stop)) + " during " +
          (stop_phase != nullptr ? stop_phase : "iteration") + "; " +
          std::to_string(it) + " completed sweep(s)";
    }
  }

  // Run-end telemetry gather. Cancelled/rolled-back runs reach this point
  // too (graceful degradation returns the best-so-far decomposition), so
  // aborted runs still produce one merged trace. Collective, gated on a
  // flag that is uniform across ranks; a failed gather degrades to the
  // per-rank fallback files, never fails the solve.
  if (TelemetryGatherEnabled()) {
    Status gathered = GatherRankTelemetry(comm);
    if (!gathered.ok()) {
      DT_LOG(WARNING) << "cross-rank telemetry gather failed: "
                      << gathered.message();
    }
  }

  TuckerDecomposition dec;
  dec.factors = std::move(state.factors);
  dec.core = std::move(state.core);
  if (scale != 1.0) dec.core *= scale;
  return dec;
}

namespace {

// Shared tail of the per-rank approximation phase: agree on the outcome
// before anyone proceeds (a failed rank would otherwise leave its peers
// blocked in the first collective until the communicator timeout), then
// assemble the local SliceApproximation with this shard's shape.
Result<SliceApproximation> FinishLocalApproximation(
    Result<std::vector<SliceSvd>> slices_result, const ShardPlan& plan,
    const std::vector<Index>& full_shape, Index slice_rank,
    Communicator* comm) {
  const StatusCode local_code = slices_result.ok()
                                    ? StatusCode::kOk
                                    : slices_result.status().code();
  DT_ASSIGN_OR_RETURN(StatusCode agreed, AgreeOnStop(comm, local_code));
  if (agreed != StatusCode::kOk) {
    if (!slices_result.ok()) return slices_result.status();
    return StatusFromCode(agreed,
                          "a peer rank failed during the approximation phase");
  }
  SliceApproximation local;
  local.shape = {full_shape[0], full_shape[1], plan.NumLocalSlices()};
  local.slice_rank = slice_rank;
  local.slices = std::move(slices_result).ValueOrDie();
  return local;
}

SliceApproximationOptions ApproxOptionsFor(const DTuckerOptions& options,
                                           Index min_dim) {
  SliceApproximationOptions approx_opts;
  approx_opts.slice_rank = std::min(options.EffectiveSliceRank(), min_dim);
  approx_opts.oversampling = options.oversampling;
  approx_opts.power_iterations = options.power_iterations;
  approx_opts.seed = options.tucker.seed;
  approx_opts.num_threads = options.num_threads;
  approx_opts.run_context = options.tucker.run_context;
  return approx_opts;
}

}  // namespace

Result<TuckerDecomposition> ShardedDTuckerRank(const Tensor& x,
                                               const DTuckerOptions& options,
                                               Communicator* comm,
                                               TuckerStats* stats) {
  DT_RETURN_NOT_OK(options.Validate(x.shape()));
  if (options.tucker.validate_input) DT_RETURN_NOT_OK(ValidateFinite(x));
  DT_ASSIGN_OR_RETURN(
      ShardPlan plan,
      MakeShardPlan(TrailingVolume(x.shape()), comm->size(), comm->rank()));
  const SliceApproximationOptions approx_opts =
      ApproxOptionsFor(options, std::min(x.dim(0), x.dim(1)));

  Timer approx_timer;
  Result<std::vector<SliceSvd>> slices = [&] {
    DT_TRACE_SPAN("dtucker.approximation");
    return ApproximateSliceRange(x, plan.slice_begin, plan.NumLocalSlices(),
                                 approx_opts);
  }();
  DT_ASSIGN_OR_RETURN(
      SliceApproximation local,
      FinishLocalApproximation(std::move(slices), plan, x.shape(),
                               approx_opts.slice_rank, comm));
  GlobalPhaseTimer().Add("dtucker.approximation", approx_timer.Seconds());
  if (stats != nullptr) stats->preprocess_seconds = approx_timer.Seconds();

  return ShardedDTuckerFromLocalApproximation(local, x.shape(), plan, options,
                                              comm, stats);
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
  DT_ASSIGN_OR_RETURN(
      ShardPlan plan,
      MakeShardPlan(TrailingVolume(shape), comm->size(), comm->rank()));
  const SliceApproximationOptions approx_opts =
      ApproxOptionsFor(options, std::min(shape[0], shape[1]));

  Timer approx_timer;
  Result<std::vector<SliceSvd>> slices = [&] {
    DT_TRACE_SPAN("dtucker.approximation");
    return ApproximateSliceRangeFromFile(path, plan.slice_begin,
                                         plan.NumLocalSlices(), approx_opts);
  }();
  DT_ASSIGN_OR_RETURN(
      SliceApproximation local,
      FinishLocalApproximation(std::move(slices), plan, shape,
                               approx_opts.slice_rank, comm));
  GlobalPhaseTimer().Add("dtucker.approximation", approx_timer.Seconds());
  if (stats != nullptr) stats->preprocess_seconds = approx_timer.Seconds();

  return ShardedDTuckerFromLocalApproximation(local, shape, plan, options,
                                              comm, stats);
}

namespace {

// Restores the process-wide pool partition count on scope exit.
class PoolPartitionGuard {
 public:
  explicit PoolPartitionGuard(int partitions) : previous_(PoolPartitions()) {
    SetPoolPartitions(partitions);
  }
  ~PoolPartitionGuard() { SetPoolPartitions(previous_); }
  PoolPartitionGuard(const PoolPartitionGuard&) = delete;
  PoolPartitionGuard& operator=(const PoolPartitionGuard&) = delete;

 private:
  int previous_;
};

// Spawns one thread per rank, runs `rank_fn` on each, and returns rank 0's
// result (all ranks finish identically). Communicators are built on the
// requested transport *serially in the driver thread* before any rank
// thread starts — rank 0 first, because the shm segment must exist before
// a peer maps it (the peers' bounded setup poll would also work, but
// serial creation makes setup failures synchronous errors here). The
// shared BLAS pool is partitioned across the ranks for the duration, and
// the approximation-phase worker budget is split evenly.
Result<TuckerDecomposition> RunInProcessRanks(
    const ShardedDTuckerOptions& options,
    const std::function<Result<TuckerDecomposition>(
        const DTuckerOptions&, Communicator*, TuckerStats*)>& rank_fn,
    TuckerStats* stats) {
  const int num_ranks = options.num_ranks;
  // Distinguishes concurrent/successive runs sharing one process when the
  // caller did not pin a rendezvous name.
  static std::atomic<int> run_counter{0};
  std::shared_ptr<InProcessGroup> group;
  std::vector<std::unique_ptr<Communicator>> owned;
  std::vector<Communicator*> comms(static_cast<std::size_t>(num_ranks),
                                   nullptr);
  std::string scratch = options.comm_scratch;
  bool remove_scratch_dir = false;
  switch (options.transport) {
    case CommTransport::kInProcess:
      group = InProcessGroup::Create(num_ranks);
      for (int r = 0; r < num_ranks; ++r) {
        comms[static_cast<std::size_t>(r)] = group->comm(r);
      }
      break;
    case CommTransport::kFile: {
      if (scratch.empty()) {
        scratch = "/tmp/dtucker_comm_" + std::to_string(getpid()) + "_" +
                  std::to_string(run_counter.fetch_add(1));
        remove_scratch_dir = true;
      }
      for (int r = 0; r < num_ranks; ++r) {
        DT_ASSIGN_OR_RETURN(std::unique_ptr<Communicator> c,
                            CreateFileCommunicator(scratch, r, num_ranks));
        comms[static_cast<std::size_t>(r)] = c.get();
        owned.push_back(std::move(c));
      }
      break;
    }
    case CommTransport::kShm: {
      if (scratch.empty()) {
        scratch = "/dtucker-" + std::to_string(getpid()) + "-" +
                  std::to_string(run_counter.fetch_add(1));
      }
      for (int r = 0; r < num_ranks; ++r) {
        DT_ASSIGN_OR_RETURN(std::unique_ptr<Communicator> c,
                            CreateShmCommunicator(scratch, r, num_ranks));
        comms[static_cast<std::size_t>(r)] = c.get();
        owned.push_back(std::move(c));
      }
      break;
    }
  }
  PoolPartitionGuard partition_guard(num_ranks);

  // All rank threads of one run share a flow-id namespace: collective
  // call k on every rank carries the same flow id, which is what binds
  // the rank-local spans into one cross-rank flow arrow in the merged
  // trace. The counter keeps concurrent/successive runs in one process
  // from colliding.
  const std::uint64_t flow_group =
      static_cast<std::uint64_t>(run_counter.fetch_add(1)) + 1;

  std::vector<std::unique_ptr<Result<TuckerDecomposition>>> results(
      static_cast<std::size_t>(num_ranks));
  std::vector<TuckerStats> rank_stats(static_cast<std::size_t>(num_ranks));
  auto run_rank = [&](int r) {
    // Each rank thread's spans export under pid == r (its own Perfetto
    // lane). Shared pool workers stay on the default (rank 0) lane.
    SetTraceRankForCurrentThread(r);
    DTuckerOptions rank_options = options.dtucker;
    if (r != 0) rank_options.sweep_callback = nullptr;
    rank_options.num_threads =
        std::max(1, options.dtucker.num_threads / num_ranks);
    Communicator* comm = comms[static_cast<std::size_t>(r)];
    comm->set_timeout_seconds(options.comm_timeout_seconds);
    comm->set_trace_flow_group(flow_group);
    results[static_cast<std::size_t>(r)] =
        std::make_unique<Result<TuckerDecomposition>>(rank_fn(
            rank_options, comm, &rank_stats[static_cast<std::size_t>(r)]));
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks - 1));
  for (int r = 1; r < num_ranks; ++r) {
    threads.emplace_back(run_rank, r);
  }
  run_rank(0);
  for (std::thread& t : threads) t.join();

  // Auto-generated rendezvous state is this function's to clean up: the
  // communicators first (rank 0's shm destructor unlinks the segment),
  // then the file transport's scratch directory, best-effort. A
  // caller-pinned scratch is the caller's to remove.
  owned.clear();
  if (remove_scratch_dir) {
    std::error_code ec;
    std::filesystem::remove_all(scratch, ec);
  }

  // Rank 0 speaks for the group; a peer-only failure (possible only on an
  // asymmetric transport fault) still surfaces as an error.
  for (int r = 1; r < num_ranks; ++r) {
    const Result<TuckerDecomposition>& peer =
        *results[static_cast<std::size_t>(r)];
    if (!peer.ok() && results[0]->ok()) return peer.status();
  }
  if (stats != nullptr) *stats = rank_stats[0];
  return std::move(*results[0]);
}

}  // namespace

Result<TuckerDecomposition> ShardedDTucker(const Tensor& x,
                                           const ShardedDTuckerOptions& options,
                                           TuckerStats* stats) {
  DT_RETURN_NOT_OK(options.Validate(x.shape()));
  return RunInProcessRanks(
      options,
      [&x](const DTuckerOptions& opt, Communicator* comm, TuckerStats* st) {
        return ShardedDTuckerRank(x, opt, comm, st);
      },
      stats);
}

Result<TuckerDecomposition> ShardedDTuckerFromFile(
    const std::string& path, const ShardedDTuckerOptions& options,
    TuckerStats* stats) {
  std::vector<Index> shape;
  {
    DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
    shape = reader.shape();
  }
  DT_RETURN_NOT_OK(options.Validate(shape));
  return RunInProcessRanks(
      options,
      [&path](const DTuckerOptions& opt, Communicator* comm, TuckerStats* st) {
        return ShardedDTuckerRankFromFile(path, opt, comm, st);
      },
      stats);
}

}  // namespace dtucker
