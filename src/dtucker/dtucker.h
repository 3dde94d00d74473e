// D-Tucker: fast and memory-efficient Tucker decomposition for dense
// tensors (Jang & Kang, ICDE 2020) — the primary contribution of this
// repository.
//
// Three phases, each over the L frontal slices:
//   1. Approximation  — rank-Js randomized SVD of every I1 x I2 frontal
//                       slice (src/dtucker/slice_approximation.h). The only
//                       pass over the raw tensor; a file input is streamed,
//                       one reader per chunk of slices.
//   2. Initialization — A(1) and A(2) from a randomized range finder over
//                       the stacked scaled slice factors U<l>S<l> and
//                       V<l>S<l>, whose n x s sketch products sum
//                       per-slice contributions; modes >= 3 from the
//                       projected small tensor Z(:,:,l) = A(1)^T X<l> A(2).
//   3. Iteration      — HOOI sweeps whose mode-1/2 contractions are
//                       decoupled slice by slice so each update costs
//                       O((I1+I2) L Js J) instead of O(J prod I_n); the
//                       trailing factors and the core come from Z.
//
// Threading: every slice pass is one fork-join over the fixed chunk grid
// of comm/sharding.h (RunChunks), on min(num_threads, C) threads that
// split the SetBlasThreads width. The small dense work between passes —
// the eigensolves, the trailing contractions, the core — runs once, from
// the calling thread, with the whole width (RunBlasTiles,
// linalg/gemm_kernel.h).
//
// Determinism: every floating-point sum over slices follows the chunk
// grid — fixed chunks, serial accumulation within a chunk, one fixed
// pairwise tree over the chunk partials (ReduceOverChunks).
// Everything else is per-slice work written to its own place, or
// deterministic compute on the calling thread, so plain calls, Engine and
// every thread count give one bitwise result.
//
// Execution control: the run context (options.tucker.run_context) is
// checked at fixed sweep and mode boundaries. An interruption after the
// initialization returns the last completed sweep, rolled back if it came
// mid-sweep; one before it is an error.
#ifndef DTUCKER_DTUCKER_DTUCKER_H_
#define DTUCKER_DTUCKER_DTUCKER_H_

#include <cstdint>
#include <functional>
#include <span>

#include "common/status.h"
#include "dtucker/slice_approximation.h"
#include "tucker/rank_estimation.h"
#include "tucker/tucker.h"

namespace dtucker {

struct DTuckerOptions {
  // Shared solver knobs (ranks, iteration budget, tolerance, seed, input
  // validation, execution control). Composition, not inheritance: the
  // shared surface is one named field instead of a base class, so the
  // boundary between "every solver" and "D-Tucker" knobs is explicit.
  TuckerOptions tucker;

  // Rank Js of the per-slice SVDs. 0 means "max of the first two Tucker
  // ranks", the paper's setting.
  Index slice_rank = 0;
  // Oversampling p and power iterations q of the paper's two randomized
  // SVDs, which share them: the per-slice rSVDs of the approximation phase
  // and the initialization's range finder over the stacked slice factors
  // (sketch width min(I_n, J_n + p) for modes 1 and 2).
  Index oversampling = 5;
  int power_iterations = 1;
  // If true, DTucker permutes the modes so the two largest lead (the
  // layout the slice compression wants) before the solve starts, and
  // permutes the result back. Compressed and file inputs keep their
  // stored mode order.
  bool auto_reorder = false;
  // Threads for every slice pass: min(num_threads, C) threads work
  // through the C = min(8, L) fixed slice chunks, each with one share of
  // the BLAS width (comm/sharding.h). The result is bitwise identical for
  // every value.
  int num_threads = 1;

  // Invoked after each HOOI sweep with that sweep's convergence telemetry
  // (fit, delta-fit, wall time, subspace-iteration count). Runs on the
  // calling thread between sweeps, so a slow callback slows the solve;
  // leave empty for no per-sweep reporting. The same records are always
  // collected into TuckerStats::sweep_history when stats are requested.
  std::function<void(const SweepTelemetry&)> sweep_callback;

  // Whole-surface validation against the input shape — the one place every
  // entry point rejects bad arguments (replaces the scattered per-phase
  // checks). Returns OK or a descriptive InvalidArgument.
  Status Validate(const std::vector<Index>& shape) const;

  Index EffectiveSliceRank() const {
    if (slice_rank > 0) return slice_rank;
    return std::max(tucker.ranks[0], tucker.ranks[1]);
  }
};

// End-to-end D-Tucker: approximation + initialization + iteration.
Result<TuckerDecomposition> DTucker(const Tensor& x,
                                    const DTuckerOptions& options,
                                    TuckerStats* stats = nullptr);

// Initialization + iteration on an already-compressed tensor. This is the
// "query" entry point when the approximation is computed once and reused
// (e.g. for several target ranks, or by the online variant). The slices
// of `approx` are read in place.
Result<TuckerDecomposition> DTuckerFromApproximation(
    const SliceApproximation& approx, const DTuckerOptions& options,
    TuckerStats* stats = nullptr);

// Initialization phase only (DTuckerFromApproximation with no HOOI
// sweeps) — used by ablation E8 and as a cheap one-shot decomposition.
Result<TuckerDecomposition> DTuckerInitializeOnly(
    const SliceApproximation& approx, const DTuckerOptions& options);

// Suggests Tucker ranks from the compressed form alone (no raw tensor):
// mode-1/2 spectra from the accumulated slice-factor Grams, trailing-mode
// spectra from the projected tensor Z built at `probe_rank` for the two
// leading modes. Same semantics as SuggestRanks (energy threshold in
// (0, 1], optional cap); energies are with respect to the *approximated*
// tensor.
Result<RankSuggestion> SuggestRanksFromApproximation(
    const SliceApproximation& approx, double energy_threshold,
    Index max_rank = 0);

namespace internal_dtucker {

// Reusable buffers threaded through a solve's sweeps so steady-state
// iterations stop churning the allocator: Z is resized in place (vector
// capacity is retained across iterations) and the trailing TTM chain
// ping-pongs between ttm_a and ttm_b.
struct SweepWorkspace {
  Tensor z;        // Projected tensor Z over every slice.
  Tensor ttm_a;    // Trailing-contraction ping-pong buffers.
  Tensor ttm_b;
  // Per-mode warm-start bases for the factor updates' subspace iterations
  // (see TopEigenvectorsSym). Carried across sweeps: HOOI operands move
  // slowly, so each update restarts from the previous sweep's converged
  // subspace and needs only the couple of iterations the Ritz check takes.
  std::vector<Matrix> subspace;
};

// Slice kernels of the initialization and iteration phases. Each runs
// serially over `slices` (one chunk's slices, read in place) and writes
// slice l's result into frontal slab l of its order-3 output; per-slice
// temporaries live in thread-local grow-only scratch, and `s_inv` rescales
// the singular values on the fly (1.0 for unscaled).
//
// Z (J1 x J2 x n, written to z[0, J1 * J2 * n)): slabs
// (A1^T U<l> S<l>) (V<l>^T A2).
void BuildProjectedCoreInto(std::span<const SliceSvd> slices,
                            const Matrix& a1, const Matrix& a2, double s_inv,
                            double* z);
// T1 (I1 x J2 x n): slabs (U<l> S<l>) (V<l>^T A2), I1 = the slices' rows.
void BuildModeOneCarrierInto(std::span<const SliceSvd> slices, Index i1,
                             const Matrix& a2, double s_inv, Tensor* t);
// T2 (I2 x J1 x n): slabs V<l> (S<l> U<l>^T A1). Stored mode-1-first (the
// transpose of the paper's J1 x I2 slabs) so the mode-2 factor update is a
// mode-0 problem whose unfolding is the flat buffer, which unlocks the
// small-side Gram path of LeadingModeVectorsViaGram.
void BuildModeTwoCarrierInto(std::span<const SliceSvd> slices, Index i2,
                             const Matrix& a1, double s_inv, Tensor* t);

// Kernels of the initialization's range finder for modes 1 and 2, over
// F<l> = slice U (m == 0) or V (m == 1), dim rows each.
//
// Writes F<l> diag(s<l> * s_inv) for every slice of `slices` side by side
// into `pack` (column-major, leading dimension dim), in slice order, so a
// run of slices is one contiguous dim x (summed slice ranks) matrix and
// each step of the range finder is one GEMM per chunk.
void PackScaledFactors(std::span<const SliceSvd> slices, int m, double s_inv,
                       double* pack);
// Writes the test matrices Omega<l> (Js<l> x width) of `slices`, global
// slice indices first_slice, first_slice + 1, ..., into `omega_t` as
// their transposes side by side (width x summed slice ranks, column-major),
// matching PackScaledFactors' columns. Omega<l> is drawn by
// FillSketchGaussian from a seed that depends only on (seed, m, l), so it
// is the same whichever chunk or thread draws it.
void FillInitSketch(std::span<const SliceSvd> slices, Index first_slice,
                    int m, std::uint64_t seed, Index width, double* omega_t);

// Contracts trailing modes (2..N-1, optionally skipping one) of `t` with
// factors[n]^T, visiting modes in decreasing dim->rank shrinkage order so
// the working tensor shrinks as fast as possible, ping-ponging through the
// workspace ttm buffers. Returns where the result lives: `&t` itself when
// no mode was contracted, otherwise &ws->ttm_a or &ws->ttm_b.
const Tensor* ContractTrailing(const Tensor& t,
                               const std::vector<Matrix>& factors,
                               Index skip_mode, SweepWorkspace* ws);

// DTuckerOptions::auto_reorder for the tensor entry points: runs
// `solve` on `x` with its two largest modes permuted to the front (ranks
// permuted alike, auto_reorder cleared), and permutes the result back.
// Without auto_reorder, or when the modes already lead, runs `solve` on
// `x` itself.
Result<TuckerDecomposition> SolveReordered(
    const Tensor& x, const DTuckerOptions& options,
    const std::function<Result<TuckerDecomposition>(
        const Tensor&, const DTuckerOptions&)>& solve);

}  // namespace internal_dtucker

}  // namespace dtucker

#endif  // DTUCKER_DTUCKER_DTUCKER_H_
