// D-Tucker: fast and memory-efficient Tucker decomposition for dense
// tensors (Jang & Kang, ICDE 2020) — the primary contribution of this
// repository.
//
// Three phases:
//   1. Approximation  — rank-Js randomized SVD of every I1 x I2 frontal
//                       slice (src/dtucker/slice_approximation.h). The only
//                       pass over the raw tensor.
//   2. Initialization — factor matrices computed from the slice factors:
//                       A(1) from the stacked U<l>S<l>, A(2) from the
//                       stacked V<l>S<l>, modes >= 3 from the projected
//                       small tensor Z(:,:,l) = A(1)^T X<l> A(2).
//   3. Iteration      — HOOI sweeps whose contractions are decoupled slice
//                       by slice so each update costs O((I1+I2) L Js J)
//                       instead of O(J prod I_n).
#ifndef DTUCKER_DTUCKER_DTUCKER_H_
#define DTUCKER_DTUCKER_DTUCKER_H_

#include <functional>

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
  Index oversampling = 5;    // rSVD oversampling in the approximation phase.
  int power_iterations = 1;  // rSVD power iterations.
  // If true, modes are permuted so the two largest lead (the layout the
  // slice compression wants) and results are permuted back.
  bool auto_reorder = false;
  // Worker threads for the approximation phase (see
  // SliceApproximationOptions::num_threads). The initialization and
  // iteration phases thread through the process-wide BLAS pool instead —
  // set SetBlasThreads (linalg/blas.h) to parallelize them.
  int num_threads = 1;

  // Sharded path only (dtucker/sharded_dtucker.h); the unsharded solver
  // ignores it. When true (default), the iteration phase's trailing-mode
  // factor updates and core refresh run sharded over the rank's own Z
  // slab (small-side Grams + carrier slabs reduced through the canonical
  // chunk tree) instead of replicated on a gathered Z — same fixed
  // reduction shape, so results stay bitwise identical across power-of-two
  // rank counts, but the bits differ from the replicated variant. False
  // restores the replicated trailing updates (the PR 6 behavior), kept as
  // the benchmark baseline.
  bool shard_trailing_updates = true;

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

// Deprecated spelling kept for one release while callers migrate to the
// composed DTuckerOptions (options.tucker.* for the shared knobs).
using LegacyDTuckerOptions [[deprecated("use DTuckerOptions")]] =
    DTuckerOptions;

// End-to-end D-Tucker: approximation + initialization + iteration.
Result<TuckerDecomposition> DTucker(const Tensor& x,
                                    const DTuckerOptions& options,
                                    TuckerStats* stats = nullptr);

// Initialization + iteration on an already-compressed tensor. This is the
// "query" entry point when the approximation is computed once and reused
// (e.g. for several target ranks, or by the online variant).
Result<TuckerDecomposition> DTuckerFromApproximation(
    const SliceApproximation& approx, const DTuckerOptions& options,
    TuckerStats* stats = nullptr);

// Initialization phase only (no HOOI sweeps) — used by ablation E8 and as
// a cheap one-shot decomposition.
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

// Reusable buffers threaded through repeated DTuckerSweep calls so
// steady-state iterations stop churning the allocator: the carrier and
// projected-core builders resize these in place (vector capacity is
// retained across iterations) and the trailing TTM chain ping-pongs
// between ttm_a and ttm_b.
struct SweepWorkspace {
  Tensor carrier;  // Mode-1/2 carrier target (T1, then T2).
  Tensor z;        // Projected tensor Z.
  Tensor ttm_a;    // Trailing-contraction ping-pong buffers.
  Tensor ttm_b;
  // Per-mode warm-start bases for the factor updates' subspace iterations
  // (see TopEigenvectorsSym). Carried across sweeps: HOOI operands move
  // slowly, so each update restarts from the previous sweep's converged
  // subspace and needs only the couple of iterations the Ritz check takes.
  std::vector<Matrix> subspace;
};

// The small projected tensor Z (J1 x J2 x I3 x ... x IN) with frontal
// slices (A1^T U<l> S<l>) (V<l>^T A2). Exposed for the online variant and
// white-box tests.
Tensor BuildProjectedCore(const SliceApproximation& approx, const Matrix& a1,
                          const Matrix& a2);

// Workspace variant of BuildProjectedCore: writes Z into *z (resized in
// place), parallelized across the L slices on the shared BLAS pool (each
// slice writes a disjoint frontal slab; per-slice temporaries live in TLS
// grow-only scratch). `s_inv` rescales the slice singular values on the fly
// (see the scale normalization in dtucker.cc); pass 1.0 for unscaled.
void BuildProjectedCoreInto(const SliceApproximation& approx, const Matrix& a1,
                            const Matrix& a2, double s_inv, Tensor* z);

// Carrier builders, same slice-parallel contract as BuildProjectedCoreInto:
// T1 (I1 x J2 x trailing) with slices (U<l> S<l>) (V<l>^T A2), and
// T2 (I2 x J1 x trailing) with slices V<l> (S<l> U<l>^T A1) — T2 is stored
// mode-1-first so the mode-2 factor update is a mode-0 problem on it (its
// flat buffer is the unfolding), unlocking the small-side Gram path.
void BuildModeOneCarrierInto(const SliceApproximation& approx, const Matrix& a2,
                             double s_inv, Tensor* t);
void BuildModeTwoCarrierInto(const SliceApproximation& approx, const Matrix& a1,
                             double s_inv, Tensor* t);

// gram (+)= F diag(s * s_inv)^2 F^T for F = slice U (m == 0) or V (m == 1),
// staging the scaled factor in TLS scratch instead of allocating
// UTimesS()/VTimesS() copies. `beta` 0 overwrites the accumulator, 1 adds.
void AccumulateScaledFactorGram(const SliceSvd& sl, int m, double s_inv,
                                double beta, Matrix* gram);

// Contracts trailing modes (2..N-1, optionally skipping one) of `t` with
// factors[n]^T, visiting modes in decreasing dim->rank shrinkage order so
// the working tensor shrinks as fast as possible, ping-ponging through the
// workspace ttm buffers. Returns where the result lives: `&t` itself when
// no mode was contracted, otherwise &ws->ttm_a or &ws->ttm_b.
const Tensor* ContractTrailing(const Tensor& t,
                               const std::vector<Matrix>& factors,
                               Index skip_mode, SweepWorkspace* ws);

// One HOOI sweep over the slice structure (mode 1, mode 2, trailing modes,
// core refresh). `factors` must hold one column-orthogonal matrix per mode
// with row counts matching approx.shape. `ctx` (optional) is polled before
// each mode update; on interruption the sweep returns false immediately
// and *factors/*core are left mid-update (the caller restores its
// pre-sweep snapshot — see DTuckerFromApproximation). Returns true when
// the sweep ran to completion.
bool DTuckerSweep(const SliceApproximation& approx,
                  const std::vector<Index>& ranks,
                  std::vector<Matrix>* factors, Tensor* core,
                  SweepWorkspace* workspace, double s_inv = 1.0,
                  const RunContext* ctx = nullptr);

// Convenience overload with a transient workspace (white-box tests).
bool DTuckerSweep(const SliceApproximation& approx,
                  const std::vector<Index>& ranks,
                  std::vector<Matrix>* factors, Tensor* core);

}  // namespace internal_dtucker

}  // namespace dtucker

#endif  // DTUCKER_DTUCKER_DTUCKER_H_
