// Tucker decomposition result type and shared utilities.
#ifndef DTUCKER_TUCKER_TUCKER_H_
#define DTUCKER_TUCKER_TUCKER_H_

#include <cstdint>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "tensor/tensor.h"

namespace dtucker {

// X ~= core x_1 factors[0] x_2 factors[1] ... x_N factors[N-1], with
// factors[n] of shape I_n x J_n (column-orthogonal) and core of shape
// J_1 x ... x J_N.
struct TuckerDecomposition {
  Tensor core;
  std::vector<Matrix> factors;

  Index order() const { return static_cast<Index>(factors.size()); }

  // Tucker ranks (J_1, ..., J_N).
  std::vector<Index> Ranks() const;

  // Structural consistency: at least one factor, core order matching the
  // factor count, every factor non-empty with column count equal to the
  // corresponding core dimension. Checked at the API boundaries that accept
  // externally produced decompositions (file loads, rounding, partial
  // reconstruction) so malformed input reports an error instead of
  // tripping internal invariant checks.
  Status Validate() const;

  // Dense reconstruction core x_1 A1 ... x_N AN. O(prod I_n * J) time.
  Tensor Reconstruct() const;

  // Relative squared reconstruction error against `x`:
  // ||X - X^||_F^2 / ||X||_F^2.
  double RelativeErrorAgainst(const Tensor& x) const;

  // Logical bytes of core + factors (the space the paper's Q2/E3
  // experiment charges a method for its outputs).
  std::size_t ByteSize() const;
};

// Shared knobs for every Tucker solver in this project.
struct TuckerOptions {
  std::vector<Index> ranks;  // One per mode; required.
  int max_iterations = 100;  // Paper default (Appendix C style).
  // Stop when the change of relative error between sweeps drops below this.
  double tolerance = 1e-4;
  uint64_t seed = 42;  // For randomized components.
  // When true, Tucker-ALS rejects inputs containing NaN/Inf with
  // InvalidArgument instead of silently propagating them (one O(size)
  // scan; off by default to keep timing benchmarks clean). D-Tucker
  // ignores it: its slice compressor always rejects a non-finite slice, in
  // the pass that already measures each slice's magnitude.
  bool validate_input = false;
  // Optional execution control (caller-owned, must outlive the solve).
  // When set, the solver polls it at bounded-work checkpoints and honors
  // cancellation/deadline with graceful degradation: iterative solvers
  // return the state of the last completed sweep with
  // TuckerStats::completion recording the interruption; one-shot phases
  // that have no intermediate state report the interruption as an error
  // Status instead. See common/run_context.h and DESIGN.md §10.
  const RunContext* run_context = nullptr;
};

// Convergence telemetry for one ALS/HOOI sweep. Solvers that support it
// append one record per sweep to TuckerStats::sweep_history and invoke the
// caller's SweepCallback (DTuckerOptions) with it as the sweep finishes.
struct SweepTelemetry {
  int sweep = 0;                // 1-based sweep number.
  double fit = 0;               // 1 - sqrt(relative squared error).
  double delta_fit = 0;         // fit - previous sweep's fit (0 on sweep 1).
  double relative_error = 0;    // Same quantity as error_history.
  double seconds = 0;           // Wall time of this sweep.
  // Subspace/eigen iterations the factor updates spent this sweep (delta of
  // the global "eig.subspace_sweeps" counter; includes concurrent users).
  std::uint64_t subspace_iterations = 0;
};

// Per-run diagnostics filled in by the solvers.
struct TuckerStats {
  // How the run ended: kOk for a natural finish (convergence or iteration
  // budget), kCancelled/kDeadlineExceeded when a RunContext interrupted it
  // and the returned decomposition is the best-so-far partial result.
  StatusCode completion = StatusCode::kOk;
  // Checkpoint that observed the interruption (e.g. "iteration.sweep" or
  // "initialization"); empty on natural completion.
  std::string completion_detail;
  int iterations = 0;
  std::vector<double> error_history;  // Relative error after each sweep.
  std::vector<SweepTelemetry> sweep_history;  // One entry per sweep.
  double preprocess_seconds = 0;      // Approximation/sketching phase.
  double init_seconds = 0;            // Initialization phase.
  double iterate_seconds = 0;         // ALS sweeps.
  double TotalSeconds() const {
    return preprocess_seconds + init_seconds + iterate_seconds;
  }
  // Peak logical working-set bytes beyond the input tensor itself.
  std::size_t working_bytes = 0;
};

// Fast relative error when factors are column-orthogonal and `core` is the
// exact projection: ||X - X^||^2 = ||X||^2 - ||G||^2.
double OrthogonalTuckerRelativeError(double x_squared_norm,
                                     double core_squared_norm);

// Publishes `stats.sweep_history` into the global metrics registry as
// gauges ("dtucker.sweep<NN>.fit", ".delta_fit", ".seconds",
// ".subspace_iterations"), so a --metrics-out snapshot carries the
// convergence trajectory alongside the counters.
//
// The per-sweep gauge namespace is bounded: sweep t lands in slot
// ((t - 1) % K) + 1 where K is the rolling window (default 64,
// SetSweepMetricsWindow). Runs within the window keep the identity
// mapping sweep t -> "dtucker.sweep<t>"; longer runs wrap, so at most
// 4*K sweep gauges ever exist while the cumulative totals
// ("dtucker.sweeps.count", ".total_seconds", ".total_subspace_iterations")
// still cover every sweep. Idempotent: the gauges and totals are Set, not
// accumulated, so re-publishing the same history is a no-op.
void RecordSweepMetrics(const TuckerStats& stats);

// Resizes the rolling sweep-gauge window (clamped to >= 1). Process-wide;
// intended for tests and long-running services that want a tighter bound.
void SetSweepMetricsWindow(int window);

}  // namespace dtucker

#endif  // DTUCKER_TUCKER_TUCKER_H_
