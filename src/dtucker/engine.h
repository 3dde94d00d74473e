// Engine: the one-stop execution facade over every Tucker solver in the
// repository.
//
// It bundles the pieces a production caller otherwise wires by hand —
// solver selection (baselines/registry.h), options validation, an owned
// RunContext for cooperative cancellation/deadlines, BLAS thread setup,
// and telemetry publication — behind three entry points:
//
//   Engine engine(options);
//   auto run = engine.Solve(x);                  // any method, in-memory
//   auto run = engine.SolveFile(path);           // D-Tucker, out-of-core
//   auto run = engine.SolveApproximation(ap);    // D-Tucker, query phase
//
// Graceful degradation: when the attached RunContext trips mid-iteration,
// the solver returns its best-so-far decomposition and the EngineRun comes
// back with `status` holding kCancelled/kDeadlineExceeded (the Result
// itself is OK — there *is* a usable value). Interruptions before any
// usable state exists (e.g. during the approximation phase) surface as an
// error Result instead.
#ifndef DTUCKER_DTUCKER_ENGINE_H_
#define DTUCKER_DTUCKER_ENGINE_H_

#include <string>

#include "baselines/registry.h"
#include "common/run_context.h"
#include "common/status.h"
#include "dtucker/dtucker.h"
#include "dtucker/out_of_core.h"
#include "tucker/tucker.h"

namespace dtucker {

struct EngineOptions {
  // Which solver Solve() dispatches to. SolveFile/SolveApproximation are
  // D-Tucker-specific and require kDTucker.
  TuckerMethod method = TuckerMethod::kDTucker;
  // Shared + per-method knobs. `method_options.tucker.run_context` is
  // overwritten on every solve with the effective context — the engine's
  // own, or the per-call override passed to Solve/SolveFile/
  // SolveApproximation.
  MethodOptions method_options;
  // When > 0, the process-wide BLAS width is set to this before solving
  // (linalg/blas.h SetBlasThreads). 0 leaves the current setting alone.
  int blas_threads = 0;
  // When >= 1, D-Tucker runs with num_threads = num_ranks (dtucker.h) in
  // place of method_options.num_threads; 0 (default) leaves num_threads
  // alone. Either way the result bits are the same; requires
  // method == kDTucker and num_ranks <= L.
  int num_ranks = 0;
  // Measure the true reconstruction error after Solve() (O(volume); turn
  // off for pure-timing runs). File/approximation paths always report the
  // compressed-form error from the sweep telemetry instead.
  bool measure_error = true;

  Status Validate(const std::vector<Index>& shape) const;
};

struct EngineRun {
  TuckerDecomposition decomposition;
  TuckerStats stats;
  // OK for a full run; kCancelled/kDeadlineExceeded when the run was
  // interrupted and `decomposition` is the (valid) best-so-far state.
  Status status;
  // Relative squared reconstruction error (see EngineOptions::measure_error
  // for which reference tensor).
  double relative_error = 0.0;
  std::size_t stored_bytes = 0;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  // Not copyable (owns the RunContext the solvers poll); not movable either
  // so the context address stays stable for any thread holding it.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const EngineOptions& options() const { return options_; }

  // The owned execution-control context, shared by every solve. Safe to
  // poke from any thread while a solve runs on another.
  RunContext& context() { return ctx_; }
  void RequestCancel() { ctx_.RequestCancel(); }
  void SetDeadlineAfter(double seconds) { ctx_.SetDeadlineAfter(seconds); }
  void ClearDeadline() { ctx_.ClearDeadline(); }

  // Runs options().method on an in-memory tensor.
  //
  // Every entry point has a second form taking an explicit per-call
  // RunContext that overrides the engine-owned context for that solve
  // (nullptr falls back to the owned one). A long-lived engine can then be
  // shared across a sequence of jobs that each bring their own
  // deadline/cancellation — the serving layer's per-job contexts — without
  // the deadline of one job leaking into the next through engine state.
  // The caller owns the override context and must keep it alive for the
  // duration of the call; RequestCancel()/SetDeadlineAfter() on the engine
  // do NOT reach a solve running under an override (poke the override
  // context instead).
  Result<EngineRun> Solve(const Tensor& x) { return Solve(x, nullptr); }
  Result<EngineRun> Solve(const Tensor& x, const RunContext* ctx);

  // Out-of-core D-Tucker on a DTNSR001 file (requires method == kDTucker).
  // Transient read faults are retried under the effective context's
  // io_retry policy.
  Result<EngineRun> SolveFile(const std::string& path) {
    return SolveFile(path, nullptr);
  }
  Result<EngineRun> SolveFile(const std::string& path, const RunContext* ctx);

  // D-Tucker query phase on an existing compressed tensor (requires
  // method == kDTucker).
  Result<EngineRun> SolveApproximation(const SliceApproximation& approx) {
    return SolveApproximation(approx, nullptr);
  }
  Result<EngineRun> SolveApproximation(const SliceApproximation& approx,
                                       const RunContext* ctx);

 private:
  // Folds the solver-reported completion code into run->status and
  // publishes the per-sweep telemetry metrics.
  void FinishRun(EngineRun* run) const;
  // The context a solve actually polls: the per-call override when given,
  // otherwise the engine-owned one.
  const RunContext* EffectiveContext(const RunContext* override_ctx) const {
    return override_ctx != nullptr ? override_ctx : &ctx_;
  }
  // The method options a solve runs with: the effective context, and
  // num_threads = num_ranks when that is set.
  MethodOptions RunMethodOptions(const RunContext* ctx) const;
  DTuckerOptions DTuckerOptionsFromMethod(const RunContext* ctx) const;
  Status RequireDTucker(const char* entry) const;
  void ApplyBlasThreads() const;

  EngineOptions options_;
  RunContext ctx_;
};

}  // namespace dtucker

#endif  // DTUCKER_DTUCKER_ENGINE_H_
