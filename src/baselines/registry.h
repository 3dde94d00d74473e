// Uniform interface over every Tucker method in the repository, used by
// the experiment harnesses and examples to sweep "method x dataset" grids.
#ifndef DTUCKER_BASELINES_REGISTRY_H_
#define DTUCKER_BASELINES_REGISTRY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "tucker/tucker.h"

namespace dtucker {

enum class TuckerMethod {
  kDTucker,      // The paper's contribution.
  kTuckerAls,    // HOOI reference.
  kHosvd,        // One-shot HOSVD.
  kStHosvd,      // One-shot ST-HOSVD.
  kMach,         // Element sampling + sparse HOOI.
  kRtd,          // Randomized ST-HOSVD (Che & Wei).
  kTuckerTs,     // TensorSketch least-squares ALS.
  kTuckerTtmts,  // TensorSketch TTM ALS.
};

// All methods, in the order the paper-style tables list them.
const std::vector<TuckerMethod>& AllTuckerMethods();

const char* TuckerMethodName(TuckerMethod method);

// Parses a method name (as printed by TuckerMethodName, case-sensitive).
Result<TuckerMethod> ParseTuckerMethod(const std::string& name);

// Knobs shared across methods plus the per-method extras. Composition,
// mirroring DTuckerOptions: `tucker` holds the every-solver surface
// (ranks, iteration budget, tolerance, seed, validation, run_context).
struct MethodOptions {
  TuckerOptions tucker;
  // Worker threads for methods that support them (D-Tucker's approximation
  // phase). GEMM-level threading everywhere else is controlled by the
  // process-wide SetBlasThreads (linalg/blas.h), which callers set
  // separately.
  int num_threads = 1;
  // D-Tucker / RTD.
  Index oversampling = 5;
  int power_iterations = 1;
  // MACH.
  double mach_sample_rate = 0.1;
  // Tucker-ts / ttmts.
  double sketch_factor = 4.0;
  // Per-sweep convergence reporting for methods that support it (currently
  // D-Tucker); see DTuckerOptions::sweep_callback.
  std::function<void(const SweepTelemetry&)> sweep_callback;

  Status Validate(const std::vector<Index>& shape) const;
};

struct MethodRun {
  TuckerDecomposition decomposition;
  TuckerStats stats;
  // True relative squared reconstruction error against the input.
  double relative_error = 0.0;
  // Logical bytes of what the method must keep to answer: for
  // preprocessing methods, the compressed representation; for from-scratch
  // methods, the input tensor itself.
  std::size_t stored_bytes = 0;
};

// Runs `method` on `x`, measuring time, error, and storage.
// `measure_error` can be disabled for pure-timing sweeps (reconstruction
// is O(volume) and can dominate).
Result<MethodRun> RunTuckerMethod(TuckerMethod method, const Tensor& x,
                                  const MethodOptions& options,
                                  bool measure_error = true);

}  // namespace dtucker

#endif  // DTUCKER_BASELINES_REGISTRY_H_
