#include "dtucker/engine.h"

#include <utility>

#include "data/tensor_file.h"
#include "linalg/blas.h"

namespace dtucker {

Status EngineOptions::Validate(const std::vector<Index>& shape) const {
  DT_RETURN_NOT_OK(method_options.Validate(shape));
  if (blas_threads < 0) {
    return Status::InvalidArgument("blas_threads must be non-negative");
  }
  if (num_ranks < 0) {
    return Status::InvalidArgument("num_ranks must be non-negative");
  }
  if (num_ranks > 0 && method != TuckerMethod::kDTucker) {
    return Status::InvalidArgument(
        "num_ranks requires method == dtucker");
  }
  if (num_ranks > 0) {
    Index l = 1;
    for (std::size_t n = 2; n < shape.size(); ++n) l *= shape[n];
    if (static_cast<Index>(num_ranks) > l) {
      return Status::InvalidArgument(
          "num_ranks (" + std::to_string(num_ranks) +
          ") exceeds the slice count L=" + std::to_string(l) +
          "; reduce num_ranks to at most the trailing-mode volume");
    }
  }
  return Status::OK();
}

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}

void Engine::ApplyBlasThreads() const {
  if (options_.blas_threads > 0) SetBlasThreads(options_.blas_threads);
}

Status Engine::RequireDTucker(const char* entry) const {
  if (options_.method != TuckerMethod::kDTucker) {
    return Status::InvalidArgument(
        std::string(entry) + " is D-Tucker-specific; options().method is " +
        TuckerMethodName(options_.method));
  }
  return Status::OK();
}

MethodOptions Engine::RunMethodOptions(const RunContext* ctx) const {
  MethodOptions opts = options_.method_options;
  opts.tucker.run_context = ctx;
  if (options_.num_ranks > 0) opts.num_threads = options_.num_ranks;
  return opts;
}

DTuckerOptions Engine::DTuckerOptionsFromMethod(const RunContext* ctx) const {
  const MethodOptions opts = RunMethodOptions(ctx);
  DTuckerOptions opt;
  opt.tucker = opts.tucker;
  opt.oversampling = opts.oversampling;
  opt.power_iterations = opts.power_iterations;
  opt.num_threads = opts.num_threads;
  opt.sweep_callback = opts.sweep_callback;
  return opt;
}

void Engine::FinishRun(EngineRun* run) const {
  if (run->stats.completion != StatusCode::kOk) {
    run->status = Status(run->stats.completion,
                         run->stats.completion_detail.empty()
                             ? "run interrupted"
                             : run->stats.completion_detail);
  }
  RecordSweepMetrics(run->stats);
}

Result<EngineRun> Engine::Solve(const Tensor& x, const RunContext* ctx) {
  const RunContext* effective = EffectiveContext(ctx);
  DT_RETURN_NOT_OK(options_.Validate(x.shape()));
  ApplyBlasThreads();
  DT_ASSIGN_OR_RETURN(MethodRun method_run,
                      RunTuckerMethod(options_.method, x,
                                      RunMethodOptions(effective),
                                      options_.measure_error));
  EngineRun run;
  run.decomposition = std::move(method_run.decomposition);
  run.stats = std::move(method_run.stats);
  run.relative_error = method_run.relative_error;
  run.stored_bytes = method_run.stored_bytes;
  // RunTuckerMethod already published the sweep metrics; FinishRun folds
  // the completion code (re-publishing gauges is idempotent).
  FinishRun(&run);
  return run;
}

Result<EngineRun> Engine::SolveFile(const std::string& path,
                                    const RunContext* ctx) {
  const RunContext* effective = EffectiveContext(ctx);
  DT_RETURN_NOT_OK(RequireDTucker("SolveFile"));
  ApplyBlasThreads();
  // The header is cheap to read and gives Validate its shape.
  std::vector<Index> shape;
  {
    DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
    shape = reader.shape();
  }
  DT_RETURN_NOT_OK(options_.Validate(shape));
  const DTuckerOptions opt = DTuckerOptionsFromMethod(effective);
  EngineRun run;
  DT_ASSIGN_OR_RETURN(run.decomposition,
                      DTuckerFromFile(path, opt, &run.stats));
  run.stored_bytes = run.stats.working_bytes;
  if (!run.stats.error_history.empty()) {
    run.relative_error = run.stats.error_history.back();
  }
  FinishRun(&run);
  return run;
}

Result<EngineRun> Engine::SolveApproximation(const SliceApproximation& approx,
                                             const RunContext* ctx) {
  const RunContext* effective = EffectiveContext(ctx);
  DT_RETURN_NOT_OK(RequireDTucker("SolveApproximation"));
  ApplyBlasThreads();
  DT_RETURN_NOT_OK(options_.Validate(approx.shape));
  const DTuckerOptions opt = DTuckerOptionsFromMethod(effective);
  EngineRun run;
  DT_ASSIGN_OR_RETURN(run.decomposition,
                      DTuckerFromApproximation(approx, opt, &run.stats));
  run.stored_bytes = approx.ByteSize();
  if (!run.stats.error_history.empty()) {
    run.relative_error = run.stats.error_history.back();
  }
  FinishRun(&run);
  return run;
}

}  // namespace dtucker
