#include "dtucker/online_dtucker.h"

#include "common/timer.h"

namespace dtucker {

Status OnlineDTuckerOptions::Validate(const std::vector<Index>& shape) const {
  DT_RETURN_NOT_OK(dtucker.Validate(shape));
  if (refit_sweeps < 0) {
    return Status::InvalidArgument("refit_sweeps must be non-negative");
  }
  return Status::OK();
}

OnlineDTucker::OnlineDTucker(OnlineDTuckerOptions options)
    : options_(std::move(options)) {}

StatusCode OnlineDTucker::Refit(int sweeps) {
  // Initialization plus exactly `sweeps` HOOI sweeps on everything
  // ingested, through the one D-Tucker core.
  DTuckerOptions options = options_.dtucker;
  options.tucker.max_iterations = sweeps;
  options.tucker.tolerance = 0.0;
  TuckerStats stats;
  Result<TuckerDecomposition> dec =
      DTuckerFromApproximation(approx_, options, &stats);
  if (!dec.ok()) return dec.status().code();
  dec_ = std::move(dec).ValueOrDie();
  return stats.completion;
}

Status OnlineDTucker::Initialize(const Tensor& x) {
  if (initialized_) {
    return Status::FailedPrecondition("OnlineDTucker already initialized");
  }
  DT_RETURN_NOT_OK(options_.Validate(x.shape()));

  last_stats_ = TuckerStats();
  Timer timer;
  SliceApproximationOptions approx_opts;
  approx_opts.slice_rank = std::min(options_.dtucker.EffectiveSliceRank(),
                                    std::min(x.dim(0), x.dim(1)));
  approx_opts.oversampling = options_.dtucker.oversampling;
  approx_opts.power_iterations = options_.dtucker.power_iterations;
  approx_opts.seed = options_.dtucker.tucker.seed;
  approx_opts.num_threads = options_.dtucker.num_threads;
  approx_opts.run_context = options_.dtucker.tucker.run_context;
  DT_ASSIGN_OR_RETURN(approx_, ApproximateSlices(x, approx_opts));
  last_stats_.preprocess_seconds = timer.Seconds();

  Timer refit_timer;
  const StatusCode stop = Refit(options_.dtucker.tucker.max_iterations);
  last_stats_.iterate_seconds = refit_timer.Seconds();
  last_stats_.completion = stop;
  // The ingest itself succeeded; an interruption only cut the refit short,
  // so the instance is initialized and consistent either way.
  initialized_ = true;
  if (stop != StatusCode::kOk) {
    last_stats_.completion_detail = "online initialize refit interrupted";
    return Status(stop, "online initialize refit interrupted "
                        "(decomposition holds the last completed sweep)");
  }
  return Status::OK();
}

Status OnlineDTucker::Append(const Tensor& chunk) {
  if (!initialized_) {
    return Status::FailedPrecondition("call Initialize before Append");
  }
  if (chunk.order() != static_cast<Index>(approx_.shape.size())) {
    return Status::InvalidArgument("chunk order mismatch");
  }
  const Index last = chunk.order() - 1;
  for (Index n = 0; n < last; ++n) {
    if (chunk.dim(n) != approx_.Dim(n)) {
      return Status::InvalidArgument(
          "chunk must match the tensor in every mode but the last");
    }
  }
  if (chunk.dim(last) <= 0) {
    return Status::InvalidArgument("empty chunk");
  }

  last_stats_ = TuckerStats();
  Timer timer;
  SliceApproximationOptions approx_opts;
  approx_opts.slice_rank = approx_.slice_rank;
  approx_opts.oversampling = options_.dtucker.oversampling;
  approx_opts.power_iterations = options_.dtucker.power_iterations;
  // Distinct seed stream per append batch.
  approx_opts.seed =
      options_.dtucker.tucker.seed + 0x51ED270B * (approx_.NumSlices() + 1);
  approx_opts.num_threads = options_.dtucker.num_threads;
  approx_opts.run_context = options_.dtucker.tucker.run_context;
  DT_ASSIGN_OR_RETURN(SliceApproximation added,
                      ApproximateSlices(chunk, approx_opts));
  last_stats_.preprocess_seconds = timer.Seconds();

  for (auto& sl : added.slices) approx_.slices.push_back(std::move(sl));
  approx_.shape[static_cast<std::size_t>(last)] += chunk.dim(last);

  Timer refit_timer;
  const StatusCode stop = Refit(options_.refit_sweeps);
  last_stats_.iterate_seconds = refit_timer.Seconds();
  last_stats_.completion = stop;
  if (stop != StatusCode::kOk) {
    last_stats_.completion_detail = "online append refit interrupted";
    // The chunk is ingested (slices + Grams); only the warm refit was cut
    // short, so the decomposition is the last completed state.
    return Status(stop, "online append refit interrupted "
                        "(chunk ingested; decomposition not fully refreshed)");
  }
  return Status::OK();
}

}  // namespace dtucker
