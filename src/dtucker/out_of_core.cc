#include "dtucker/out_of_core.h"

#include <algorithm>

#include "common/timer.h"
#include "data/tensor_file.h"
#include "rsvd/rsvd.h"

namespace dtucker {

Result<std::vector<SliceSvd>> ApproximateSliceRangeFromFile(
    const std::string& path, Index first, Index count,
    const SliceApproximationOptions& options) {
  DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
  if (reader.order() < 3) {
    return Status::InvalidArgument(
        "out-of-core approximation requires an order >= 3 tensor");
  }
  const Index min_dim = std::min(reader.dim(0), reader.dim(1));
  if (options.slice_rank <= 0 || options.slice_rank > min_dim) {
    return Status::InvalidArgument("slice_rank must be in [1, min(I1, I2)]");
  }
  if (first < 0 || count < 0 || first + count > reader.NumFrontalSlices()) {
    return Status::OutOfRange("slice range outside the tensor file");
  }

  RsvdOptions base;
  base.rank = options.slice_rank;
  base.oversampling = options.oversampling;
  base.power_iterations = options.power_iterations;

  std::vector<SliceSvd> out;
  out.reserve(static_cast<std::size_t>(count));

  const RunContext* ctx = options.run_context;
  Matrix slice(reader.dim(0), reader.dim(1));  // Reused buffer.
  for (Index l = first; l < first + count; ++l) {
    // Per-slice interruption checkpoint (same hard-stop semantics as the
    // in-memory path: a half-compressed tensor has no usable partial), then
    // a retrying read so a transient storage fault does not kill a
    // multi-hour streaming pass.
    if (ctx != nullptr) {
      DT_RETURN_NOT_OK(ctx->CheckStatus("out-of-core slice approximation"));
    }
    DT_RETURN_NOT_OK(reader.ReadFrontalSlicesWithRetry(l, 1, slice.data(), ctx));
    RsvdOptions rsvd = base;
    // Same per-slice seed schedule as the in-memory path, so results are
    // bit-identical.
    rsvd.seed = options.seed + static_cast<uint64_t>(l) * 0x9E3779B9ULL;
    SvdResult svd;
    if (options.method == SliceSvdMethod::kRandomized) {
      svd = RandomizedSvd(slice, rsvd);
    } else {
      svd = ThinSvd(slice);
      svd.Truncate(options.slice_rank);
    }
    if (options.adaptive_tolerance > 0.0) {
      const double total = slice.SquaredNorm();
      double kept = 0.0;
      Index rank = static_cast<Index>(svd.s.size());
      for (std::size_t j = 0; j < svd.s.size(); ++j) {
        kept += svd.s[j] * svd.s[j];
        if (total <= 0.0 ||
            (total - kept) <= options.adaptive_tolerance * total) {
          rank = static_cast<Index>(j + 1);
          break;
        }
      }
      svd.Truncate(std::max<Index>(1, rank));
    }
    out.push_back(
        SliceSvd{std::move(svd.u), std::move(svd.s), std::move(svd.v)});
  }
  return out;
}

Result<SliceApproximation> ApproximateSlicesFromFile(
    const std::string& path, const SliceApproximationOptions& options) {
  // Header peek for the shape; the range routine re-opens, which is cheap
  // next to streaming the payload.
  DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
  const Index num_slices = reader.NumFrontalSlices();
  DT_ASSIGN_OR_RETURN(
      std::vector<SliceSvd> slices,
      ApproximateSliceRangeFromFile(path, 0, num_slices, options));
  SliceApproximation approx;
  approx.shape = reader.shape();
  approx.slice_rank = options.slice_rank;
  approx.slices = std::move(slices);
  return approx;
}

Result<TuckerDecomposition> DTuckerFromFile(const std::string& path,
                                            const DTuckerOptions& options,
                                            TuckerStats* stats) {
  // Peek the header to clamp the slice rank against the actual slice dims.
  Index min_dim;
  {
    DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
    min_dim = std::min(reader.dim(0), reader.dim(1));
  }
  SliceApproximationOptions approx_opts;
  approx_opts.oversampling = options.oversampling;
  approx_opts.power_iterations = options.power_iterations;
  approx_opts.seed = options.tucker.seed;
  approx_opts.slice_rank = std::min(options.EffectiveSliceRank(), min_dim);
  approx_opts.run_context = options.tucker.run_context;

  Timer timer;
  DT_ASSIGN_OR_RETURN(SliceApproximation approx,
                      ApproximateSlicesFromFile(path, approx_opts));
  if (stats != nullptr) stats->preprocess_seconds = timer.Seconds();
  return DTuckerFromApproximation(approx, options, stats);
}

}  // namespace dtucker
