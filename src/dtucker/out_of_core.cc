#include "dtucker/out_of_core.h"

#include <algorithm>

#include "comm/sharding.h"
#include "data/tensor_file.h"
#include "dtucker/sharded_dtucker.h"
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
  // Validates the header and options once; each thread then opens the
  // file itself and streams the slice range one rank of a
  // num_threads-thread solve owns.
  DT_RETURN_NOT_OK(ApproximateSliceRangeFromFile(path, 0, 0, options).status());
  DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
  const Index num_slices = reader.NumFrontalSlices();
  SliceApproximation approx;
  approx.shape = reader.shape();
  approx.slice_rank = options.slice_rank;
  approx.slices.resize(static_cast<std::size_t>(num_slices));
  if (num_slices == 0) return approx;
  const int num_ranks = RanksForThreads(options.num_threads, num_slices);
  std::vector<Status> status(static_cast<std::size_t>(num_ranks));
  RunRankThreads(num_ranks, [&](int r) {
    const ShardPlan plan =
        MakeShardPlan(num_slices, num_ranks, r).ValueOrDie();
    Result<std::vector<SliceSvd>> part = ApproximateSliceRangeFromFile(
        path, plan.slice_begin, plan.NumLocalSlices(), options);
    if (!part.ok()) {
      status[static_cast<std::size_t>(r)] = part.status();
      return;
    }
    std::move(part.value().begin(), part.value().end(),
              approx.slices.begin() + plan.slice_begin);
  });
  for (const Status& st : status) DT_RETURN_NOT_OK(st);
  return approx;
}

Result<TuckerDecomposition> DTuckerFromFile(const std::string& path,
                                            const DTuckerOptions& options,
                                            TuckerStats* stats) {
  DT_ASSIGN_OR_RETURN(TensorFileReader reader, TensorFileReader::Open(path));
  ShardedDTuckerOptions sharded;
  sharded.dtucker = options;
  sharded.num_ranks =
      RanksForThreads(options.num_threads, reader.NumFrontalSlices());
  return ShardedDTuckerFromFile(path, sharded, stats);
}

}  // namespace dtucker
