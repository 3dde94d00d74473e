#include "dtucker/slice_approximation.h"

#include <algorithm>
#include <cstring>

#include "comm/sharding.h"
#include "common/trace.h"
#include "linalg/blas.h"

namespace dtucker {

namespace {

// One pass per column: writing src[i] * s_j straight into the fresh matrix
// halves the memory traffic of the copy-then-Scal formulation.
Matrix ScaledColumns(const Matrix& factor, const std::vector<double>& s) {
  Matrix out(factor.rows(), factor.cols());
  for (Index j = 0; j < out.cols(); ++j) {
    const double sj = s[static_cast<std::size_t>(j)];
    const double* src = factor.col_data(j);
    double* dst = out.col_data(j);
    for (Index i = 0; i < out.rows(); ++i) dst[i] = src[i] * sj;
  }
  return out;
}

}  // namespace

Matrix SliceSvd::UTimesS() const { return ScaledColumns(u, s); }

Matrix SliceSvd::VTimesS() const { return ScaledColumns(v, s); }

Matrix SliceSvd::Reconstruct() const { return MultiplyNT(UTimesS(), v); }

std::vector<Index> SliceApproximation::TrailingShape() const {
  return std::vector<Index>(shape.begin() + 2, shape.end());
}

std::size_t SliceApproximation::ByteSize() const {
  std::size_t bytes = 0;
  for (const auto& sl : slices) {
    bytes += sl.u.ByteSize() + sl.v.ByteSize() + sl.s.size() * sizeof(double);
  }
  return bytes;
}

Tensor SliceApproximation::ReconstructDense() const {
  Tensor out(shape);
  for (Index l = 0; l < NumSlices(); ++l) {
    out.SetFrontalSlice(l, slices[static_cast<std::size_t>(l)].Reconstruct());
  }
  return out;
}

double SliceApproximation::RelativeErrorAgainst(const Tensor& x) const {
  return RelativeError(x, ReconstructDense());
}

Status SliceApproximation::Validate() const {
  if (shape.size() < 3) {
    return Status::InvalidArgument("approximation shape must have order >= 3");
  }
  Index expected_slices = 1;
  for (std::size_t k = 2; k < shape.size(); ++k) {
    if (shape[k] <= 0) {
      return Status::InvalidArgument("non-positive trailing dimension");
    }
    expected_slices *= shape[k];
  }
  if (NumSlices() != expected_slices) {
    return Status::InvalidArgument(
        "slice count " + std::to_string(NumSlices()) +
        " does not match the trailing shape (" +
        std::to_string(expected_slices) + ")");
  }
  for (Index l = 0; l < NumSlices(); ++l) {
    const SliceSvd& sl = slices[static_cast<std::size_t>(l)];
    const Index rank = static_cast<Index>(sl.s.size());
    if (rank < 1) {
      return Status::InvalidArgument("slice " + std::to_string(l) +
                                     " has no components");
    }
    if (sl.u.rows() != shape[0] || sl.v.rows() != shape[1] ||
        sl.u.cols() != rank || sl.v.cols() != rank) {
      return Status::InvalidArgument("slice " + std::to_string(l) +
                                     " has inconsistent factor shapes");
    }
  }
  return Status::OK();
}

namespace internal_dtucker {

Status CompressSliceRange(const SliceSource& read, Index rows, Index cols,
                          Index first, Index count,
                          const SliceApproximationOptions& options,
                          SliceSvd* out) {
  DT_TRACE_SPAN("dtucker.slice_range");
  RsvdOptions base;
  base.rank = options.slice_rank;
  base.oversampling = options.oversampling;
  base.power_iterations = options.power_iterations;
  Matrix slice = Matrix::Uninitialized(rows, cols);  // Reused buffer.
  for (Index i = 0; i < count; ++i) {
    const StatusCode check = RunContext::CheckOrOk(options.run_context);
    if (check != StatusCode::kOk) {
      return Status(check, "slice approximation interrupted");
    }
    DT_TRACE_SPAN("dtucker.slice_svd");
    const Index l = first + i;
    DT_RETURN_NOT_OK(read(l, &slice));
    // Extreme magnitudes denormalize the squared quantities inside the SVD
    // (Gram entries, Jacobi dots); normalize the slice and fold the scale
    // back into the singular values. Only applied outside a wide safe
    // band, so ordinary inputs are bit-identical with or without it.
    double scale = 1.0;
    const double max_abs = slice.MaxAbs();
    if (max_abs > 0.0 && (max_abs < 1e-100 || max_abs > 1e100)) {
      scale = max_abs;
      slice *= 1.0 / scale;
    }
    SvdResult svd;
    if (options.method == SliceSvdMethod::kRandomized) {
      RsvdOptions rsvd = base;
      // Independent, deterministic test matrix per slice.
      rsvd.seed = options.seed + static_cast<uint64_t>(l) * 0x9E3779B9ULL;
      svd = RandomizedSvd(slice, rsvd);
    } else {
      svd = ThinSvd(slice);
      svd.Truncate(options.slice_rank);
    }
    if (options.adaptive_tolerance > 0.0) {
      // Keep the smallest prefix whose tail energy is below tolerance.
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
    if (scale != 1.0) {
      for (double& s : svd.s) s *= scale;
    }
    out[i] = SliceSvd{std::move(svd.u), std::move(svd.s), std::move(svd.v)};
  }
  return Status::OK();
}

}  // namespace internal_dtucker

namespace {

Status CheckSliceRange(const Tensor& x, Index first, Index count,
                       const SliceApproximationOptions& options) {
  if (x.order() < 3) {
    return Status::InvalidArgument(
        "slice approximation requires an order >= 3 tensor");
  }
  const Index min_dim = std::min(x.dim(0), x.dim(1));
  if (options.slice_rank <= 0 || options.slice_rank > min_dim) {
    return Status::InvalidArgument(
        "slice_rank must be in [1, min(I1, I2)]");
  }
  if (first < 0 || count < 0 || first + count > x.NumFrontalSlices()) {
    return Status::OutOfRange("slice range outside the tensor");
  }
  return Status::OK();
}

// CompressSliceRange over the frontal slices of `x`, each copied into the
// compressor's reused buffer.
Status CompressTensorSlices(const Tensor& x, Index first, Index count,
                            const SliceApproximationOptions& options,
                            SliceSvd* out) {
  const std::size_t slice_size = static_cast<std::size_t>(x.dim(0) * x.dim(1));
  return internal_dtucker::CompressSliceRange(
      [&x, slice_size](Index l, Matrix* slice) {
        std::memcpy(slice->data(),
                    x.data() + static_cast<std::size_t>(l) * slice_size,
                    slice_size * sizeof(double));
        return Status::OK();
      },
      x.dim(0), x.dim(1), first, count, options, out);
}

}  // namespace

Result<std::vector<SliceSvd>> ApproximateSliceRange(
    const Tensor& x, Index first, Index count,
    const SliceApproximationOptions& options) {
  DT_RETURN_NOT_OK(CheckSliceRange(x, first, count, options));
  std::vector<SliceSvd> out(static_cast<std::size_t>(count));
  DT_RETURN_NOT_OK(CompressTensorSlices(x, first, count, options, out.data()));
  return out;
}

Result<SliceApproximation> ApproximateSlices(
    const Tensor& x, const SliceApproximationOptions& options) {
  const Index num_slices = x.order() < 3 ? 0 : x.NumFrontalSlices();
  DT_RETURN_NOT_OK(CheckSliceRange(x, 0, num_slices, options));
  SliceApproximation approx;
  approx.shape = x.shape();
  approx.slice_rank = options.slice_rank;
  approx.slices.resize(static_cast<std::size_t>(num_slices));
  if (num_slices == 0) return approx;
  // Threads compress the slice ranges the solver's ranks own (the seeds
  // are per slice, so the result does not depend on the split).
  const int num_ranks = RanksForThreads(options.num_threads, num_slices);
  std::vector<Status> status(static_cast<std::size_t>(num_ranks));
  RunRankThreads(num_ranks, [&](int r) {
    const ShardPlan plan =
        MakeShardPlan(num_slices, num_ranks, r).ValueOrDie();
    status[static_cast<std::size_t>(r)] = CompressTensorSlices(
        x, plan.slice_begin, plan.NumLocalSlices(), options,
        approx.slices.data() + plan.slice_begin);
  });
  for (const Status& st : status) DT_RETURN_NOT_OK(st);
  return approx;
}

}  // namespace dtucker
