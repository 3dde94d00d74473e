#include "dtucker/slice_approximation.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

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

namespace {

// The smallest prefix of the descending values s[0, n) whose tail energy
// is at most tolerance * total, floor 1.
Index AdaptiveRank(const double* s, Index n, double total, double tolerance) {
  double kept = 0.0;
  for (Index j = 0; j < n; ++j) {
    kept += s[j] * s[j];
    if (total <= 0.0 || (total - kept) <= tolerance * total) return j + 1;
  }
  return std::max<Index>(1, n);
}

// The kExact ablation: full thin SVD of one slice, then truncation.
SliceSvd ExactSliceSvd(const double* a, Index rows, Index cols, double total,
                       const SliceApproximationOptions& options) {
  Matrix slice = Matrix::Uninitialized(rows, cols);
  std::memcpy(slice.data(), a,
              static_cast<std::size_t>(rows * cols) * sizeof(double));
  SvdResult svd = ThinSvd(slice);
  svd.Truncate(options.slice_rank);
  if (options.adaptive_tolerance > 0.0) {
    svd.Truncate(AdaptiveRank(svd.s.data(), static_cast<Index>(svd.s.size()),
                              total, options.adaptive_tolerance));
  }
  return SliceSvd{std::move(svd.u), std::move(svd.s), std::move(svd.v)};
}

}  // namespace

Status CompressSliceRange(const SliceSource& read, Index rows, Index cols,
                          Index first, Index count,
                          const SliceApproximationOptions& options,
                          SliceSvd* out) {
  DT_TRACE_SPAN("dtucker.slice_range");
  if (count <= 0) return Status::OK();
  const Index size = rows * cols;
  const bool adaptive = options.adaptive_tolerance > 0.0;
  const bool exact = options.method == SliceSvdMethod::kExact;
  // Written only by file reads and rescales: in-memory slices at ordinary
  // magnitudes are read in place and never fault this buffer in.
  Matrix buffer = Matrix::Uninitialized(rows, cols);
  RsvdOptions rsvd;
  rsvd.rank = options.slice_rank;
  rsvd.oversampling = options.oversampling;
  rsvd.power_iterations = options.power_iterations;
  std::optional<RsvdGroup> group;
  if (!exact) {
    group.emplace(rows, cols, rsvd,
                  static_cast<int>(std::min<Index>(kRsvdGroupSize, count)));
  }
  double scale[kRsvdGroupSize] = {};
  double total[kRsvdGroupSize] = {};
  for (Index g0 = 0; g0 < count; g0 += kRsvdGroupSize) {
    const int lanes =
        static_cast<int>(std::min<Index>(kRsvdGroupSize, count - g0));
    for (int lane = 0; lane < lanes; ++lane) {
      const StatusCode check = RunContext::CheckOrOk(options.run_context);
      if (check != StatusCode::kOk) {
        return Status(check, "slice approximation interrupted");
      }
      DT_TRACE_SPAN("dtucker.slice_svd");
      const Index l = first + g0 + lane;
      const double* a = nullptr;
      DT_RETURN_NOT_OK(read(l, buffer.data(), &a));
      bool finite = true;
      const double max_abs = MaxAbsFinite(a, size, &finite);
      if (!finite) {
        return Status::InvalidArgument(
            "slice " + std::to_string(l) +
            " holds a non-finite value (NaN or infinity)");
      }
      // Extreme magnitudes overflow or denormalize the squared quantities
      // inside the rSVD (the panels' Gram entries); normalize the slice and
      // fold the scale back into the singular values. Only applied outside
      // a wide safe band, so ordinary inputs are bit-identical with or
      // without it.
      scale[lane] = 1.0;
      if (max_abs > 0.0 && (max_abs < 1e-100 || max_abs > 1e100)) {
        scale[lane] = max_abs;
        const double inv = 1.0 / max_abs;
        double* dst = buffer.data();
        for (Index i = 0; i < size; ++i) dst[i] = a[i] * inv;
        a = dst;
      }
      if (adaptive) total[lane] = Dot(a, a, size);
      if (exact) {
        out[g0 + lane] = ExactSliceSvd(a, rows, cols, total[lane], options);
        for (double& s : out[g0 + lane].s) s *= scale[lane];
        continue;
      }
      // Independent, deterministic test matrix per slice.
      group->Sketch(lane, a,
                    options.seed + static_cast<uint64_t>(l) * 0x9E3779B9ULL);
    }
    if (exact) continue;
    group->Solve(lanes);
    for (int lane = 0; lane < lanes; ++lane) {
      Index keep = group->target();
      if (adaptive) {
        keep = AdaptiveRank(group->SingularValues(lane), keep, total[lane],
                            options.adaptive_tolerance);
      }
      SvdResult svd = group->Extract(lane, keep);
      if (scale[lane] != 1.0) {
        for (double& s : svd.s) s *= scale[lane];
      }
      out[g0 + lane] =
          SliceSvd{std::move(svd.u), std::move(svd.s), std::move(svd.v)};
    }
  }
  return Status::OK();
}

Status CompressChunks(
    Index num_slices, int num_threads,
    const std::function<Status(Index, Index, SliceSvd*)>& compress,
    SliceSvd* out) {
  DT_ASSIGN_OR_RETURN(const ShardPlan plan, MakeShardPlan(num_slices));
  std::vector<Status> status(static_cast<std::size_t>(plan.num_chunks));
  RunChunks(plan.num_chunks, num_threads, [&](Index c, int) {
    const Index first = plan.ChunkSliceBegin(c);
    status[static_cast<std::size_t>(c)] =
        compress(first, plan.ChunkSliceEnd(c) - first, out + first);
  });
  for (const Status& st : status) DT_RETURN_NOT_OK(st);
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

// CompressSliceRange over the frontal slices of `x`, read in place.
Status CompressTensorSlices(const Tensor& x, Index first, Index count,
                            const SliceApproximationOptions& options,
                            SliceSvd* out) {
  const std::size_t slice_size = static_cast<std::size_t>(x.dim(0) * x.dim(1));
  return internal_dtucker::CompressSliceRange(
      [&x, slice_size](Index l, double*, const double** slice) {
        *slice = x.data() + static_cast<std::size_t>(l) * slice_size;
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
  DT_RETURN_NOT_OK(internal_dtucker::CompressChunks(
      num_slices, options.num_threads,
      [&](Index first, Index count, SliceSvd* out) {
        return CompressTensorSlices(x, first, count, options, out);
      },
      approx.slices.data()));
  return approx;
}

}  // namespace dtucker
