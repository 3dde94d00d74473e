#include "dtucker/slice_approximation.h"

#include <algorithm>
#include <atomic>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/gemm_kernel.h"

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

Result<std::vector<SliceSvd>> ApproximateSliceRange(
    const Tensor& x, Index first, Index count,
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

  RsvdOptions base;
  base.rank = options.slice_rank;
  base.oversampling = options.oversampling;
  base.power_iterations = options.power_iterations;

  DT_TRACE_SPAN("dtucker.slice_range");
  std::vector<SliceSvd> out(static_cast<std::size_t>(count));
  // Per-slice interruption checkpoint. The first worker to observe a
  // cancellation/deadline records the code; later slices (on any thread)
  // skip their work so the whole loop drains within one slice's worth of
  // compute per worker.
  std::atomic<int> stop_code{static_cast<int>(StatusCode::kOk)};
  auto compress_one = [&](std::size_t i) {
    if (stop_code.load(std::memory_order_relaxed) !=
        static_cast<int>(StatusCode::kOk)) {
      return;
    }
    const StatusCode check = RunContext::CheckOrOk(options.run_context);
    if (check != StatusCode::kOk) {
      stop_code.store(static_cast<int>(check), std::memory_order_relaxed);
      return;
    }
    DT_TRACE_SPAN("dtucker.slice_svd");
    const Index l = first + static_cast<Index>(i);
    Matrix slice = x.FrontalSlice(l);
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
  };
  if (options.num_threads > 1 && count > 1) {
    // Slice-level parallelism is the better axis here (independent rSVDs);
    // the worker scope keeps the per-slice GEMMs off the shared BLAS pool,
    // which would otherwise oversubscribe the machine.
    ThreadPool pool(static_cast<std::size_t>(options.num_threads));
    pool.ParallelFor(static_cast<std::size_t>(count), [&](std::size_t i) {
      BlasWorkerScope scope;
      compress_one(i);
    });
  } else {
    for (std::size_t i = 0; i < static_cast<std::size_t>(count); ++i) {
      compress_one(i);
    }
  }
  const StatusCode stopped =
      static_cast<StatusCode>(stop_code.load(std::memory_order_relaxed));
  if (stopped != StatusCode::kOk) {
    // No partial result: a half-compressed tensor cannot seed the query
    // phase, so the interruption is a hard stop here.
    return Status(stopped, "slice approximation interrupted");
  }
  return out;
}

Result<SliceApproximation> ApproximateSlices(
    const Tensor& x, const SliceApproximationOptions& options) {
  DT_ASSIGN_OR_RETURN(
      std::vector<SliceSvd> slices,
      ApproximateSliceRange(x, 0, x.NumFrontalSlices(), options));
  SliceApproximation approx;
  approx.shape = x.shape();
  approx.slice_rank = options.slice_rank;
  approx.slices = std::move(slices);
  return approx;
}

}  // namespace dtucker
