// Approximation phase of D-Tucker: per-slice randomized SVD compression.
//
// An N-order tensor X (I1 x I2 x I3 x ... x IN) is viewed as
// L = I3*...*IN frontal slice matrices X<l> (I1 x I2). Each slice is
// compressed to a rank-Js factorization X<l> ~= U<l> diag(s<l>) V<l>^T.
// This single pass over the raw tensor is all D-Tucker ever reads of it:
// the initialization and iteration phases work purely on the
// (I1 + I2 + 1) * Js * L numbers stored here.
#ifndef DTUCKER_DTUCKER_SLICE_APPROXIMATION_H_
#define DTUCKER_DTUCKER_SLICE_APPROXIMATION_H_

#include <functional>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "linalg/matrix.h"
#include "rsvd/rsvd.h"
#include "tensor/tensor.h"

namespace dtucker {

// Rank-Js SVD factors of one frontal slice.
struct SliceSvd {
  Matrix u;               // I1 x Js.
  std::vector<double> s;  // Js singular values, descending.
  Matrix v;               // I2 x Js.

  // U diag(s): the "scaled left factor" (I1 x Js).
  Matrix UTimesS() const;
  // V diag(s) (I2 x Js).
  Matrix VTimesS() const;
  // U diag(s) V^T (I1 x I2).
  Matrix Reconstruct() const;
};

enum class SliceSvdMethod {
  kRandomized,  // Halko-style rSVD (the paper's choice; one pass-ish).
  kExact,       // Full thin SVD then truncate (ablation reference).
};

struct SliceApproximationOptions {
  Index slice_rank = 10;     // Js (the maximum rank when adaptive).
  Index oversampling = 5;    // rSVD oversampling p.
  int power_iterations = 1;  // rSVD power iterations q.
  uint64_t seed = 42;
  SliceSvdMethod method = SliceSvdMethod::kRandomized;
  // When > 0, each slice keeps only as many components as needed to push
  // its relative squared truncation error below this value (capped at
  // slice_rank, floor 1). Smooth scenes store fewer numbers than busy
  // ones; every consumer of SliceApproximation handles per-slice ranks.
  double adaptive_tolerance = 0.0;
  // Threads for ApproximateSlices: they compress one chunk of the slice
  // grid (comm/sharding.h) at a time. Slices are independent and each
  // draws from its own seeded stream, so the result is bit-identical to
  // the single-threaded run. Default 1 matches the paper's protocol.
  int num_threads = 1;
  // Optional execution control, polled once per slice. The approximation
  // phase has no usable partial state, so an interruption here surfaces as
  // a kCancelled/kDeadlineExceeded error from ApproximateSlices.
  const RunContext* run_context = nullptr;
};

// The compressed tensor: shape metadata plus one SliceSvd per slice.
struct SliceApproximation {
  std::vector<Index> shape;  // Original tensor shape (order >= 3).
  Index slice_rank = 0;
  std::vector<SliceSvd> slices;  // L entries, mode-3-fastest order.

  Index NumSlices() const { return static_cast<Index>(slices.size()); }
  Index Dim(Index mode) const {
    return shape[static_cast<std::size_t>(mode)];
  }
  // Trailing shape (I3, ..., IN) — the slice grid.
  std::vector<Index> TrailingShape() const;

  // Logical bytes of the stored factors (the method's preprocessing
  // footprint reported by experiment E3).
  std::size_t ByteSize() const;

  // Dense reconstruction of the approximated tensor (tests / error
  // measurement on small problems).
  Tensor ReconstructDense() const;

  // Relative squared error of the slice approximation against `x`.
  double RelativeErrorAgainst(const Tensor& x) const;

  // Structural consistency: slice count matches the trailing shape, every
  // slice's factor shapes agree with (I1, I2) and each other. Returned by
  // the query-phase entry points before touching the data.
  Status Validate() const;
};

// Runs the approximation phase. Requires order >= 3 and
// slice_rank <= min(I1, I2).
Result<SliceApproximation> ApproximateSlices(
    const Tensor& x, const SliceApproximationOptions& options);

// Compresses only slices [first, first+count) of `x`, serially on the
// calling thread — the online variant's append, which compresses new
// slices without touching old ones.
Result<std::vector<SliceSvd>> ApproximateSliceRange(
    const Tensor& x, Index first, Index count,
    const SliceApproximationOptions& options);

namespace internal_dtucker {

// Provides frontal slice l (I1 x I2, column-major): either points *slice at
// storage the source owns (an in-memory tensor, read in place) or fills
// `buffer`, an I1 x I2 scratch reused across the slices of one range, and
// points *slice at it.
using SliceSource =
    std::function<Status(Index l, double* buffer, const double** slice)>;

// The approximation phase's one per-slice compressor, shared by the
// in-memory (ApproximateSliceRange) and file (ApproximateSliceRangeFromFile)
// paths: compresses slices [first, first + count) of an I1 = rows by
// I2 = cols slice grid, read through `read`, serially into out[0, count).
// Slices go through an RsvdGroup kRsvdGroupSize consecutive slices at a
// time (rsvd/rsvd.h); a slice's bits do not depend on its group, so any
// split of the slices into ranges gives the same result. Rejects a slice
// holding a NaN or an infinity with InvalidArgument, found by the same
// pass that measures its magnitude. Polls the run context once per slice;
// the approximation phase has no usable partial state, so an interruption
// is a hard stop. Arguments are the caller's to validate.
Status CompressSliceRange(const SliceSource& read, Index rows, Index cols,
                          Index first, Index count,
                          const SliceApproximationOptions& options,
                          SliceSvd* out);

// The approximation phase's one fork-join: compresses slices
// [0, num_slices) one chunk of the grid (comm/sharding.h) per task on
// RunChunks' num_threads threads, where compress(first, count, dst) fills
// dst[0, count) with slices [first, first + count), writing out[first,
// first + count). When several chunks fail, returns the status of the
// lowest-numbered one.
Status CompressChunks(
    Index num_slices, int num_threads,
    const std::function<Status(Index, Index, SliceSvd*)>& compress,
    SliceSvd* out);

}  // namespace internal_dtucker

}  // namespace dtucker

#endif  // DTUCKER_DTUCKER_SLICE_APPROXIMATION_H_
