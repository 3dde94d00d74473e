#include "rsvd/rsvd.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/qr.h"

namespace dtucker {

namespace {

Index SketchSize(const Matrix& a, const RsvdOptions& options) {
  return std::min(options.rank + options.oversampling,
                  std::min(a.rows(), a.cols()));
}

}  // namespace

Matrix RandomizedRangeFinder(const Matrix& a, const RsvdOptions& options) {
  const Index sketch = SketchSize(a, options);
  DT_CHECK_GT(sketch, 0) << "empty sketch";

  Rng rng(options.seed);
  Matrix omega = Matrix::GaussianRandom(a.cols(), sketch, rng);
  Matrix y = Multiply(a, omega);          // m x sketch.
  Matrix q = QrOrthonormalize(y);

  for (int it = 0; it < options.power_iterations; ++it) {
    // Subspace iteration with re-orthonormalization: Q <- orth(A A^T Q).
    Matrix z = MultiplyTN(a, q);          // n x sketch.
    z = QrOrthonormalize(z);
    y = Multiply(a, z);                   // m x sketch.
    q = QrOrthonormalize(y);
  }
  return q;
}

// Both branches below reduce A to a (sketch x sketch) core before the
// Jacobi SVD ever runs, and read A exactly once more than the power loop
// needs — the projection B = Q^T A of the textbook algorithm is folded
// away (see DESIGN.md §7):
//
//   q >= 1:  the final power product Y = A Z doubles as the projection.
//            With [Q, R] = qr(Y) it holds Q^T A Z = R exactly, so
//            A ~= A Z Z^T = Q R Z^T and SVD(R) finishes the job without
//            another pass over A. 2q + 1 passes, versus 2q + 2 for the
//            range-finder-then-project formulation.
//   q == 0:  B = Q^T A is unavoidable (no Z exists), but the wide
//            (sketch x n) B is pre-reduced by an LQ-style QR of B^T so
//            Jacobi rotates only the (sketch x sketch) triangle.
SvdResult RandomizedSvd(const Matrix& a, const RsvdOptions& options) {
  static Counter& calls = MetricCounter("rsvd.calls");
  calls.Add(1);
  DT_TRACE_SPAN("rsvd");
  const Index target = std::min(options.rank, std::min(a.rows(), a.cols()));
  const Index sketch = SketchSize(a, options);
  DT_CHECK_GT(sketch, 0) << "empty sketch";

  Rng rng(options.seed);
  Matrix omega = Matrix::GaussianRandom(a.cols(), sketch, rng);
  Matrix q = QrOrthonormalize(Multiply(a, omega));  // Pass 1.

  if (options.power_iterations <= 0) {
    Matrix b = MultiplyTN(q, a);          // sketch x n (pass 2 over A).
    QrResult lq = ThinQr(b.Transposed());
    // B = (Q_b R_b)^T = R_b^T Q_b^T: SVD the small square core R_b^T.
    SvdResult core = ThinSvd(lq.r.Transposed());
    SvdResult out{Multiply(q, core.u), std::move(core.s),
                  Multiply(lq.q, core.v)};
    out.Truncate(target);
    return out;
  }

  Matrix z;
  QrResult yqr;
  for (int it = 0; it < options.power_iterations; ++it) {
    z = QrOrthonormalize(MultiplyTN(a, q));     // n x sketch.
    if (it + 1 < options.power_iterations) {
      q = QrOrthonormalize(Multiply(a, z));     // m x sketch.
    } else {
      // Last half-iteration: keep R so the product is also the projection.
      yqr = ThinQr(Multiply(a, z));
      q = std::move(yqr.q);
    }
  }
  SvdResult core = ThinSvd(yqr.r);        // sketch x sketch: Jacobi direct.
  SvdResult out{Multiply(q, core.u), std::move(core.s),
                Multiply(z, core.v)};
  out.Truncate(target);
  return out;
}

}  // namespace dtucker
