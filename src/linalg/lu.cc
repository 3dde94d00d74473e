#include "linalg/lu.h"

#include <cmath>
#include <vector>

namespace dtucker {

namespace {

// In-place factorization PA = LU; returns pivot rows or an error status.
// On success `a` holds L (unit diagonal, below) and U (upper).
Status Factorize(Matrix* a, std::vector<Index>* pivots) {
  const Index n = a->rows();
  if (n != a->cols()) {
    return Status::InvalidArgument("LU requires a square matrix");
  }
  pivots->resize(static_cast<std::size_t>(n));
  for (Index k = 0; k < n; ++k) {
    // Partial pivot: largest |a(i,k)| for i >= k.
    Index p = k;
    double best = std::fabs((*a)(k, k));
    for (Index i = k + 1; i < n; ++i) {
      double v = std::fabs((*a)(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best == 0.0 || !std::isfinite(best)) {
      return Status::NumericalError("singular matrix in LU factorization");
    }
    (*pivots)[static_cast<std::size_t>(k)] = p;
    if (p != k) {
      for (Index j = 0; j < n; ++j) std::swap((*a)(k, j), (*a)(p, j));
    }
    const double inv = 1.0 / (*a)(k, k);
    for (Index i = k + 1; i < n; ++i) {
      const double lik = (*a)(i, k) * inv;
      (*a)(i, k) = lik;
      for (Index j = k + 1; j < n; ++j) (*a)(i, j) -= lik * (*a)(k, j);
    }
  }
  return Status::OK();
}

}  // namespace

Result<Matrix> SolveLu(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("LU solve: rhs row mismatch");
  }
  Matrix lu = a;
  std::vector<Index> pivots;
  DT_RETURN_NOT_OK(Factorize(&lu, &pivots));

  const Index n = a.rows();
  Matrix x = b;
  // Apply row permutation.
  for (Index k = 0; k < n; ++k) {
    Index p = pivots[static_cast<std::size_t>(k)];
    if (p != k) {
      for (Index c = 0; c < x.cols(); ++c) std::swap(x(k, c), x(p, c));
    }
  }
  // Forward substitution (unit lower).
  for (Index c = 0; c < x.cols(); ++c) {
    for (Index i = 1; i < n; ++i) {
      double s = x(i, c);
      for (Index j = 0; j < i; ++j) s -= lu(i, j) * x(j, c);
      x(i, c) = s;
    }
  }
  // Back substitution (upper).
  for (Index c = 0; c < x.cols(); ++c) {
    for (Index i = n - 1; i >= 0; --i) {
      double s = x(i, c);
      for (Index j = i + 1; j < n; ++j) s -= lu(i, j) * x(j, c);
      x(i, c) = s / lu(i, i);
    }
  }
  return x;
}

}  // namespace dtucker
