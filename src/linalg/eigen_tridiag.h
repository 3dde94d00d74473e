// Symmetric eigendecomposition via Householder tridiagonalization and
// implicit-shift QL iteration — the classical O(n^3) dense route, laid
// out by contiguous columns: the reduction reads only the lower triangle
// (LAPACK dsytd2), Q is formed by columns, and the QL rotations are
// recorded and then applied to Q in L1-resident row blocks.
//
// Far faster than the Jacobi solver in linalg/eigen_sym.h (one reduction
// plus O(n^2) iteration instead of several full Jacobi sweeps); Jacobi
// remains the reference the tests compare against and EigenSymFast's
// fallback.
#ifndef DTUCKER_LINALG_EIGEN_TRIDIAG_H_
#define DTUCKER_LINALG_EIGEN_TRIDIAG_H_

#include "common/status.h"
#include "linalg/eigen_sym.h"

namespace dtucker {

// Same contract as EigenSym: descending eigenvalues, orthonormal
// eigenvectors in columns; the strictly upper triangle is not read.
// Off-diagonal entries deflate at eps * ||T||, so graded PSD spectra
// (eigenvalues far below eps times the largest) converge. Returns
// NumericalError if an eigenvalue needs more than 30 QL sweeps
// (pathological input).
Result<EigenSymResult> EigenSymQr(const Matrix& a);

}  // namespace dtucker

#endif  // DTUCKER_LINALG_EIGEN_TRIDIAG_H_
