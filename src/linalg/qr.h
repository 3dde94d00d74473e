// Orthogonalization: level-2 Householder QR and CholeskyQR2.
//
// ThinQr(A) for A (m x n) returns Q (m x min(m,n)) with orthonormal columns
// and upper-triangular R (min(m,n) x n) such that A = Q R, by one
// Householder reflector per column applied as rank-1 updates. It is the
// fallback of CholeskyQR2Raw, the preconditioner of ThinSvd and the
// reference the tests compare against; every orthonormalization in the
// three D-Tucker phases is CholeskyQR2. See DESIGN.md §7.
#ifndef DTUCKER_LINALG_QR_H_
#define DTUCKER_LINALG_QR_H_

#include "linalg/matrix.h"

namespace dtucker {

struct QrResult {
  Matrix q;  // m x min(m,n), orthonormal columns.
  Matrix r;  // min(m,n) x n, upper triangular.
};

QrResult ThinQr(const Matrix& a);

// Returns only the orthonormal factor Q (saves forming R when the caller
// just needs an orthonormal basis of range(A)).
Matrix QrOrthonormalize(const Matrix& a);

// CholeskyQR2: Y = Q R for a tall m x k panel (m >= k >= 1, column-major,
// leading dimension m) by two Cholesky passes. Each pass forms the k x k
// Gram with the thin A^T B GEMM kernel, factors it with an upper Cholesky
// G = R^T R and applies the right triangular solve X := X R^{-1}; the
// second pass restores the orthogonality the first loses to rounding, and
// R = R2 R1. Writes Q (m x k, leading dimension m) to `q` and, when `r` is
// not null, R (k x k upper triangular, strictly lower part zero, leading
// dimension k) to `r`. `y` and `q` may not overlap.
//
// One fixed rule picks the path: when a Cholesky pivot is <= 1e-14 times
// the largest diagonal entry of its Gram (kappa(Y) beyond ~1e7, where the
// squared condition number of the Gram costs too many digits), or a Gram
// entry is not finite, the panel goes through the Householder ThinQr /
// QrOrthonormalize instead. Zero, constant and rank-deficient panels take
// that path. Returns true on the Cholesky path, false on the fallback.
// Counts into qr.calls (the fallback adds its own call), and every
// fallback into qr.cholqr2_fallbacks.
bool CholeskyQr2Raw(const double* y, Index m, Index k, double* q, double* r);

// CholeskyQr2Raw without its `qr.cholqr2` span, for a caller whose own span
// already brackets many panels: the slice rSVD runs three per slice under
// its `rsvd` span, and a span for each tripled the approximation phase's
// trace event rate (a traced window then no longer fits a fixed ring).
bool CholeskyQr2RawUntraced(const double* y, Index m, Index k, double* q,
                            double* r);

// Solves R x = b for upper-triangular R (n x n) and b (n x k).
// Requires all diagonal entries of R to be nonzero.
Matrix SolveUpperTriangular(const Matrix& r, const Matrix& b);

// Solves L x = b for lower-triangular L (n x n) and b (n x k).
Matrix SolveLowerTriangular(const Matrix& l, const Matrix& b);

}  // namespace dtucker

#endif  // DTUCKER_LINALG_QR_H_
