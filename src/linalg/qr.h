// Householder QR decomposition, blocked compact-WY form.
//
// ThinQr(A) for A (m x n) returns Q (m x min(m,n)) with orthonormal columns
// and upper-triangular R (min(m,n) x n) such that A = Q R. This is the
// orthogonalization primitive used by randomized range finders, HOOI, and
// the D-Tucker iteration phase.
//
// The implementation factors kQrPanelLeaf-column leaves with unblocked
// level-2 Householder code, aggregates them into kQr*PanelWidth-column
// panels and the panels into a single whole-matrix compact-WY form
// H_1...H_p = I - V T V^T (LAPACK dlarft plus the block-merge rule), and
// applies every aggregate — to the rest of the panel, to the trailing
// matrix, and to the identity when forming the thin Q, which collapses to
// one m x p x p GEMM — as level-3 calls on the kernels in linalg/blas.h.
// Trailing updates therefore draw threads from the shared SetBlasThreads()
// pool (with its nested-parallelism guard) and inherit the kernels'
// bitwise-deterministic scheduling: the factorization is bit-identical
// across thread counts. See DESIGN.md §7.
#ifndef DTUCKER_LINALG_QR_H_
#define DTUCKER_LINALG_QR_H_

#include "linalg/matrix.h"

namespace dtucker {

// Matrices with min(m, n) <= kQrUnblockedMax skip the compact-WY machinery
// entirely (the V/T/workspace setup costs more than it saves on the J x J
// problems of the iteration phase). Above that, panels are
// kQrPanelWidthSmall columns wide, or kQrPanelWidthLarge once min(m, n)
// reaches kQrWidePanelMin — wide enough to amortize packing, narrow enough
// that the level-2 panel factorization stays a small fraction of the work.
// Inside a panel of at least 2 * kQrPanelLeaf columns, kQrPanelLeaf-column
// leaves are factored level-2 and pushed right as block reflectors, so the
// level-2 work scales with the leaf width, not the panel width. A
// factorization with min(m, n) < 2 * kQrPanelLeaf is a single level-2
// panel, so its R is bit-identical to the unblocked reference.
inline constexpr Index kQrUnblockedMax = 12;
inline constexpr Index kQrPanelLeaf = 8;
inline constexpr Index kQrPanelWidthSmall = 32;
inline constexpr Index kQrPanelWidthLarge = 32;
inline constexpr Index kQrWidePanelMin = 192;

struct QrResult {
  Matrix q;  // m x min(m,n), orthonormal columns.
  Matrix r;  // min(m,n) x n, upper triangular.
};

QrResult ThinQr(const Matrix& a);

// Returns only the orthonormal factor Q (saves forming R when the caller
// just needs an orthonormal basis of range(A)).
Matrix QrOrthonormalize(const Matrix& a);

// Reference level-2 implementations (one reflector at a time, rank-1
// updates): the path ThinQr/QrOrthonormalize take at or below
// kQrUnblockedMax, and the correctness and speedup baseline for tests and
// benchmarks.
QrResult ThinQrUnblocked(const Matrix& a);
Matrix QrOrthonormalizeUnblocked(const Matrix& a);

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
