// Singular value decomposition.
//
// ThinSvd computes A = U diag(s) V^T with U (m x p), V (n x p),
// p = min(m, n), singular values sorted in descending order. The
// implementation is one-sided Jacobi, preconditioned with a QR
// factorization for tall matrices (and a transpose for wide ones), which is
// accurate to high relative precision and has no convergence pathologies —
// the right trade-off for the small-to-medium factor computations this
// library performs (the large-matrix path goes through rsvd/ instead).
// It runs at the power-of-two scale that brings the largest entry into
// [0.5, 1), so any finite input works, and A scaled by 2^e gives the same
// U and V bits and singular values scaled by exactly 2^e.
#ifndef DTUCKER_LINALG_SVD_H_
#define DTUCKER_LINALG_SVD_H_

#include <vector>

#include "linalg/matrix.h"

namespace dtucker {

struct SvdResult {
  Matrix u;               // m x p, orthonormal columns.
  std::vector<double> s;  // p singular values, descending.
  Matrix v;               // n x p, orthonormal columns.

  // Reconstructs U * diag(s) * V^T.
  Matrix Reconstruct() const;

  // Truncates to the top `k` components (no-op if k >= p).
  void Truncate(Index k);

  // U * diag(s) as a matrix (the "scaled left factor" D-Tucker stores).
  Matrix UTimesS() const;
};

SvdResult ThinSvd(const Matrix& a);

// Convenience: the first k left singular vectors of A (k <= min(m,n)).
Matrix LeadingLeftSingularVectors(const Matrix& a, Index k);

// Batched one-sided Jacobi: the SVDs of `lanes` independent n x n matrices
// at once, one matrix per SIMD lane; `lanes` is kJacobiLanes, or
// kJacobiNarrowLanes for a batch of one or two, which costs about a
// quarter as much. The batch is lane-interleaved: element (i, j) of
// matrix l lives at
//   w[(j * n + i) * lanes + l].
// On return, lane l of `w` holds that matrix's U (columns sorted by
// descending singular value, unit norm, zero where the singular value is
// zero), `v` its V in the same layout, and s[l * n + j] its singular values,
// descending. `v` and `s` need n * n * lanes and n * lanes doubles.
//
// Lanes never mix: every operation is elementwise across lanes, a lane
// that needs no rotation at a pivot pair gets the exact identity rotation
// (its nonzero entries keep their bits), and the sweep loop ends when no
// lane rotates. A matrix's results are therefore bitwise the same in
// whatever lane, beside whatever other matrices and at whichever width it
// is solved. Unused lanes should hold identity (or zero) matrices, which
// never rotate. Each lane runs at an exact power-of-two scale, so no input
// magnitude overflows its squared column norms.
inline constexpr int kJacobiLanes = 8;
inline constexpr int kJacobiNarrowLanes = 2;
void BatchedJacobiSvd(Index n, double* w, double* v, double* s,
                      int lanes = kJacobiLanes);

}  // namespace dtucker

#endif  // DTUCKER_LINALG_SVD_H_
