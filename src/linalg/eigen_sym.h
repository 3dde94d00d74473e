// Symmetric eigensolvers: the classical Jacobi method (EigenSym), the
// tridiagonal QL solver with Jacobi as its fallback (EigenSymFast), and
// the randomized subspace iteration for the leading eigenvectors of large
// Grams (TopEigenvectorsSym).
//
// Used for Gram-matrix based factor updates and as an independent check of
// the SVD (eig(A^T A) = singular values squared).
#ifndef DTUCKER_LINALG_EIGEN_SYM_H_
#define DTUCKER_LINALG_EIGEN_SYM_H_

#include <cstdint>

#include <vector>

#include "linalg/matrix.h"

namespace dtucker {

struct EigenSymResult {
  std::vector<double> values;  // Descending.
  Matrix vectors;              // Column k is the eigenvector of values[k].
};

// Requires a symmetric square matrix (symmetry is assumed, the strictly
// upper triangle is read).
EigenSymResult EigenSym(const Matrix& a);

// Same contract, for the sketch-sized problems of the randomized solvers:
// the tridiagonal QL solver (linalg/eigen_tridiag.h), many times faster
// than Jacobi, with Jacobi as the fallback for (pathological) QL
// non-convergence.
EigenSymResult EigenSymFast(const Matrix& a);

// Knobs for the randomized subspace iteration inside TopEigenvectorsSym.
// The defaults solve to near machine precision. Iterative outer loops
// (HOOI/ALS sweeps) can afford a looser tolerance and a tighter sweep cap:
// the outer iteration corrects any slack in the inner solve, and on flat
// spectra — where the Ritz values drift below 1e-11 only after hundreds of
// sweeps — the cap is what bounds the cost. Both paths stay deterministic;
// the dense small-problem fallback ignores these knobs.
struct SubspaceIterationOptions {
  int max_sweeps = 50;
  double ritz_tolerance = 1e-11;
};

// Top-k eigenvectors of a symmetric PSD matrix (descending eigenvalues).
// Small problems (n <= 64) and nearly-full spectra (2k >= n) use the dense
// tridiagonal QL solver, with Jacobi as its fallback on non-convergence;
// the rest use randomized subspace iteration with Rayleigh-Ritz
// extraction, which is the O(n^2 k)
// workhorse behind every factor update in this library (ALS and D-Tucker
// both extract leading singular vectors from n x n Gram matrices).
// Deterministic: the start basis is seeded from (n, k).
//
// `subspace` (optional, in/out) warm-starts the subspace iteration: when it
// holds an orthonormal basis with the dimensions of the iteration sketch
// (n x s), it replaces the random start, and on return it receives the
// final basis. Passing the same Matrix across a sequence of calls on
// slowly-moving operands (ALS/HOOI sweeps) cuts the iteration to the one or
// two sweeps the Ritz check needs. A mismatched or empty matrix is ignored
// as input and simply overwritten. The dense small-problem path neither
// reads nor writes it.
Matrix TopEigenvectorsSym(const Matrix& a, Index k, Matrix* subspace = nullptr,
                          const SubspaceIterationOptions& options = {});

// Subspace-iteration sweeps run so far on the calling thread: its share of
// the process-wide "eig.subspace_sweeps" counter, so a solve can count its
// own sweeps while other threads iterate too.
std::uint64_t SubspaceSweepsOnThisThread();

}  // namespace dtucker

#endif  // DTUCKER_LINALG_EIGEN_SYM_H_
