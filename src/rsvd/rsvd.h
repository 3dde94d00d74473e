// Randomized SVD (Halko, Martinsson & Tropp 2011).
//
// This is the primitive D-Tucker's approximation phase applies to every
// slice matrix: a rank-`rank` factorization A ~= U diag(s) V^T computed
// from a small number of matrix-vector sweeps, with oversampling and
// optional power iterations for spectral-decay robustness.
//
// RandomizedSvd never re-reads A after the power loop: with q >= 1 power
// iterations the final product Y = A Z doubles as the projection (QR of Y
// gives Q^T A Z = R exactly, so A ~= Q R Z^T), saving one full pass over A
// per call relative to the range-finder-then-project formulation, and the
// small SVD always runs on a (sketch x sketch) square core.
#ifndef DTUCKER_RSVD_RSVD_H_
#define DTUCKER_RSVD_RSVD_H_

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/svd.h"

namespace dtucker {

struct RsvdOptions {
  Index rank = 10;            // Target rank J.
  Index oversampling = 5;     // Extra random directions p; sketch uses J+p.
  int power_iterations = 1;   // q; each adds two passes but sharpens decay.
  uint64_t seed = 42;         // Seed for the Gaussian test matrix.
};

// Orthonormal basis Q (m x min(rank+oversampling, min(m,n))) approximating
// range(A), via Y = (A A^T)^q A Omega with QR re-orthonormalization between
// power iterations.
Matrix RandomizedRangeFinder(const Matrix& a, const RsvdOptions& options);

// Rank-`options.rank` truncated SVD. Output factors have exactly
// min(rank, min(m, n)) columns.
SvdResult RandomizedSvd(const Matrix& a, const RsvdOptions& options);

}  // namespace dtucker

#endif  // DTUCKER_RSVD_RSVD_H_
