// Randomized SVD (Halko, Martinsson & Tropp 2011).
//
// This is the primitive D-Tucker's approximation phase applies to every
// slice matrix: a rank-`rank` factorization A ~= U diag(s) V^T computed
// from a small number of matrix-vector sweeps, with oversampling and
// optional power iterations for spectral-decay robustness.
//
// The one implementation is RsvdGroup, which runs up to kRsvdGroupSize
// matrices of one shape together: each is sketched on its own, then one
// batched Jacobi solves all their (sketch x sketch) cores at once, one
// matrix per SIMD lane. RandomizedSvd is the group of one. The sketch
// never re-reads A after the power loop: with q >= 1 power iterations the
// final product Y = A Z doubles as the projection (QR of Y gives
// Q^T A Z = R exactly, so A ~= Q R Z^T), saving one full pass over A
// relative to the range-finder-then-project formulation. See DESIGN.md §7.
#ifndef DTUCKER_RSVD_RSVD_H_
#define DTUCKER_RSVD_RSVD_H_

#include <cstddef>
#include <vector>

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

// Rank-`options.rank` truncated SVD. Output factors have exactly
// min(rank, min(m, n)) columns.
SvdResult RandomizedSvd(const Matrix& a, const RsvdOptions& options);

// Fills out[0, n) with i.i.d. standard normal samples drawn from `rng` by
// the Marsaglia-Tsang ziggurat (256 layers, one 64-bit draw per sample on
// the fast path). Only the sketch test matrices use it; Rng::Gaussian's
// Box-Muller stream stays the generator of data.
void FillSketchGaussian(Rng& rng, double* out, std::size_t n);

inline constexpr int kRsvdGroupSize = kJacobiLanes;

// Randomized SVDs of up to `lanes` (<= kRsvdGroupSize) rows x cols
// matrices. The workspace — each lane's range basis Q, co-range basis Z
// and core, lanes * (rows + cols + sketch) * sketch doubles plus one test
// matrix and one product panel — is allocated once, so a caller streaming
// many matrices through one group allocates only the factors Extract
// returns.
//
// A matrix's result depends only on the matrix, the options and its seed:
// Sketch touches only its own lane, and the batched core SVD keeps lanes
// independent (linalg/svd.h), so the bits are the same in any lane of any
// group, and equal to RandomizedSvd with that seed.
class RsvdGroup {
 public:
  RsvdGroup(Index rows, Index cols, const RsvdOptions& options,
            int lanes = kRsvdGroupSize);

  // min(rank, rows, cols): the columns a full Extract returns.
  Index target() const { return target_; }

  // Range finder and power iterations for `a` (rows x cols, column-major,
  // leading dimension rows) into lane `lane`, with the test matrix drawn
  // from Rng(seed). Reads `a` only during the call.
  void Sketch(int lane, const double* a, uint64_t seed);

  // Core SVDs of lanes [0, count), one batched Jacobi; lanes past count are
  // padded with identity cores.
  void Solve(int count);

  // Lane `lane`'s target() singular values, descending (after Solve).
  const double* SingularValues(int lane) const {
    return s_.data() + static_cast<std::size_t>(lane) * sketch_;
  }

  // The top `keep` (<= target()) components of lane `lane` (after Solve).
  SvdResult Extract(int lane, Index keep);

 private:
  double* LaneQ(int lane) {
    return q_.data() + static_cast<std::size_t>(lane) * rows_ * sketch_;
  }
  double* LaneZ(int lane) {
    return z_.data() + static_cast<std::size_t>(lane) * cols_ * sketch_;
  }

  Index rows_, cols_, target_, sketch_;
  int power_iterations_;
  int lanes_;
  int width_;  // Jacobi batch width: kJacobiNarrowLanes for 1-2 lanes.
  std::vector<double> q_;      // lanes x (rows x sketch).
  std::vector<double> z_;      // lanes x (cols x sketch).
  std::vector<double> core_;   // sketch x sketch x width_, interleaved.
  std::vector<double> v_;      // Same layout: the cores' right vectors.
  std::vector<double> s_;      // width_ x sketch singular values.
  std::vector<double> omega_;  // cols x sketch test matrix.
  std::vector<double> panel_;  // max(rows, cols) x sketch product.
  std::vector<double> r_;      // sketch x sketch triangular factor.
  std::vector<double> gather_;  // sketch x keep core columns for Extract.
};

}  // namespace dtucker

#endif  // DTUCKER_RSVD_RSVD_H_
