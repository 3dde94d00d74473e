#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/metrics.h"
#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/eigen_tridiag.h"
#include "linalg/gemm_kernel.h"
#include "linalg/qr.h"

namespace dtucker {

EigenSymResult EigenSym(const Matrix& a) {
  DT_CHECK_EQ(a.rows(), a.cols()) << "EigenSym requires a square matrix";
  const Index n = a.rows();
  Matrix m = a;
  Matrix v = Matrix::Identity(n);
  const double eps = std::numeric_limits<double>::epsilon();
  const int max_sweeps = 100;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Off-diagonal Frobenius mass; stop when negligible.
    double off = 0.0, diag = 0.0;
    for (Index j = 0; j < n; ++j) {
      diag += m(j, j) * m(j, j);
      for (Index i = 0; i < j; ++i) off += 2.0 * m(i, j) * m(i, j);
    }
    if (off <= eps * eps * (diag + off) || off == 0.0) break;

    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        const double apq = m(p, q);
        if (std::fabs(apq) <= eps * std::sqrt(std::fabs(m(p, p) * m(q, q))) ||
            apq == 0.0) {
          continue;
        }
        const double tau = (m(q, q) - m(p, p)) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(tau) + std::sqrt(1.0 + tau * tau)), tau);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // Update rows/cols p and q of the symmetric matrix.
        for (Index i = 0; i < n; ++i) {
          const double mip = m(i, p), miq = m(i, q);
          m(i, p) = c * mip - s * miq;
          m(i, q) = s * mip + c * miq;
        }
        for (Index i = 0; i < n; ++i) {
          const double mpi = m(p, i), mqi = m(q, i);
          m(p, i) = c * mpi - s * mqi;
          m(q, i) = s * mpi + c * mqi;
        }
        for (Index i = 0; i < n; ++i) {
          const double vip = v(i, p), viq = v(i, q);
          v(i, p) = c * vip - s * viq;
          v(i, q) = s * vip + c * viq;
        }
      }
    }
  }

  std::vector<double> values(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) values[static_cast<std::size_t>(i)] = m(i, i);
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(), [&](Index x, Index y) {
    return values[static_cast<std::size_t>(x)] >
           values[static_cast<std::size_t>(y)];
  });

  EigenSymResult out;
  out.values.resize(static_cast<std::size_t>(n));
  out.vectors = Matrix(n, n);
  for (Index j = 0; j < n; ++j) {
    const Index src = order[static_cast<std::size_t>(j)];
    out.values[static_cast<std::size_t>(j)] =
        values[static_cast<std::size_t>(src)];
    for (Index i = 0; i < n; ++i) out.vectors(i, j) = v(i, src);
  }
  return out;
}

namespace {

thread_local std::uint64_t tls_subspace_sweeps = 0;

// Target height of the row tiles of the subspace iteration's Z = A Q.
constexpr Index kProductTileRows = 80;

// z = a q (a n x n, q and z n x s) as round(n / kProductTileRows) row
// tiles of near-equal height on RunBlasTiles, or, below
// kTileParallelVolume, one GemmRaw call on the calling thread. The grid
// depends on n alone, and every tile is at least 17 rows tall, so
// GemmRaw routes a tile down the same path as the whole product; both
// paths give each element bits that do not depend on the rows around it,
// so a tile reproduces the whole product's rows exactly.
void TiledProduct(const Matrix& a, const Matrix& q, Matrix* z) {
  const Index n = a.rows();
  const Index s = q.cols();
  const Index count =
      std::max<Index>(1, (n + kProductTileRows / 2) / kProductTileRows);
  auto rows = [&](Index begin, Index end) {
    const Index r0 = n * begin / count;
    const Index r1 = n * end / count;
    GemmRaw(Trans::kNo, Trans::kNo, r1 - r0, s, n, 1.0, a.data() + r0, n,
            q.data(), n, 0.0, z->data() + r0, n);
  };
  if (n * n * s >= kTileParallelVolume) {
    RunBlasTiles(count, rows);
  } else {
    rows(0, count);
  }
}

}  // namespace

EigenSymResult EigenSymFast(const Matrix& a) {
  Result<EigenSymResult> qr = EigenSymQr(a);
  if (qr.ok()) return std::move(qr).ValueOrDie();
  return EigenSym(a);
}

Matrix TopEigenvectorsSym(const Matrix& a, Index k, Matrix* subspace,
                          const SubspaceIterationOptions& options) {
  const Index n = a.rows();
  DT_CHECK_EQ(n, a.cols()) << "TopEigenvectorsSym requires a square matrix";
  DT_CHECK(k > 0 && k <= n) << "k out of range";

  // Small problems (or nearly-full spectra): a dense solve is both exact
  // and fast enough.
  if (n <= 64 || 2 * k >= n) {
    return EigenSymFast(a).vectors.LeftCols(k);
  }

  // Randomized subspace iteration with oversampling. For PSD matrices the
  // per-sweep contraction factor of the k-th direction is
  // (lambda_{s+1}/lambda_k)^2, so a handful of sweeps suffice whenever the
  // sketch width s clears the cluster around lambda_k.
  const Index s = std::min(n, k + std::min<Index>(k, 8) + 2);
  Matrix q;
  if (subspace != nullptr && subspace->rows() == n && subspace->cols() == s) {
    // Warm start from the caller's basis (assumed orthonormal: it is the
    // basis this routine handed back on a previous call).
    q = *subspace;
  } else {
    // A pure function of (n, k): repeated solves start from the same bits.
    Rng rng(0x70B5EEDULL + static_cast<uint64_t>(n) * 1315423911ULL +
            static_cast<uint64_t>(k));
    const Matrix start = Matrix::GaussianRandom(n, s, rng);
    q = Matrix::Uninitialized(n, s);
    CholeskyQr2Raw(start.data(), n, s, q.data(), nullptr);
  }

  std::vector<double> prev_ritz;
  Matrix z(n, s);
  Matrix h(s, s);
  // Flat spectra (lambda_{s+1} ~ lambda_k) converge slowly in the angles
  // but the Ritz *values* stabilize quickly; the default 1e-11 relative is
  // far below anything the factor updates can observe, and the sweep cap
  // bounds the worst case.
  const double ritz_tolerance = options.ritz_tolerance;
  const int max_sweeps = options.max_sweeps;
  static Counter& subspace_sweeps = MetricCounter("eig.subspace_sweeps");
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    subspace_sweeps.Add(1);
    ++tls_subspace_sweeps;
    TiledProduct(a, q, &z);
    // Rayleigh quotient H = Q^T A Q for the convergence check.
    Gemm(Trans::kYes, Trans::kNo, 1.0, q, z, 0.0, &h);
    // Symmetrize against roundoff before reading Ritz values.
    for (Index j = 0; j < s; ++j) {
      for (Index i = 0; i < j; ++i) {
        const double v = 0.5 * (h(i, j) + h(j, i));
        h(i, j) = v;
        h(j, i) = v;
      }
    }
    EigenSymResult ritz = EigenSymFast(h);
    bool converged = false;
    if (!prev_ritz.empty()) {
      const double scale = std::max(std::fabs(ritz.values[0]), 1e-300);
      double max_delta = 0;
      for (Index i = 0; i < k; ++i) {
        max_delta = std::max(
            max_delta, std::fabs(ritz.values[static_cast<std::size_t>(i)] -
                                 prev_ritz[static_cast<std::size_t>(i)]));
      }
      converged = max_delta <= ritz_tolerance * scale;
    }
    prev_ritz = ritz.values;
    if (converged) {
      // Rayleigh-Ritz extraction from the current (pre-update) basis.
      Matrix out = Multiply(q, ritz.vectors.LeftCols(k));
      if (subspace != nullptr) *subspace = std::move(q);
      return out;
    }
    // CholeskyQR2, with its Householder fallback rule (linalg/qr.h).
    CholeskyQr2Raw(z.data(), n, s, q.data(), nullptr);
  }
  // Fallback extraction after max_sweeps.
  TiledProduct(a, q, &z);
  Gemm(Trans::kYes, Trans::kNo, 1.0, q, z, 0.0, &h);
  EigenSymResult ritz = EigenSymFast(h);
  Matrix out = Multiply(q, ritz.vectors.LeftCols(k));
  if (subspace != nullptr) *subspace = std::move(q);
  return out;
}

std::uint64_t SubspaceSweepsOnThisThread() { return tls_subspace_sweeps; }

}  // namespace dtucker
