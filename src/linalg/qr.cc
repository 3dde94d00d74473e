#include "linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/blas.h"

namespace dtucker {

namespace {

// The vector type of the CholeskyQR2 right solve. aligned(8): the panel
// rows start at arbitrary 8-byte offsets.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__AVX512F__)
constexpr Index kQrVecLen = 8;
#elif defined(__AVX__)
constexpr Index kQrVecLen = 4;
#else
constexpr Index kQrVecLen = 2;
#endif
typedef double QrVec __attribute__((
    vector_size(kQrVecLen * sizeof(double)), aligned(8)));
#else
constexpr Index kQrVecLen = 1;
typedef double QrVec;
#endif

// A level-2 Householder factorization in LAPACK dgeqrf layout: R on and
// above the diagonal of `fact`, the reflector tails below it, and one
// reflector coefficient per column of the thin Q in `tau`.
struct Householder {
  Matrix fact;
  std::vector<double> tau;
};

// Forms one reflector per column and applies it to the trailing columns
// as soon as it is formed (rank-1 updates).
Householder Factorize(const Matrix& a) {
  const Index m = a.rows();
  const Index n = a.cols();
  Householder f{a, std::vector<double>(
                       static_cast<std::size_t>(std::min(m, n)), 0.0)};
  double* fact = f.fact.data();
  for (Index k = 0; k < static_cast<Index>(f.tau.size()); ++k) {
    double* col = fact + k * m + k;
    const Index len = m - k;
    double alpha = col[0];
    double xnorm = len > 1 ? Nrm2(col + 1, len - 1) : 0.0;
    if (xnorm == 0.0) continue;  // tau = 0: H_k = I.
    double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
    double t = (beta - alpha) / beta;
    Scal(1.0 / (alpha - beta), col + 1, len - 1);
    f.tau[static_cast<std::size_t>(k)] = t;
    col[0] = beta;

    // Apply (I - tau v v^T) to the trailing columns; v = [1; col[1:]].
    for (Index j = k + 1; j < n; ++j) {
      double* cj = fact + j * m + k;
      double s = cj[0] + Dot(col + 1, cj + 1, len - 1);
      s *= t;
      cj[0] -= s;
      Axpy(-s, col + 1, cj + 1, len - 1);
    }
  }
  return f;
}

// Copies R (p x n upper triangle) out of the factorization.
Matrix ExtractR(const Householder& f) {
  const Index p = static_cast<Index>(f.tau.size());
  Matrix r(p, f.fact.cols());
  for (Index j = 0; j < r.cols(); ++j) {
    const Index top = std::min(j + 1, p);
    const double* src = f.fact.col_data(j);
    double* dst = r.col_data(j);
    for (Index i = 0; i < top; ++i) dst[i] = src[i];
  }
  return r;
}

// Thin Q: the reflectors applied in reverse order to the first p columns
// of the identity, Q = H_0 H_1 ... H_{p-1} * I.
Matrix FormQ(const Householder& f) {
  const Index m = f.fact.rows();
  const Index p = static_cast<Index>(f.tau.size());
  Matrix q(m, p);
  for (Index j = 0; j < p; ++j) q(j, j) = 1.0;

  for (Index k = p - 1; k >= 0; --k) {
    const double t = f.tau[static_cast<std::size_t>(k)];
    if (t == 0.0) continue;
    const double* v = f.fact.col_data(k) + k;  // v[0] implicit 1.
    const Index len = m - k;
    for (Index j = k; j < p; ++j) {
      double* cj = q.col_data(j) + k;
      double s = cj[0] + Dot(v + 1, cj + 1, len - 1);
      s *= t;
      cj[0] -= s;
      Axpy(-s, v + 1, cj + 1, len - 1);
    }
  }
  return q;
}

// CholeskyQR2's pivot rule (see qr.h): pivots at or below this fraction of
// the largest Gram diagonal entry send the panel to Householder.
constexpr double kCholQrPivotTol = 1e-14;

// Gram, two Cholesky factors and the reciprocal diagonal of one CholeskyQR2
// call, reused across calls on the thread.
double* TlsCholQrScratch(std::size_t doubles) {
  static thread_local std::vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

// The upper triangle of G = X^T X for the m x k panel `x` (leading
// dimension m) into `g` (leading dimension k), by blocks of 4 columns
// through the thin A^T B kernel: block [j0, j0 + 4) is G(0 : j0 + 4, j0 :
// j0 + 4), so only the tiles on or above the diagonal are formed.
void UpperGram(const double* x, Index m, Index k, double* g) {
  for (Index j0 = 0; j0 < k; j0 += 4) {
    const Index jb = std::min<Index>(4, k - j0);
    GemmRaw(Trans::kYes, Trans::kNo, j0 + jb, jb, m, 1.0, x, m, x + j0 * m, m,
            0.0, g + j0 * k, k);
  }
}

// Upper Cholesky G = R^T R of the k x k Gram `g` (upper triangle read,
// leading dimension k) into `r` (strictly lower part zeroed), with the
// reciprocals of its diagonal in `inv_diag`; `row` is k doubles of
// scratch. Right-looking: step j finishes row j of R and takes its outer
// product off the trailing triangle, whose column updates are independent
// axpys. Returns false on a non-finite diagonal or a pivot (the trailing
// diagonal entry at its step) <= kCholQrPivotTol * max diag(G); a
// non-finite off-diagonal entry reaches a later pivot as NaN.
bool GramCholesky(const double* g, Index k, double* r, double* inv_diag,
                  double* row) {
  double max_diag = 0.0;
  for (Index j = 0; j < k; ++j) {
    const double d = g[j * k + j];
    if (!std::isfinite(d)) return false;
    max_diag = std::max(max_diag, d);
  }
  const double tol = kCholQrPivotTol * max_diag;
  for (Index c = 0; c < k; ++c) {
    for (Index i = 0; i < k; ++i) r[c * k + i] = i <= c ? g[c * k + i] : 0.0;
  }
  for (Index j = 0; j < k; ++j) {
    const double d = r[j * k + j];
    if (!(d > tol)) return false;
    const double rjj = std::sqrt(d);
    const double inv = 1.0 / rjj;
    r[j * k + j] = rjj;
    inv_diag[j] = inv;
    for (Index c = j + 1; c < k; ++c) {
      r[c * k + j] *= inv;
      row[c] = r[c * k + j];
    }
    for (Index c = j + 1; c < k; ++c) {
      const double rjc = row[c];
      double* col = r + c * k;
      for (Index i = j + 1; i <= c; ++i) col[i] -= row[i] * rjc;
    }
  }
  return true;
}

// Rows [i0, i0 + kNv * kQrVecLen) of out := in R^{-1}: column j is
// (in_j - sum_{l<j} R(l, j) out_l) / R(j, j), with kNv independent vector
// chains per column to cover the FMA latency.
template <int kNv>
void RightSolveRows(const double* in, double* out, Index m, Index k,
                    const double* r, const double* inv_diag, Index i0) {
  for (Index j = 0; j < k; ++j) {
    QrVec acc[kNv] = {};
    for (int v = 0; v < kNv; ++v) {
      std::memcpy(&acc[v], in + j * m + i0 + v * kQrVecLen, sizeof(QrVec));
    }
    const double* rj = r + j * k;
    for (Index l = 0; l < j; ++l) {
      const double* ol = out + l * m + i0;
      for (int v = 0; v < kNv; ++v) {
        QrVec x = {};
        std::memcpy(&x, ol + v * kQrVecLen, sizeof(QrVec));
        acc[v] -= rj[l] * x;
      }
    }
    for (int v = 0; v < kNv; ++v) {
      acc[v] *= inv_diag[j];
      std::memcpy(out + j * m + i0 + v * kQrVecLen, &acc[v], sizeof(QrVec));
    }
  }
}

// out := in R^{-1} for the m x k panels `in` and `out` (leading dimension
// m; in == out allowed: column j of `in` is read before it is written).
// `inv_diag` holds the reciprocals of R's diagonal.
void RightSolveUpper(const double* in, double* out, Index m, Index k,
                     const double* r, const double* inv_diag) {
  constexpr int kWide = 4;
  Index i0 = 0;
  for (; i0 + kWide * kQrVecLen <= m; i0 += kWide * kQrVecLen) {
    RightSolveRows<kWide>(in, out, m, k, r, inv_diag, i0);
  }
  for (; i0 + kQrVecLen <= m; i0 += kQrVecLen) {
    RightSolveRows<1>(in, out, m, k, r, inv_diag, i0);
  }
  for (; i0 < m; ++i0) {
    for (Index j = 0; j < k; ++j) {
      const double* rj = r + j * k;
      double acc = in[j * m + i0];
      for (Index l = 0; l < j; ++l) acc -= rj[l] * out[l * m + i0];
      out[j * m + i0] = acc * inv_diag[j];
    }
  }
}

// The Householder path of CholeskyQr2Raw.
void CholeskyQr2Fallback(const double* y, Index m, Index k, double* q,
                         double* r) {
  static Counter& fallbacks = MetricCounter("qr.cholqr2_fallbacks");
  fallbacks.Add(1);
  const std::size_t panel_bytes =
      static_cast<std::size_t>(m * k) * sizeof(double);
  Matrix panel = Matrix::Uninitialized(m, k);
  std::memcpy(panel.data(), y, panel_bytes);
  if (r == nullptr) {
    const Matrix qm = QrOrthonormalize(panel);
    std::memcpy(q, qm.data(), panel_bytes);
    return;
  }
  const QrResult f = ThinQr(panel);
  std::memcpy(q, f.q.data(), panel_bytes);
  std::memcpy(r, f.r.data(), static_cast<std::size_t>(k * k) * sizeof(double));
}

}  // namespace

bool CholeskyQr2Raw(const double* y, Index m, Index k, double* q, double* r) {
  DT_TRACE_SPAN("qr.cholqr2");
  return CholeskyQr2RawUntraced(y, m, k, q, r);
}

bool CholeskyQr2RawUntraced(const double* y, Index m, Index k, double* q,
                            double* r) {
  static Counter& calls = MetricCounter("qr.calls");
  calls.Add(1);
  DT_CHECK(k >= 1 && m >= k) << "CholeskyQR2 needs a tall panel";
  const Index kk = k * k;
  double* g = TlsCholQrScratch(static_cast<std::size_t>(3 * kk + 2 * k));
  double* r1 = g + kk;
  double* r2 = r1 + kk;
  double* inv_diag = r2 + kk;
  double* row = inv_diag + k;

  UpperGram(y, m, k, g);
  if (!GramCholesky(g, k, r1, inv_diag, row)) {
    CholeskyQr2Fallback(y, m, k, q, r);
    return false;
  }
  RightSolveUpper(y, q, m, k, r1, inv_diag);
  UpperGram(q, m, k, g);
  // After the first pass Q1 has kappa ~ 1, so this pivot test only guards
  // against arithmetic the first test could not foresee.
  if (!GramCholesky(g, k, r2, inv_diag, row)) {
    CholeskyQr2Fallback(y, m, k, q, r);
    return false;
  }
  RightSolveUpper(q, q, m, k, r2, inv_diag);
  if (r != nullptr) {
    // R = R2 R1, both upper triangular.
    for (Index j = 0; j < k; ++j) {
      double* rj = r + j * k;
      for (Index i = 0; i < k; ++i) {
        double sum = 0.0;
        for (Index l = i; l <= j; ++l) sum += r2[l * k + i] * r1[j * k + l];
        rj[i] = sum;
      }
    }
  }
  return true;
}

QrResult ThinQr(const Matrix& a) {
  static Counter& calls = MetricCounter("qr.calls");
  calls.Add(1);
  DT_TRACE_SPAN("qr.thin");
  const Householder f = Factorize(a);
  return QrResult{FormQ(f), ExtractR(f)};
}

Matrix QrOrthonormalize(const Matrix& a) {
  static Counter& calls = MetricCounter("qr.calls");
  calls.Add(1);
  DT_TRACE_SPAN("qr.orthonormalize");
  return FormQ(Factorize(a));
}

Matrix SolveUpperTriangular(const Matrix& r, const Matrix& b) {
  const Index n = r.rows();
  DT_CHECK_EQ(n, r.cols()) << "R must be square";
  DT_CHECK_EQ(n, b.rows()) << "rhs row mismatch";
  Matrix x = b;
  TrsmUpperRaw(n, x.cols(), r.data(), n, x.data(), n);
  return x;
}

Matrix SolveLowerTriangular(const Matrix& l, const Matrix& b) {
  const Index n = l.rows();
  DT_CHECK_EQ(n, l.cols()) << "L must be square";
  DT_CHECK_EQ(n, b.rows()) << "rhs row mismatch";
  Matrix x = b;
  TrsmLowerRaw(n, x.cols(), l.data(), n, x.data(), n);
  return x;
}

}  // namespace dtucker
