#include "linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/blas.h"

namespace dtucker {

namespace {

// Thread-local scratch for the factorization copy (dgeqrf layout), the
// dense reflector matrix V, and the block reflector workspace W (the
// TlsPackBuffer pattern of the GEMM engine): consecutive factorizations —
// e.g. one ThinQr per slice inside the rSVD — reuse the same pages instead
// of faulting in fresh zeroed ones each call.
double* TlsQrScratchFact(std::size_t doubles) {
  static thread_local std::vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

double* TlsQrScratchV(std::size_t doubles) {
  static thread_local std::vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

double* TlsQrScratchW(std::size_t doubles) {
  static thread_local std::vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

// Vectorized dot product for the leaf factorization only. Dot() in blas.cc
// is deliberately scalar (no -ffast-math, so the compiler must preserve the
// serial reduction order); the leaves sit on the critical path of the
// blocked factorization, and a reordered reduction is fine there because
// leaf-blocked shapes are not bit-compared against the unblocked reference
// — single-panel shapes (min(m, n) < 2 * kQrPanelLeaf), which ARE
// bit-compared, never reach this function.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__AVX512F__)
constexpr Index kQrVecLen = 8;
#elif defined(__AVX__)
constexpr Index kQrVecLen = 4;
#else
constexpr Index kQrVecLen = 2;
#endif
// aligned(8): the reflector tails start at arbitrary 8-byte offsets.
typedef double QrVec __attribute__((
    vector_size(kQrVecLen * sizeof(double)), aligned(8)));

double DotVec(const double* x, const double* y, Index n) {
  QrVec acc0 = QrVec{};
  QrVec acc1 = QrVec{};
  Index i = 0;
  for (; i + 2 * kQrVecLen <= n; i += 2 * kQrVecLen) {
    acc0 += *reinterpret_cast<const QrVec*>(x + i) *
            *reinterpret_cast<const QrVec*>(y + i);
    acc1 += *reinterpret_cast<const QrVec*>(x + i + kQrVecLen) *
            *reinterpret_cast<const QrVec*>(y + i + kQrVecLen);
  }
  acc0 += acc1;
  double s = 0.0;
  for (Index l = 0; l < kQrVecLen; ++l) s += acc0[l];
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}
#else
constexpr Index kQrVecLen = 1;
typedef double QrVec;

double DotVec(const double* x, const double* y, Index n) {
  return Dot(x, y, n);
}
#endif

// Unblocked Householder factorization of columns [k0, k1) of the m-row
// column-major array `a` (LAPACK dgeqrf layout): on return the upper
// triangle holds R and the columns below the diagonal hold the Householder
// vectors; `tau[k]` holds the reflector coefficients. Each reflector is
// applied immediately to columns [k+1, cend) — the leaf for the blocked
// driver, the whole matrix for the unblocked reference. kVectorDot selects
// the reduction used in the apply step: the unblocked reference and narrow
// panels keep the scalar Dot (bit-reproducible against the reference), the
// leaves of wide panels use the vectorized one.
template <bool kVectorDot>
void FactorPanelImpl(double* a, Index m, Index k0, Index k1, Index cend,
                     double* tau) {
  for (Index k = k0; k < k1; ++k) {
    double* col = a + k * m + k;
    const Index len = m - k;
    double alpha = col[0];
    double xnorm = len > 1 ? Nrm2(col + 1, len - 1) : 0.0;
    if (xnorm == 0.0) {
      tau[k] = 0.0;
      continue;
    }
    double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
    double t = (beta - alpha) / beta;
    Scal(1.0 / (alpha - beta), col + 1, len - 1);
    tau[k] = t;
    col[0] = beta;

    // Apply (I - tau v v^T) to the trailing columns; v = [1; col[1:]].
    for (Index j = k + 1; j < cend; ++j) {
      double* cj = a + j * m + k;
      double s = cj[0] + (kVectorDot ? DotVec(col + 1, cj + 1, len - 1)
                                     : Dot(col + 1, cj + 1, len - 1));
      s *= t;
      cj[0] -= s;
      Axpy(-s, col + 1, cj + 1, len - 1);
    }
  }
}

void FactorPanel(Matrix* a, Index k0, Index k1, Index cend,
                 std::vector<double>* tau) {
  FactorPanelImpl<false>(a->data(), a->rows(), k0, k1, cend, tau->data());
}

// Materializes columns [c0, c1) of the dense unit lower-trapezoidal V into
// scratch storage: explicit zeros above the diagonal, explicit unit, the
// reflector tail from the dgeqrf layout. Each element is written exactly
// once, so the scratch needs no prior zeroing. (A reflector skipped with
// tau = 0 had a zero tail, so its V column comes out as e_c.)
void MaterializeV(const double* fact, Index m, Index c0, Index c1, double* v,
                  Index ldv) {
  for (Index c = c0; c < c1; ++c) {
    double* dst = v + c * ldv;
    std::memset(dst, 0, static_cast<std::size_t>(c) * sizeof(double));
    dst[c] = 1.0;
    std::memcpy(dst + c + 1, fact + c * m + c + 1,
                static_cast<std::size_t>(m - c - 1) * sizeof(double));
  }
}

// dlarft, forward columnwise, from a precomputed Gram block: column i of
// the kb x kb upper-triangular T is
//   T(0:i, i) = -tau_i * T(0:i, 0:i) * g(0:i, i),   T(i, i) = tau_i,
// where column i of `g` (leading dimension ldg) holds V^T v_i. Only the
// upper triangle of T is written (plus explicit zeros above a tau = 0
// diagonal, which keeps that reflector's whole T row at exact zero so its
// V column never contributes).
void BuildTFromGram(const double* tau, const double* g, Index ldg, Index kb,
                    double* t, Index ldt) {
  for (Index i = 0; i < kb; ++i) {
    const double ti = tau[i];
    double* tcol = t + i * ldt;
    tcol[i] = ti;
    if (i == 0) continue;
    if (ti == 0.0) {
      for (Index j = 0; j < i; ++j) tcol[j] = 0.0;
      continue;
    }
    const double* gi = g + static_cast<std::size_t>(i) * ldg;
    for (Index j = 0; j < i; ++j) tcol[j] = -ti * gi[j];
    TrmmUpperRaw(Trans::kNo, i, 1, t, ldt, tcol, ldt);
  }
}

// C := (I - V op(T) V^T) C for the len x nc block at `c` (leading dim ldc)
// — op(T) = T applies the aggregate's H_1...H_kb, op(T) = T^T its
// transpose. Three level-3 steps: W = V^T C (the tall-k A^T B kernel),
// W := op(T) W, C -= V W. V and T are raw views into the factorization's
// scratch storage.
void ApplyBlockReflector(const double* v, Index ldv, Index len, Index kb,
                         const double* t, Index ldt, Trans trans_t, double* c,
                         Index ldc, Index nc) {
  double* w = TlsQrScratchW(static_cast<std::size_t>(kb) * nc);
  GemmRaw(Trans::kYes, Trans::kNo, kb, nc, len, 1.0, v, ldv, c, ldc, 0.0, w,
          kb);
  TrmmUpperRaw(trans_t, kb, nc, t, ldt, w, kb);
  GemmRaw(Trans::kNo, Trans::kNo, len, nc, kb, -1.0, v, ldv, w, kb, 1.0, c,
          ldc);
}

// A factorization plus the whole-matrix compact-WY aggregate
// H_1 H_2 ... H_p = I - V T V^T: `fact` is the dgeqrf-layout factorization
// and V the dense unit lower-trapezoidal reflector matrix (m x p, zeros
// made explicit so every application is a plain GEMM) — both live in
// thread-local scratch, valid until the next factorization on this thread —
// and T the p x p upper-triangular factor, assembled panel by panel with
// the block-merge rule
//   T <- [[T_a, -T_a (V_a^T V_b) T_b], [0, T_b]].
// A single T for all of Q is what lets FormQBlocked collapse to one GEMM.
struct BlockedFactorization {
  Index m = 0;
  Index n = 0;
  const double* fact = nullptr;  // m x n, dgeqrf layout (scratch).
  Matrix t;
  std::vector<double> tau;
  const double* v = nullptr;  // m x p, leading dimension m (scratch).
};

Index PanelWidth(Index p) {
  return p >= kQrWidePanelMin ? kQrPanelWidthLarge : kQrPanelWidthSmall;
}

BlockedFactorization FactorizeBlocked(const Matrix& in) {
  const Index m = in.rows();
  const Index n = in.cols();
  const Index p = std::min(m, n);
  const Index nb = PanelWidth(p);

  BlockedFactorization f;
  f.m = m;
  f.n = n;
  f.tau.assign(static_cast<std::size_t>(p), 0.0);
  f.t = Matrix(p, p);  // Zero-initialized: strictly lower part stays zero.
  double* a = TlsQrScratchFact(static_cast<std::size_t>(m) * n);
  std::memcpy(a, in.data(), static_cast<std::size_t>(m) * n * sizeof(double));
  f.fact = a;
  double* v = TlsQrScratchV(static_cast<std::size_t>(m) * p);
  f.v = v;
  // Scratch for one Gram block row g = V_b^T V(:, 0:k1) and its transposed
  // leading columns (the merge's cross product).
  std::vector<double> g(static_cast<std::size_t>(nb) * p);
  std::vector<double> cross(static_cast<std::size_t>(p) * nb);

  for (Index k0 = 0; k0 < p; k0 += nb) {
    const Index kb = std::min(nb, p - k0);
    const Index k1 = k0 + kb;

    if (kb >= 2 * kQrPanelLeaf) {
      // Two-level panel: factor kQrPanelLeaf-column leaves with the
      // unblocked code, then push each leaf into the rest of the panel as
      // a block reflector, so the level-2 work scales with the leaf width,
      // not the panel width.
      for (Index l0 = k0; l0 < k1; l0 += kQrPanelLeaf) {
        const Index lb = std::min(kQrPanelLeaf, k1 - l0);
        const Index l1 = l0 + lb;
        FactorPanelImpl<true>(a, m, l0, l1, l1, f.tau.data());
        MaterializeV(a, m, l0, l1, v, m);
        if (l1 < k1) {
          double gleaf[kQrPanelLeaf * kQrPanelLeaf];
          double tleaf[kQrPanelLeaf * kQrPanelLeaf];
          const double* vleaf = v + static_cast<std::size_t>(l0) * m + l0;
          GemmRaw(Trans::kYes, Trans::kNo, lb, lb, m - l0, 1.0, vleaf, m,
                  vleaf, m, 0.0, gleaf, lb);
          BuildTFromGram(f.tau.data() + l0, gleaf, lb, lb, tleaf, lb);
          ApplyBlockReflector(vleaf, m, m - l0, lb, tleaf, lb, Trans::kYes,
                              a + l1 * m + l0, m, k1 - l1);
        }
      }
    } else {
      // Narrow panel (possible only when p < 2 * kQrPanelLeaf, or for the
      // ragged last panel): plain level-2 factorization with the scalar
      // reduction. For a single-panel matrix this reproduces the unblocked
      // R bit for bit.
      FactorPanelImpl<false>(a, m, k0, k1, k1, f.tau.data());
      MaterializeV(a, m, k0, k1, v, m);
    }

    // One Gram block row against every reflector so far: columns [0, k0)
    // are the cross products the T merge needs, columns [k0, k1) the
    // panel-internal products the T diagonal block needs. All those
    // V columns are zero above row k0, so the products start there.
    GemmRaw(Trans::kYes, Trans::kNo, kb, k1, m - k0, 1.0,
            v + static_cast<std::size_t>(k0) * m + k0, m, v + k0, m, 0.0,
            g.data(), kb);

    // T diagonal block (dlarft) from the panel-internal part of g.
    double* tdiag = f.t.col_data(k0) + k0;
    BuildTFromGram(f.tau.data() + k0,
                   g.data() + static_cast<std::size_t>(k0) * kb, kb, kb,
                   tdiag, f.t.rows());

    // Merge into the global aggregate:
    // T(0:k0, k0:k1) = -T_prev * (V_a^T V_b) * T_b, with V_a^T V_b the
    // transpose of g's leading k0 columns.
    if (k0 > 0) {
      for (Index j = 0; j < kb; ++j) {
        for (Index i = 0; i < k0; ++i) {
          cross[static_cast<std::size_t>(j) * k0 + i] =
              g[static_cast<std::size_t>(i) * kb + j];
        }
      }
      // Dense GEMM is safe: T_b's strictly lower part is exact zeros.
      GemmRaw(Trans::kNo, Trans::kNo, k0, kb, kb, -1.0, cross.data(), k0,
              tdiag, p, 0.0, f.t.col_data(k0), p);
      TrmmUpperRaw(Trans::kNo, k0, kb, f.t.data(), p, f.t.col_data(k0), p);
    }

    // Trailing update with the transposed aggregate: R's remaining columns
    // are Q^T A = (I - V T^T V^T) A applied panel by panel.
    if (k1 < n) {
      ApplyBlockReflector(v + static_cast<std::size_t>(k0) * m + k0, m,
                          m - k0, kb, tdiag, p, Trans::kYes, a + k1 * m + k0,
                          m, n - k1);
    }
  }
  return f;
}

// Forms the thin Q (m x p) in one sweep: Q = (I - V T V^T) E with E the
// first p columns of the identity, so V^T E is just V's leading p x p
// block transposed (unit upper triangular) and
//   Q = E - V (T V1^T)
// — a p x p triangular multiply plus a single m x p x p GEMM. This is the
// payoff of carrying one aggregate T for the whole factorization: Q
// formation runs entirely on the packed GEMM instead of reapplying panels.
Matrix FormQBlocked(const BlockedFactorization& f) {
  const Index m = f.m;
  const Index p = static_cast<Index>(f.tau.size());
  Matrix w(p, p);  // Zero-initialized: strictly lower part stays zero.
  for (Index j = 0; j < p; ++j) {
    double* wc = w.col_data(j);
    const double* vrow = f.v + j;  // Row j of V, stride m.
    for (Index i = 0; i <= j; ++i) {
      wc[i] = vrow[static_cast<std::size_t>(i) * m];
    }
  }
  TrmmUpperRaw(Trans::kNo, p, p, f.t.data(), p, w.data(), p);
  // beta = 0 on uninitialized storage: the packed GEMM's overwrite path
  // makes its single pass over Q the only pass — no zero-fill, no C read.
  Matrix q = Matrix::Uninitialized(m, p);
  GemmRaw(Trans::kNo, Trans::kNo, m, p, p, -1.0, f.v, m, w.data(), p, 0.0,
          q.data(), m);
  for (Index j = 0; j < p; ++j) q(j, j) += 1.0;
  return q;
}

// Copies R (p x n upper triangle) out of a dgeqrf-layout factorization.
Matrix ExtractR(const double* fact, Index m, Index n, Index p) {
  Matrix r(p, n);
  for (Index j = 0; j < n; ++j) {
    const Index top = std::min(j + 1, p);
    const double* src = fact + j * m;
    double* dst = r.col_data(j);
    for (Index i = 0; i < top; ++i) dst[i] = src[i];
  }
  return r;
}

Matrix ExtractR(const Matrix& fact, Index p) {
  return ExtractR(fact.data(), fact.rows(), fact.cols(), p);
}

// Unblocked thin-Q formation (reference path and small-matrix fast path):
// apply reflectors in reverse order, Q = H_0 H_1 ... H_{p-1} * I.
Matrix FormQUnblocked(const Matrix& fact, const std::vector<double>& tau) {
  const Index m = fact.rows();
  const Index p = static_cast<Index>(tau.size());
  Matrix q(m, p);
  for (Index j = 0; j < p; ++j) q(j, j) = 1.0;

  for (Index k = p - 1; k >= 0; --k) {
    const double t = tau[static_cast<std::size_t>(k)];
    if (t == 0.0) continue;
    const double* v = fact.col_data(k) + k;  // v[0] implicit 1.
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

bool UseUnblocked(const Matrix& a) {
  return std::min(a.rows(), a.cols()) <= kQrUnblockedMax;
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
  if (UseUnblocked(a)) return ThinQrUnblocked(a);
  BlockedFactorization f = FactorizeBlocked(a);
  Matrix r = ExtractR(f.fact, f.m, f.n, static_cast<Index>(f.tau.size()));
  return QrResult{FormQBlocked(f), std::move(r)};
}

Matrix QrOrthonormalize(const Matrix& a) {
  static Counter& calls = MetricCounter("qr.calls");
  calls.Add(1);
  DT_TRACE_SPAN("qr.orthonormalize");
  if (UseUnblocked(a)) return QrOrthonormalizeUnblocked(a);
  return FormQBlocked(FactorizeBlocked(a));
}

QrResult ThinQrUnblocked(const Matrix& a) {
  Matrix fact = a;
  const Index p = std::min(a.rows(), a.cols());
  std::vector<double> tau(static_cast<std::size_t>(p), 0.0);
  FactorPanel(&fact, 0, p, a.cols(), &tau);
  Matrix r = ExtractR(fact, p);
  return QrResult{FormQUnblocked(fact, tau), std::move(r)};
}

Matrix QrOrthonormalizeUnblocked(const Matrix& a) {
  Matrix fact = a;
  const Index p = std::min(a.rows(), a.cols());
  std::vector<double> tau(static_cast<std::size_t>(p), 0.0);
  FactorPanel(&fact, 0, p, a.cols(), &tau);
  return FormQUnblocked(fact, tau);
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
