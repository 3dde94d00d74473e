#include "linalg/eigen_tridiag.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "linalg/blas.h"

namespace dtucker {

namespace {

// Native-width vectors (GCC/Clang vector extensions); aligned(8) because
// column segments start at arbitrary 8-byte offsets.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__AVX512F__)
constexpr Index kEigVecLen = 8;
#elif defined(__AVX__)
constexpr Index kEigVecLen = 4;
#else
constexpr Index kEigVecLen = 2;
#endif
typedef double EigVec
    __attribute__((vector_size(kEigVecLen * sizeof(double)), aligned(8)));
#else
constexpr Index kEigVecLen = 1;
typedef double EigVec;
#endif

inline EigVec LoadVec(const double* p) {
  EigVec v;
  std::memcpy(&v, p, sizeof(EigVec));
  return v;
}

inline void StoreVec(double* p, const EigVec& v) {
  std::memcpy(p, &v, sizeof(EigVec));
}

// Pairwise, so the latency is log2(lanes) adds rather than one per lane.
inline double SumLanes(const EigVec& v) {
  double lanes[kEigVecLen];
  std::memcpy(lanes, &v, sizeof(EigVec));
  for (Index width = kEigVecLen / 2; width > 0; width /= 2) {
    for (Index l = 0; l < width; ++l) lanes[l] += lanes[l + width];
  }
  return lanes[0];
}

inline Index RoundUpToVec(Index n) {
  return (n + kEigVecLen - 1) / kEigVecLen * kEigVecLen;
}

// Storage. The working copy of A and the accumulated Q are n x n inside
// buffers whose columns carry at least kEigVecLen - 1 rows of zero
// padding below row n. The padding stays zero through every update below
// (each one adds multiples of zero-padded vectors), so the vector kernels
// run over whole vectors, past the end of a column segment, with no
// scalar remainder. Their leading dimension is also kept off a multiple
// of 16 doubles, so the columns of a panel do not all fall into the same
// cache sets.
Index PaddedLd(Index n) {
  const Index ld = RoundUpToVec(n + kEigVecLen - 1);
  return ld % 16 == 0 ? ld + kEigVecLen : ld;
}

// The level-2 kernels below work on panels of kPanel adjacent columns (ld
// apart) over `len` rows, a multiple of kEigVecLen, so each pass loads the
// shared vector once for all of them and keeps kPanel independent
// accumulator chains.
constexpr Index kPanel = 4;

// dots[c] = a(:, c)^T x, and y += a * coef: a rectangular panel's two
// contributions to the symmetric product, in one pass over it.
void SymvPanel(const double* a, Index ld, Index len, const double* x,
               const double* coef_in, double* y, double* dots) {
  // Local copies: the stores through y could otherwise alias them.
  double coef[kPanel];
  for (Index c = 0; c < kPanel; ++c) coef[c] = coef_in[c];
  EigVec acc[kPanel] = {};
  for (Index r = 0; r < len; r += kEigVecLen) {
    const EigVec xv = LoadVec(x + r);
    EigVec yv = LoadVec(y + r);
    for (Index c = 0; c < kPanel; ++c) {
      const EigVec av = LoadVec(a + c * ld + r);
      acc[c] += av * xv;
      yv += av * coef[c];
    }
    StoreVec(y + r, yv);
  }
  for (Index c = 0; c < kPanel; ++c) dots[c] = SumLanes(acc[c]);
}

// a(:, c) -= x * u[c] + u * x[c] over the panel: the rank-2 update.
void Rank2Panel(double* a, Index ld, Index len, const double* x,
                const double* u, const double* xc_in, const double* uc_in) {
  double xc[kPanel], uc[kPanel];
  for (Index c = 0; c < kPanel; ++c) {
    xc[c] = xc_in[c];
    uc[c] = uc_in[c];
  }
  for (Index r = 0; r < len; r += kEigVecLen) {
    const EigVec xv = LoadVec(x + r);
    const EigVec uv = LoadVec(u + r);
    for (Index c = 0; c < kPanel; ++c) {
      double* ac = a + c * ld + r;
      StoreVec(ac, LoadVec(ac) - (xv * uc[c] + uv * xc[c]));
    }
  }
}

// dots[c] = a(:, c)^T x over the panel.
void DotPanel(const double* a, Index ld, Index len, const double* x,
              double* dots) {
  EigVec acc[kPanel] = {};
  for (Index r = 0; r < len; r += kEigVecLen) {
    const EigVec xv = LoadVec(x + r);
    for (Index c = 0; c < kPanel; ++c) acc[c] += LoadVec(a + c * ld + r) * xv;
  }
  for (Index c = 0; c < kPanel; ++c) dots[c] = SumLanes(acc[c]);
}

// a(:, c) -= coef[c] * x over the panel.
void AxpyPanel(double* a, Index ld, Index len, const double* x,
               const double* coef_in) {
  double coef[kPanel];
  for (Index c = 0; c < kPanel; ++c) coef[c] = coef_in[c];
  for (Index r = 0; r < len; r += kEigVecLen) {
    const EigVec xv = LoadVec(x + r);
    for (Index c = 0; c < kPanel; ++c) {
      double* ac = a + c * ld + r;
      StoreVec(ac, LoadVec(ac) - xv * coef[c]);
    }
  }
}

// The diagonal corner of a panel, the first jb <= kPanel rows of its
// columns: p += C v over the lower triangle of C (symmetric product) and
// C -= v u^T + u v^T on it (rank-2 update). Local copies keep the
// loop-carried sums in registers.
void SymvCorner(const double* a, Index ld, Index jb, const double* x,
                double* p) {
  double xs[kPanel] = {}, ps[kPanel] = {};
  for (Index c = 0; c < jb; ++c) xs[c] = x[c];
  for (Index c = 0; c < jb; ++c) {
    const double* col = a + c * ld;
    ps[c] += col[c] * xs[c];
    for (Index r = c + 1; r < jb; ++r) {
      ps[r] += col[r] * xs[c];
      ps[c] += col[r] * xs[r];
    }
  }
  for (Index c = 0; c < jb; ++c) p[c] += ps[c];
}

void Rank2Corner(double* a, Index ld, Index jb, const double* x,
                 const double* u) {
  double xs[kPanel] = {}, us[kPanel] = {};
  for (Index c = 0; c < jb; ++c) {
    xs[c] = x[c];
    us[c] = u[c];
  }
  for (Index c = 0; c < jb; ++c) {
    double* col = a + c * ld;
    for (Index r = c; r < jb; ++r) col[r] -= xs[r] * us[c] + us[r] * xs[c];
  }
}

// Reduces the lower triangle of the n x n matrix `a` (padded, leading
// dimension ld) to tridiagonal form T = Q^T A Q, one column at a time
// (LAPACK dsytd2, uplo = L). Step i forms the reflector H_i = I - tau_i v
// v^T that zeroes A(i+2 : n, i); v (v[0] = 1 implicit) is stored in
// A(i+2 : n, i). The trailing block A22 takes a symmetric matrix-vector
// product and a rank-2 update, both sweeping contiguous column segments of
// its lower triangle in panels of kPanel columns: a panel's kPanel x
// kPanel diagonal corner goes entry by entry, the rectangle below it
// through the panel kernels. On return d holds the diagonal of T, e[i]
// couples d[i] and d[i + 1], and tau the reflector coefficients; `p` is
// scratch of n + kEigVecLen doubles. The strict upper triangle of `a` is
// never read.
void Tridiagonalize(Index n, double* ad, Index ld, double* d, double* e,
                    double* tau, double* p) {
  for (Index i = 0; i + 1 < n; ++i) {
    d[i] = ad[i + i * ld];
    tau[i] = 0.0;
    // x = A(i+1 : n, i), m entries; A22 = A(i+1 : n, i+1 : n).
    double* x = ad + (i + 1) + i * ld;
    const Index m = n - i - 1;
    const double alpha = x[0];
    const double xnorm = m > 1 ? Nrm2(x + 1, m - 1) : 0.0;
    if (xnorm == 0.0) {
      e[i] = alpha;  // tau = 0: H_i = I.
      continue;
    }
    const double amax = std::max(std::fabs(alpha), xnorm);
    const double norm = amax > 1e-150 && amax < 1e150
                            ? std::sqrt(alpha * alpha + xnorm * xnorm)
                            : std::hypot(alpha, xnorm);
    const double beta = -std::copysign(norm, alpha);
    const double t = (beta - alpha) / beta;
    Scal(1.0 / (alpha - beta), x + 1, m - 1);
    x[0] = 1.0;
    e[i] = beta;
    tau[i] = t;

    // p = A22 v from the lower triangle.
    double* a22 = ad + (i + 1) + (i + 1) * ld;
    std::fill(p, p + m + kEigVecLen, 0.0);
    for (Index j0 = 0; j0 < m; j0 += kPanel) {
      const Index jb = std::min(kPanel, m - j0);
      SymvCorner(a22 + j0 + j0 * ld, ld, jb, x + j0, p + j0);
      const Index r0 = j0 + jb;
      if (r0 == m) break;
      const Index len = RoundUpToVec(m - r0);
      const double* panel = a22 + r0 + j0 * ld;
      if (jb == kPanel) {
        double dots[kPanel];
        SymvPanel(panel, ld, len, x + r0, x + j0, p + r0, dots);
        for (Index c = 0; c < kPanel; ++c) p[j0 + c] += dots[c];
      } else {
        for (Index c = 0; c < jb; ++c) {
          p[j0 + c] += Dot(panel + c * ld, x + r0, len);
          Axpy(x[j0 + c], panel + c * ld, p + r0, len);
        }
      }
    }
    // w = tau p - (tau^2 / 2)(p^T v) v, then A22 -= v w^T + w v^T.
    Scal(t, p, m);
    Axpy(-0.5 * t * Dot(p, x, m), x, p, m);
    for (Index j0 = 0; j0 < m; j0 += kPanel) {
      const Index jb = std::min(kPanel, m - j0);
      Rank2Corner(a22 + j0 + j0 * ld, ld, jb, x + j0, p + j0);
      const Index r0 = j0 + jb;
      if (r0 == m) break;
      const Index len = RoundUpToVec(m - r0);
      double* panel = a22 + r0 + j0 * ld;
      if (jb == kPanel) {
        Rank2Panel(panel, ld, len, x + r0, p + r0, x + j0, p + j0);
      } else {
        for (Index c = 0; c < jb; ++c) {
          Axpy(-p[j0 + c], x + r0, panel + c * ld, len);
          Axpy(-x[j0 + c], p + r0, panel + c * ld, len);
        }
      }
    }
    x[0] = beta;
  }
  d[n - 1] = ad[(n - 1) + (n - 1) * ld];
}

// Forms Q = H_0 H_1 ... H_{n-2} in `q` (padded, leading dimension ldq)
// from the reflectors Tridiagonalize left in `a`, backward, by columns:
// H_i touches rows and columns i+1 : n of the accumulated product, whose
// row i+1 is still e_{i+1}^T there. The columns i+2 : n go in panels of
// kPanel: one pass forms their dots with v, a second subtracts the
// multiples of v.
void FormQ(Index n, const double* a, Index lda, const double* tau, double* q,
           Index ldq) {
  for (Index j = 0; j < n; ++j) {
    std::fill(q + j * ldq, q + (j + 1) * ldq, 0.0);
    q[j + j * ldq] = 1.0;
  }
  for (Index i = n - 2; i >= 0; --i) {
    const double t = tau[i];
    if (t == 0.0) continue;
    // v = [1; a(i+2 : n, i)], acting on rows i+1 : n.
    const double* v = a + (i + 2) + i * lda;
    const Index len = RoundUpToVec(n - i - 2);
    Index j = i + 2;
    for (; j + kPanel <= n; j += kPanel) {
      double* panel = q + (i + 1) + j * ldq;  // Row i+1 is 0 here.
      double s[kPanel];
      DotPanel(panel + 1, ldq, len, v, s);
      for (Index c = 0; c < kPanel; ++c) {
        s[c] *= t;
        panel[c * ldq] = -s[c];
      }
      AxpyPanel(panel + 1, ldq, len, v, s);
    }
    for (; j < n; ++j) {
      double* cj = q + (i + 1) + j * ldq;
      const double s = t * Dot(v, cj + 1, len);
      cj[0] = -s;
      Axpy(-s, v, cj + 1, len);
    }
    double* ci = q + (i + 1) + (i + 1) * ldq;
    ci[0] = 1.0 - t;
    for (Index r = 0; r < n - i - 2; ++r) ci[r + 1] = -t * v[r];
  }
}

// The plane rotations of a whole QL run, in the order they act on the
// eigenvector columns: sweep k rotates the column pairs (i, i+1) for i
// from hi - 1 down to lo, with coefficients c[first + (hi - 1 - i)],
// s[first + (hi - 1 - i)].
struct Rotations {
  struct Sweep {
    Index lo, hi, first;
  };
  std::vector<Sweep> sweeps;
  std::vector<double> c, s;
};

// Applies every sweep of `rot` to the rows [0, kNv * kEigVecLen) of q: for
// i from hi - 1 down to lo, (col i, col i+1) <- (c col i - s col i+1,
// s col i + c col i+1). The block carries the column being rotated in
// registers along a sweep, so a rotation costs one load and one store per
// element, and the block's columns stay in L1 across all the sweeps.
template <int kNv>
void RotateRowBlock(double* q, Index ldq, const Rotations& rot) {
  for (const Rotations::Sweep& sw : rot.sweeps) {
    const double* c = rot.c.data() + sw.first;
    const double* s = rot.s.data() + sw.first;
    EigVec carry[kNv];
    for (int v = 0; v < kNv; ++v) {
      carry[v] = LoadVec(q + sw.hi * ldq + v * kEigVecLen);
    }
    for (Index i = sw.hi - 1, k = 0; i >= sw.lo; --i, ++k) {
      const double ck = c[k];
      const double sk = s[k];
      double* zi = q + i * ldq;
      for (int v = 0; v < kNv; ++v) {
        const EigVec x = LoadVec(zi + v * kEigVecLen);
        StoreVec(zi + ldq + v * kEigVecLen, sk * x + ck * carry[v]);
        carry[v] = ck * x - sk * carry[v];
      }
    }
    for (int v = 0; v < kNv; ++v) {
      StoreVec(q + sw.lo * ldq + v * kEigVecLen, carry[v]);
    }
  }
}

// Row blocks of up to four vectors (four independent carry chains) while
// a block's columns fit in L1, of two past that; the last block takes
// what is left.
void ApplyRotations(const Rotations& rot, Index n, double* q, Index ldq) {
  const Index vecs = RoundUpToVec(n) / kEigVecLen;
  const Index step = n <= 128 ? 4 : 2;
  for (Index v = 0; v < vecs; v += step) {
    double* block = q + v * kEigVecLen;
    switch (std::min(step, vecs - v)) {
      case 1:
        RotateRowBlock<1>(block, ldq, rot);
        break;
      case 2:
        RotateRowBlock<2>(block, ldq, rot);
        break;
      case 3:
        RotateRowBlock<3>(block, ldq, rot);
        break;
      default:
        RotateRowBlock<4>(block, ldq, rot);
        break;
    }
  }
}

// Implicit-shift QL iteration on the tridiagonal (d, e; e has room for n
// entries), recording its rotations in `rot` for ApplyRotations. An
// off-diagonal entry deflates once it is at most eps times the norm of T:
// the reduction already carries an error of that size, and a test
// relative to the two diagonal neighbours never fires on graded spectra
// (PSD Grams whose eigenvalues fall below eps ||T||). Rotations are formed
// with a plain sqrt on the block, which is scaled to unit norm first when
// its norm is far from 1. Returns false if an eigenvalue fails to converge
// within 30 sweeps.
bool QlImplicit(Index n, double* d, double* e, Rotations* rot) {
  rot->sweeps.clear();
  rot->c.clear();
  rot->s.clear();
  if (n <= 1) return true;
  double anorm = 0.0;
  for (Index i = 0; i < n; ++i) {
    double row = std::fabs(d[i]);
    if (i > 0) row += std::fabs(e[i - 1]);
    if (i + 1 < n) row += std::fabs(e[i]);
    anorm = std::max(anorm, row);
  }
  if (anorm == 0.0) return true;
  const bool scaled = anorm < 1e-100 || anorm > 1e100;
  if (scaled) {
    Scal(1.0 / anorm, d, n);
    Scal(1.0 / anorm, e, n - 1);
  }
  const double tol =
      std::numeric_limits<double>::epsilon() * (scaled ? 1.0 : anorm);
  e[n - 1] = 0.0;  // The sentinel the deflation scan stops on.

  for (Index l = 0; l < n; ++l) {
    int iterations = 0;
    for (;;) {
      Index m = l;
      while (m < n - 1 && std::fabs(e[m]) > tol) ++m;
      if (m == l) break;
      if (++iterations > 30) return false;
      // Wilkinson-style shift from the leading 2 x 2 of the block.
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::sqrt(g * g + 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0, c = 1.0, p = 0.0;
      const Index first = static_cast<Index>(rot->c.size());
      Index i = m - 1;
      bool underflow = false;
      for (; i >= l; --i) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = std::sqrt(f * f + g * g);
        e[i + 1] = r;
        if (r == 0.0) {
          // Rotation underflow: deflate and restart this eigenvalue.
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
        rot->c.push_back(c);
        rot->s.push_back(s);
      }
      // The rotations formed act on columns i + 1 .. m.
      if (i + 1 < m) rot->sweeps.push_back({i + 1, m, first});
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
  if (scaled) Scal(anorm, d, n);
  return true;
}

// EigenSymQr's buffers, grown on demand and kept per thread: the Ritz
// problems of the subspace iteration call it with the same small n many
// times per solve.
struct EigScratch {
  std::vector<double> a, q, d, e, tau, p;
  std::vector<Index> order;
  Rotations rot;
};

}  // namespace

Result<EigenSymResult> EigenSymQr(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("EigenSymQr requires a square matrix");
  }
  const Index n = a.rows();
  if (n == 0) return EigenSymResult{{}, Matrix(0, 0)};

  static thread_local EigScratch scratch;
  EigScratch& w = scratch;
  const Index ld = PaddedLd(n);
  const std::size_t square = static_cast<std::size_t>(ld * n);
  if (w.a.size() < square) {
    w.a.resize(square);
    w.q.resize(square);
  }
  const std::size_t vec = static_cast<std::size_t>(n + kEigVecLen);
  if (w.d.size() < vec) {
    w.d.resize(vec);
    w.e.resize(vec);
    w.tau.resize(vec);
    w.p.resize(vec);
    w.order.resize(vec);
  }
  // The lower triangle, and zero padding below it.
  for (Index j = 0; j < n; ++j) {
    double* col = w.a.data() + j * ld;
    std::copy(a.col_data(j) + j, a.col_data(j) + n, col + j);
    std::fill(col + n, col + ld, 0.0);
  }
  double* d = w.d.data();
  Tridiagonalize(n, w.a.data(), ld, d, w.e.data(), w.tau.data(), w.p.data());
  FormQ(n, w.a.data(), ld, w.tau.data(), w.q.data(), ld);
  if (!QlImplicit(n, d, w.e.data(), &w.rot)) {
    return Status::NumericalError("QL iteration failed to converge");
  }
  ApplyRotations(w.rot, n, w.q.data(), ld);

  // Sort descending.
  Index* order = w.order.data();
  std::iota(order, order + n, Index{0});
  std::sort(order, order + n, [d](Index x, Index y) { return d[x] > d[y]; });
  EigenSymResult out;
  out.values.resize(static_cast<std::size_t>(n));
  out.vectors = Matrix::Uninitialized(n, n);
  for (Index j = 0; j < n; ++j) {
    const double* src = w.q.data() + order[j] * ld;
    out.values[static_cast<std::size_t>(j)] = d[order[j]];
    std::copy(src, src + n, out.vectors.col_data(j));
  }
  return out;
}

}  // namespace dtucker
