#include "linalg/svd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

#include "linalg/blas.h"
#include "linalg/qr.h"

namespace dtucker {

namespace {

// One-sided Jacobi SVD of a square-ish matrix W (m x n, m >= n): rotates
// pairs of columns until they are mutually orthogonal. On return,
// W = U diag(s) and `v` accumulates the right rotations.
void OneSidedJacobi(Matrix* w, Matrix* v) {
  const Index n = w->cols();
  const Index m = w->rows();
  *v = Matrix::Identity(n);
  const double eps = std::numeric_limits<double>::epsilon();
  const int max_sweeps = 60;

  // Squared column norms (the diagonal of W^T W), computed once and kept
  // current through the rotation identities below — each pair then costs
  // one Dot (the off-diagonal entry) instead of three. The cached values
  // only steer the convergence test and rotation angles; the singular
  // values are re-measured exactly from the final columns by the caller.
  std::vector<double> colsq(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    const double* wj = w->col_data(j);
    colsq[static_cast<std::size_t>(j)] = Dot(wj, wj, m);
  }

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    for (Index p = 0; p < n - 1; ++p) {
      for (Index q = p + 1; q < n; ++q) {
        double* wp = w->col_data(p);
        double* wq = w->col_data(q);
        const double app = colsq[static_cast<std::size_t>(p)];
        const double aqq = colsq[static_cast<std::size_t>(q)];
        const double apq = Dot(wp, wq, m);
        if (std::fabs(apq) <= eps * std::sqrt(app * aqq) || apq == 0.0) {
          continue;
        }
        rotated = true;
        // Jacobi rotation that zeroes the (p,q) entry of W^T W.
        const double tau = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(
            1.0 / (std::fabs(tau) + std::sqrt(1.0 + tau * tau)), tau);
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        for (Index i = 0; i < m; ++i) {
          const double a = wp[i], b = wq[i];
          wp[i] = c * a - s * b;
          wq[i] = s * a + c * b;
        }
        double* vp = v->col_data(p);
        double* vq = v->col_data(q);
        for (Index i = 0; i < n; ++i) {
          const double a = vp[i], b = vq[i];
          vp[i] = c * a - s * b;
          vq[i] = s * a + c * b;
        }
        const double cross = 2.0 * c * s * apq;
        colsq[static_cast<std::size_t>(p)] =
            c * c * app - cross + s * s * aqq;
        colsq[static_cast<std::size_t>(q)] =
            s * s * app + cross + c * c * aqq;
      }
    }
    if (!rotated) break;
  }
}

// Extracts (U, s) from the post-Jacobi W = U diag(s) and sorts everything
// descending. Zero columns get an arbitrary orthonormal completion skipped:
// their singular value is 0 and U column is left as zeros (callers truncate).
SvdResult ExtractAndSort(Matrix w, Matrix v) {
  const Index m = w.rows();
  const Index n = w.cols();
  std::vector<double> s(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    s[static_cast<std::size_t>(j)] = Nrm2(w.col_data(j), m);
  }
  std::vector<Index> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), Index{0});
  std::sort(order.begin(), order.end(), [&](Index a, Index b) {
    return s[static_cast<std::size_t>(a)] > s[static_cast<std::size_t>(b)];
  });

  SvdResult out;
  out.u = Matrix(m, n);
  out.v = Matrix(v.rows(), n);
  out.s.resize(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    const Index src = order[static_cast<std::size_t>(j)];
    const double sj = s[static_cast<std::size_t>(src)];
    out.s[static_cast<std::size_t>(j)] = sj;
    const double inv = sj > 0.0 ? 1.0 / sj : 0.0;
    const double* wc = w.col_data(src);
    double* uc = out.u.col_data(j);
    for (Index i = 0; i < m; ++i) uc[i] = wc[i] * inv;
    const double* vc = v.col_data(src);
    double* ovc = out.v.col_data(j);
    for (Index i = 0; i < v.rows(); ++i) ovc[i] = vc[i];
  }
  return out;
}

// ThinSvd after its power-of-two prescale.
SvdResult ThinSvdScaled(const Matrix& a) {
  const Index m = a.rows();
  const Index n = a.cols();
  if (m < n) {
    // SVD of A^T = V S U^T, then swap factors.
    SvdResult t = ThinSvdScaled(a.Transposed());
    return SvdResult{std::move(t.v), std::move(t.s), std::move(t.u)};
  }
  if (m > n) {
    // QR precondition: A = Q R, SVD(R) = Ur S V^T, so U = Q Ur.
    QrResult qr = ThinQr(a);
    SvdResult inner = ThinSvdScaled(qr.r);
    return SvdResult{Multiply(qr.q, inner.u), std::move(inner.s),
                     std::move(inner.v)};
  }
  // Square case: one-sided Jacobi.
  Matrix w = a;
  Matrix v;
  OneSidedJacobi(&w, &v);
  return ExtractAndSort(std::move(w), std::move(v));
}

}  // namespace

Matrix SvdResult::Reconstruct() const {
  Matrix us = UTimesS();
  return MultiplyNT(us, v);
}

Matrix SvdResult::UTimesS() const {
  // Fused copy+scale: one pass over each column instead of copy-then-Scal.
  Matrix us(u.rows(), u.cols());
  for (Index j = 0; j < us.cols(); ++j) {
    const double sj = s[static_cast<std::size_t>(j)];
    const double* src = u.col_data(j);
    double* dst = us.col_data(j);
    for (Index i = 0; i < us.rows(); ++i) dst[i] = src[i] * sj;
  }
  return us;
}

void SvdResult::Truncate(Index k) {
  if (k >= static_cast<Index>(s.size())) return;
  u = u.LeftCols(k);
  v = v.LeftCols(k);
  s.resize(static_cast<std::size_t>(k));
}

SvdResult ThinSvd(const Matrix& a) {
  const Index m = a.rows();
  const Index n = a.cols();
  if (m == 0 || n == 0) {
    return SvdResult{Matrix(m, 0), {}, Matrix(n, 0)};
  }
  // Run at the power-of-two scale that brings the largest entry into
  // [0.5, 1), as BatchedJacobiSvd does per lane: the squared column norms
  // of the Jacobi sweep then stay in range for any finite input, and both
  // scalings are exact, so U and V do not depend on the input's exponent.
  const double max_abs = a.MaxAbs();
  int exponent = 0;
  if (max_abs > 0.0 && std::isfinite(max_abs)) std::frexp(max_abs, &exponent);
  if (exponent == 0) return ThinSvdScaled(a);
  SvdResult out = ThinSvdScaled(a * std::ldexp(1.0, -exponent));
  for (double& sj : out.s) sj = std::ldexp(sj, exponent);
  return out;
}

namespace {

// One value (and one comparison mask) per lane of the batched Jacobi.
// aligned(8): the lane-interleaved columns start at arbitrary 8-byte
// offsets of plain double storage. Templates reach the types through
// LaneTypes<width> by name: passed as template arguments themselves they
// would lose aligned(8).
template <int kWidth>
struct LaneTypes {
  typedef double Lanes
      __attribute__((vector_size(kWidth * sizeof(double)), aligned(8)));
  typedef std::int64_t Mask
      __attribute__((vector_size(kWidth * sizeof(std::int64_t)), aligned(8)));
};

template <int kWidth>
using LanesOf = typename LaneTypes<kWidth>::Lanes;
template <int kWidth>
using MaskOf = typename LaneTypes<kWidth>::Mask;

// Correctly rounded like std::sqrt, so every width gives the same bits.
template <int kWidth>
LanesOf<kWidth> LaneSqrt(LanesOf<kWidth> x) {
#if defined(__AVX512F__)
  if constexpr (kWidth == 8) {
    // The masked form with every lane selected: the unmasked intrinsic
    // trips GCC 12's uninitialized-value warning inside its own header.
    const __m512d v = reinterpret_cast<__m512d>(x);
    return reinterpret_cast<LanesOf<kWidth>>(_mm512_mask_sqrt_pd(v, 0xFF, v));
  }
#endif
#if defined(__SSE2__)
  if constexpr (kWidth == 2) {
    return reinterpret_cast<LanesOf<kWidth>>(
        _mm_sqrt_pd(reinterpret_cast<__m128d>(x)));
  }
#endif
  for (int l = 0; l < kWidth; ++l) x[l] = std::sqrt(x[l]);
  return x;
}

template <int kWidth>
LanesOf<kWidth> Splat(double x) {
  LanesOf<kWidth> v;
  for (int l = 0; l < kWidth; ++l) v[l] = x;
  return v;
}

template <int kWidth>
LanesOf<kWidth> LaneAbs(LanesOf<kWidth> x) {
  return x < 0.0 ? -x : x;
}

// |x| with the sign bit of `sign` (std::copysign, lane by lane).
template <int kWidth>
LanesOf<kWidth> LaneCopySign(LanesOf<kWidth> x, LanesOf<kWidth> sign) {
  using M = MaskOf<kWidth>;
  const M sign_bit = M{} + std::numeric_limits<std::int64_t>::min();
  return reinterpret_cast<LanesOf<kWidth>>(
      (reinterpret_cast<M>(x) & ~sign_bit) |
      (reinterpret_cast<M>(sign) & sign_bit));
}

template <int kWidth>
bool AnyLane(MaskOf<kWidth> m) {
  for (int l = 0; l < kWidth; ++l) {
    if (m[l] != 0) return true;
  }
  return false;
}

template <int kWidth>
LanesOf<kWidth>* LaneColumn(double* base, Index n, Index j) {
  return reinterpret_cast<LanesOf<kWidth>*>(base) + j * n;
}

std::vector<double>& TlsJacobiScratch(std::size_t doubles) {
  static thread_local std::vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf;
}

// The scalar OneSidedJacobi above, one matrix per lane, with the same
// rotation formulas and cached squared column norms; the per-pair skip
// becomes a lane mask. Two changes serve the batch:
//   - The pairs run in round-robin order. Each round's pairs touch
//     disjoint columns, so their dot products, angles (a chain of
//     divisions and square roots) and rotations are independent and
//     overlap in the pipeline.
//   - Each lane is first scaled by a power of two that brings its largest
//     entry into [0.5, 1), and its singular values are scaled back at the
//     end. Both steps are exact, so the bits are those of the unscaled
//     iteration wherever that one neither overflows nor underflows, and
//     the overall magnitude of the input can no longer push its squared
//     norms out of double's range.
template <int kWidth>
void JacobiLanes(Index n, double* w, double* v, double* s) {
  using Lanes = LanesOf<kWidth>;
  using LaneMask = MaskOf<kWidth>;
  constexpr Index kLanes = kWidth;
  const Lanes eps = Splat<kWidth>(std::numeric_limits<double>::epsilon());
  const Lanes zero = Splat<kWidth>(0.0);
  const Lanes one = Splat<kWidth>(1.0);
  const std::size_t count = static_cast<std::size_t>(n * n);

  int exponent[kLanes] = {};
  {
    Lanes max_abs = zero;
    for (std::size_t e = 0; e < count; ++e) {
      const Lanes a = LaneAbs<kWidth>(reinterpret_cast<Lanes*>(w)[e]);
      max_abs = max_abs < a ? a : max_abs;
    }
    Lanes scale = one;
    for (Index l = 0; l < kLanes; ++l) {
      exponent[l] = 0;
      if (max_abs[l] > 0.0 && std::isfinite(max_abs[l])) {
        std::frexp(max_abs[l], &exponent[l]);
      }
      scale[l] = std::ldexp(1.0, -exponent[l]);
    }
    for (std::size_t e = 0; e < count; ++e) {
      reinterpret_cast<Lanes*>(w)[e] *= scale;
    }
  }
  std::memset(v, 0, count * kLanes * sizeof(double));
  for (Index j = 0; j < n; ++j) LaneColumn<kWidth>(v, n, j)[j] = one;

  // Scratch: the cached squared column norms, then per round each pair's
  // (apq, c, s, mask), then the copies the final sort reads from.
  const Index players = n + (n & 1);  // A dummy column pads odd n.
  const Index half = players / 2;
  std::vector<double>& scratch = TlsJacobiScratch(
      static_cast<std::size_t>((n + 4 * half) * kLanes) + 2 * count * kLanes);
  Lanes* colsq = reinterpret_cast<Lanes*>(scratch.data());
  Lanes* pair_apq = colsq + n;
  Lanes* pair_c = pair_apq + half;
  Lanes* pair_s = pair_c + half;
  LaneMask* pair_rot = reinterpret_cast<LaneMask*>(pair_s + half);
  for (Index j = 0; j < n; ++j) {
    const Lanes* wj = LaneColumn<kWidth>(w, n, j);
    Lanes acc = zero;
    for (Index i = 0; i < n; ++i) acc += wj[i] * wj[i];
    colsq[j] = acc;
  }

  // The circle method: slot 0 keeps column 0, the other slots rotate one
  // place a round; pair i of a round is (slot i, slot players - 1 - i).
  std::vector<Index> slot(static_cast<std::size_t>(players));
  const auto pair_of = [&](Index i, Index* p, Index* q) {
    const Index a = slot[static_cast<std::size_t>(i)];
    const Index b = slot[static_cast<std::size_t>(players - 1 - i)];
    *p = std::min(a, b);
    *q = std::max(a, b);
    return *q < n;  // False for the dummy's pair.
  };

  const int max_sweeps = 60;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool rotated = false;
    std::iota(slot.begin(), slot.end(), Index{0});
    for (Index round = 0; round + 1 < players; ++round) {
      bool any = false;
      for (Index i = 0; i < half; ++i) {
        Index p = 0, q = 0;
        pair_rot[i] = LaneMask{};
        if (!pair_of(i, &p, &q)) continue;
        const Lanes* wp = LaneColumn<kWidth>(w, n, p);
        const Lanes* wq = LaneColumn<kWidth>(w, n, q);
        // Two chains (even and odd rows), summed in a fixed order.
        Lanes d0 = zero, d1 = zero;
        Index r = 0;
        for (; r + 1 < n; r += 2) {
          d0 += wp[r] * wq[r];
          d1 += wp[r + 1] * wq[r + 1];
        }
        if (r < n) d0 += wp[r] * wq[r];
        const Lanes apq = d0 + d1;
        const Lanes bound = eps * LaneSqrt<kWidth>(colsq[p] * colsq[q]);
        const LaneMask skip = (LaneAbs<kWidth>(apq) <= bound) | (apq == 0.0);
        pair_apq[i] = apq;
        pair_rot[i] = ~skip;
        any = any || AnyLane<kWidth>(pair_rot[i]);
      }
      if (!any) {
        std::rotate(slot.begin() + 1, slot.end() - 1, slot.end());
        continue;
      }
      rotated = true;
      for (Index i = 0; i < half; ++i) {
        if (!AnyLane<kWidth>(pair_rot[i])) continue;
        Index p = 0, q = 0;
        pair_of(i, &p, &q);
        // Jacobi rotation that zeroes the (p,q) entry of W^T W. A lane
        // that skips this pair gets the exact identity rotation c = 1,
        // s = 0: its nonzero entries keep their bits, and no result depends
        // on the sign an exact zero might take.
        const LaneMask rot = pair_rot[i];
        const Lanes app = colsq[p];
        const Lanes aqq = colsq[q];
        const Lanes apq = pair_apq[i];
        const Lanes safe_apq = rot ? apq : one;
        const Lanes tau = (aqq - app) / (2.0 * safe_apq);
        const Lanes root = LaneSqrt<kWidth>(one + tau * tau);
        const Lanes t =
            LaneCopySign<kWidth>(one / (LaneAbs<kWidth>(tau) + root), tau);
        const Lanes c_rot = one / LaneSqrt<kWidth>(one + t * t);
        const Lanes c = rot ? c_rot : one;
        const Lanes sn = rot ? c_rot * t : zero;
        const Lanes cross = 2.0 * c * sn * apq;
        colsq[p] = c * c * app - cross + sn * sn * aqq;
        colsq[q] = sn * sn * app + cross + c * c * aqq;
        pair_c[i] = c;
        pair_s[i] = sn;
      }
      for (Index i = 0; i < half; ++i) {
        if (!AnyLane<kWidth>(pair_rot[i])) continue;
        Index p = 0, q = 0;
        pair_of(i, &p, &q);
        const Lanes c = pair_c[i];
        const Lanes sn = pair_s[i];
        for (double* base : {w, v}) {
          Lanes* xp = LaneColumn<kWidth>(base, n, p);
          Lanes* xq = LaneColumn<kWidth>(base, n, q);
          for (Index r = 0; r < n; ++r) {
            const Lanes a = xp[r], b = xq[r];
            xp[r] = c * a - sn * b;
            xq[r] = sn * a + c * b;
          }
        }
      }
      std::rotate(slot.begin() + 1, slot.end() - 1, slot.end());
    }
    if (!rotated) break;
  }

  // Singular values re-measured from the final columns, then each lane
  // sorted descending, its U columns normalized and its scale undone.
  Lanes* norms = colsq;
  for (Index j = 0; j < n; ++j) {
    const Lanes* wj = LaneColumn<kWidth>(w, n, j);
    Lanes acc = zero;
    for (Index i = 0; i < n; ++i) acc += wj[i] * wj[i];
    norms[j] = LaneSqrt<kWidth>(acc);
  }
  double* wcopy = scratch.data() + (n + 4 * half) * kLanes;
  double* vcopy = wcopy + count * kLanes;
  std::memcpy(wcopy, w, count * kLanes * sizeof(double));
  std::memcpy(vcopy, v, count * kLanes * sizeof(double));
  std::vector<Index> order(static_cast<std::size_t>(n));
  for (Index l = 0; l < kLanes; ++l) {
    std::iota(order.begin(), order.end(), Index{0});
    std::stable_sort(order.begin(), order.end(), [&](Index a, Index b) {
      return norms[a][l] > norms[b][l];
    });
    for (Index j = 0; j < n; ++j) {
      const Index src = order[static_cast<std::size_t>(j)];
      const double sj = norms[src][l];
      s[l * n + j] = std::ldexp(sj, exponent[l]);
      const double inv = sj > 0.0 ? 1.0 / sj : 0.0;
      for (Index i = 0; i < n; ++i) {
        w[(j * n + i) * kLanes + l] = wcopy[(src * n + i) * kLanes + l] * inv;
        v[(j * n + i) * kLanes + l] = vcopy[(src * n + i) * kLanes + l];
      }
    }
  }
}

}  // namespace

void BatchedJacobiSvd(Index n, double* w, double* v, double* s, int lanes) {
  DT_CHECK(lanes == kJacobiLanes || lanes == kJacobiNarrowLanes)
      << "unsupported Jacobi batch width " << lanes;
  if (n == 0) return;
  if (lanes == kJacobiLanes) {
    JacobiLanes<kJacobiLanes>(n, w, v, s);
  } else {
    JacobiLanes<kJacobiNarrowLanes>(n, w, v, s);
  }
}

Matrix LeadingLeftSingularVectors(const Matrix& a, Index k) {
  DT_CHECK_LE(k, std::min(a.rows(), a.cols()))
      << "requested more singular vectors than min(m,n)";
  SvdResult svd = ThinSvd(a);
  svd.Truncate(k);
  return svd.u;
}

}  // namespace dtucker
