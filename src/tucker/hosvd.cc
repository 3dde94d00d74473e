#include "tucker/hosvd.h"

#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "linalg/qr.h"
#include "tensor/tensor_ops.h"
#include "tucker/tucker_als.h"

namespace dtucker {

Matrix LeadingLeftSingularVectorsViaGram(const Matrix& m, Index k) {
  DT_CHECK_LE(k, m.rows()) << "rank exceeds row count";
  // G = M M^T, I x I symmetric PSD; its top-k eigenvectors are the top-k
  // left singular vectors of M.
  Matrix g = Matrix::Uninitialized(m.rows(), m.rows());
  SyrkRaw(Trans::kNo, m.rows(), m.cols(), m.data(), m.rows(), g.data(),
          g.rows());
  return TopEigenvectorsSym(g, k);
}

Matrix LeadingModeVectorsViaGram(const Tensor& x, Index mode, Index k,
                                 Matrix* subspace,
                                 const SubspaceIterationOptions& eig_options) {
  DT_CHECK_LE(k, x.dim(mode)) << "rank exceeds mode dimension";
  const Index n = x.dim(mode);
  const Index m = n > 0 ? x.size() / n : 0;
  const bool first = mode == 0;
  if ((first || mode == x.order() - 1) && m < n && k <= m) {
    // Small-side path. The unfolding A = X_(mode) (n x m, m < n) is the flat
    // buffer itself for the first mode (n x m, column-major) and its
    // transpose for the last (m x n); `ta` reads A out of the buffer and
    // `tat` reads A^T. The iteration-phase factor updates land here: n is
    // a tensor dimension, m a product of ranks. Eigendecompose the small Gram
    // C = A^T A (m x m) instead of the large A A^T (n x n): the top-k
    // eigenvectors W are the leading right singular vectors of A, so Q
    // from the QR of A W spans — and, the columns of A W being orthogonal
    // with norms sigma_i, equals up to column signs — the leading left
    // singular basis. The QR is CholeskyQR2 (Householder when A W is too
    // ill-conditioned). Every step is a deterministic dense kernel, so the
    // result is thread-count invariant like the large-Gram path.
    const Trans ta = first ? Trans::kNo : Trans::kYes;
    const Trans tat = first ? Trans::kYes : Trans::kNo;
    const Index lda = first ? n : m;
    Matrix c = Matrix::Uninitialized(m, m);
    SyrkRaw(tat, m, n, x.data(), lda, c.data(), m);
    Matrix w = TopEigenvectorsSym(c, k, subspace, eig_options);
    Matrix u = Matrix::Uninitialized(n, k);
    GemmRaw(ta, Trans::kNo, n, k, m, 1.0, x.data(), lda, w.data(), m, 0.0,
            u.data(), n);
    Matrix q = Matrix::Uninitialized(n, k);
    CholeskyQr2Raw(u.data(), n, k, q.data(), nullptr);
    return q;
  }
  Matrix g = ModeGram(x, mode);
  return TopEigenvectorsSym(g, k, subspace, eig_options);
}

Result<TuckerDecomposition> Hosvd(const Tensor& x,
                                  const std::vector<Index>& ranks,
                                  const RunContext* ctx) {
  DT_RETURN_NOT_OK(ValidateRanks(x.shape(), ranks));
  DT_TRACE_SPAN("hosvd.solve");
  ScopedPhase phase(&GlobalPhaseTimer(), "hosvd.solve");
  TuckerDecomposition out;
  out.factors.resize(static_cast<std::size_t>(x.order()));
  for (Index n = 0; n < x.order(); ++n) {
    if (ctx != nullptr) DT_RETURN_NOT_OK(ctx->CheckStatus("hosvd mode update"));
    out.factors[static_cast<std::size_t>(n)] = LeadingModeVectorsViaGram(
        x, n, ranks[static_cast<std::size_t>(n)]);
  }
  out.core = ModeProductChain(x, out.factors, /*skip_mode=*/-1, Trans::kYes);
  return out;
}

Result<TuckerDecomposition> StHosvd(const Tensor& x,
                                    const std::vector<Index>& ranks,
                                    const RunContext* ctx) {
  DT_RETURN_NOT_OK(ValidateRanks(x.shape(), ranks));
  DT_TRACE_SPAN("sthosvd.solve");
  ScopedPhase phase(&GlobalPhaseTimer(), "sthosvd.solve");
  TuckerDecomposition out;
  out.factors.resize(static_cast<std::size_t>(x.order()));
  Tensor y = x;
  for (Index n = 0; n < x.order(); ++n) {
    if (ctx != nullptr) {
      DT_RETURN_NOT_OK(ctx->CheckStatus("st-hosvd mode update"));
    }
    Matrix a = LeadingModeVectorsViaGram(
        y, n, ranks[static_cast<std::size_t>(n)]);
    y = ModeProduct(y, a, n, Trans::kYes);
    out.factors[static_cast<std::size_t>(n)] = std::move(a);
  }
  out.core = std::move(y);
  return out;
}

}  // namespace dtucker
