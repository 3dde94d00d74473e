// HOSVD and sequentially-truncated HOSVD (ST-HOSVD).
//
// These serve as (a) initializers for HOOI-style iterations, and (b)
// standalone one-shot decompositions for comparison.
#ifndef DTUCKER_TUCKER_HOSVD_H_
#define DTUCKER_TUCKER_HOSVD_H_

#include "common/run_context.h"
#include "common/status.h"
#include "linalg/eigen_sym.h"
#include "tucker/tucker.h"

namespace dtucker {

// Classic HOSVD: each factor is the leading J_n left singular vectors of
// the mode-n unfolding of the *original* tensor; core is the projection.
// Bad ranks are an InvalidArgument error, never an abort. `ctx` (optional)
// is polled between mode updates; HOSVD is one-shot — no usable partial
// state — so an interruption surfaces as a kCancelled/kDeadlineExceeded
// error.
Result<TuckerDecomposition> Hosvd(const Tensor& x,
                                  const std::vector<Index>& ranks,
                                  const RunContext* ctx = nullptr);

// ST-HOSVD (Vannieuwenhoven et al.): truncates mode-by-mode, shrinking the
// working tensor after each mode. Usually faster and slightly more
// accurate than plain HOSVD. Same error/interruption contract as Hosvd.
Result<TuckerDecomposition> StHosvd(const Tensor& x,
                                    const std::vector<Index>& ranks,
                                    const RunContext* ctx = nullptr);

// Leading k left singular vectors of M computed from the I x I Gram matrix
// M M^T (cheap when M is short-and-wide, the typical unfolding shape).
Matrix LeadingLeftSingularVectorsViaGram(const Matrix& m, Index k);

// Leading k left singular vectors of the mode-n unfolding X_(n), computed
// matricization-free: the Gram X_(n) X_(n)^T is accumulated by ModeGram
// straight from the flat tensor buffer, so no unfolding copy is ever made.
// For the first or the last mode, whose unfolding is the flat buffer or
// its transpose, with the other dimensions' product m below the mode
// dimension and at least k (the iteration-phase shapes: I x prod(ranks)),
// the Gram is instead formed on the small side — X_(n)^T X_(n), m x m —
// and the left basis recovered by one thin QR, which is an order of
// magnitude cheaper when I >> prod(ranks). `subspace` (optional, in/out)
// is forwarded to TopEigenvectorsSym to warm-start its subspace iteration
// across repeated calls on slowly-moving operands (HOOI sweeps); pass
// nullptr for one-shot use. `eig_options` is forwarded to the same routine
// — outer iterations that re-solve every sweep pass a bounded, looser
// inner solve (inexact HOOI) and let the outer loop absorb the slack. The
// returned basis spans the same leading subspace on every path.
Matrix LeadingModeVectorsViaGram(const Tensor& x, Index mode, Index k,
                                 Matrix* subspace = nullptr,
                                 const SubspaceIterationOptions& eig_options = {});

}  // namespace dtucker

#endif  // DTUCKER_TUCKER_HOSVD_H_
