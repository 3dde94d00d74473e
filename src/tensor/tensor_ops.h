// Tensor algebra: unfoldings, mode-n (TTM) products, Kronecker products.
//
// Conventions (Kolda & Bader, "Tensor Decompositions and Applications"):
//   * Unfold(X, n) is the I_n x (prod_{k != n} I_k) matricization with the
//     remaining modes ordered by increasing index, earlier modes fastest.
//   * ModeProduct(X, U, n) computes X x_n U where U is (J x I_n); the
//     result replaces dimension I_n by J. Pass Trans::kYes to contract with
//     U^T for a (I_n x J) matrix without materializing the transpose —
//     the form every ALS update uses (X x_n A^(n)T).
#ifndef DTUCKER_TENSOR_TENSOR_OPS_H_
#define DTUCKER_TENSOR_TENSOR_OPS_H_

#include <vector>

#include "linalg/blas.h"
#include "linalg/matrix.h"
#include "tensor/tensor.h"

namespace dtucker {

// Mode-n matricization (copy). Unfold(X, 0) is layout-preserving (pure
// reinterpretation of the flat buffer into an I_1 x rest matrix).
Matrix Unfold(const Tensor& x, Index mode);

// Inverse of Unfold: folds an (shape[mode] x rest) matrix back into a
// tensor of the given shape.
Tensor Fold(const Matrix& m, Index mode, const std::vector<Index>& shape);

// Gram of the mode-n unfolding, G = X_(n) X_(n)^T (I_n x I_n), accumulated
// directly from the flat tensor buffer via contiguous back-slab GEMMs — no
// Unfold copy is ever materialized. Deterministic by construction: slabs are
// grouped into a fixed shape-derived chunk partition (never a function of
// the thread count) with per-chunk accumulators reduced in ascending order,
// so the result is bitwise-identical for every SetBlasThreads() value.
Matrix ModeGram(const Tensor& x, Index mode);

// X x_mode op(U), where op(U) = U (J x I_mode) for Trans::kNo and
// op(U) = U^T for Trans::kYes (U is I_mode x J). Never materializes an
// unfolding: works slab-by-slab with GEMMs on contiguous memory.
Tensor ModeProduct(const Tensor& x, const Matrix& u, Index mode,
                   Trans trans = Trans::kNo);

// ModeProduct into a caller-owned output tensor. `out` is resized in place
// (retaining its backing allocation), so a workspace tensor reused across
// sweep iterations reaches a steady state with zero allocator traffic.
// `out` must not alias `x`.
void ModeProductInto(const Tensor& x, const Matrix& u, Index mode, Trans trans,
                     Tensor* out);

// ModeProductInto without its `tensor.mode_product` span, for a caller that
// runs many tiny products under one span of its own: an element query
// contracts one factor row per mode and element, and a span for each
// filled a client thread's 2^17-event trace ring within one traced
// serve-mixed run.
void ModeProductIntoUntraced(const Tensor& x, const Matrix& u, Index mode,
                             Trans trans, Tensor* out);

// Applies op(matrices[k]) along every mode k != skip_mode (pass
// skip_mode = -1 to contract every mode). Modes are applied in ascending
// order, shrinking the working tensor as early as possible.
Tensor ModeProductChain(const Tensor& x, const std::vector<Matrix>& matrices,
                        Index skip_mode, Trans trans = Trans::kNo);

// Kronecker product A (x) B: (ma*mb) x (na*nb).
Matrix Kronecker(const Matrix& a, const Matrix& b);

}  // namespace dtucker

#endif  // DTUCKER_TENSOR_TENSOR_OPS_H_
