// Hand-written BLAS-style kernels (no external BLAS is available).
//
// The raw-pointer routines operate on column-major data with explicit
// leading dimensions; the Matrix overloads are the interface the rest of
// the library uses. GemmRaw is a packed, register-blocked, optionally
// multithreaded kernel (see linalg/gemm_kernel.h for the engine); the
// level-1 routines are simple loops that the compiler vectorizes under
// -O3 -march=native.
#ifndef DTUCKER_LINALG_BLAS_H_
#define DTUCKER_LINALG_BLAS_H_

#include "linalg/matrix.h"

namespace dtucker {

enum class Trans { kNo, kYes };

// Process-wide BLAS thread count. The default is 1 (serial). With values
// > 1, GemmRaw, GemvRaw, SyrkRaw and the tensor mode products fan their
// large products out over that many threads (RunBlasTiles,
// linalg/gemm_kernel.h); <= 0 means "use
// std::thread::hardware_concurrency()". The setting is one relaxed int,
// read by each fork-join as it starts, so it may change while BLAS calls
// run; the width never changes result bits.
void SetBlasThreads(int num_threads);
int GetBlasThreads();

// C = alpha * op(A) * op(B) + beta * C, column-major, op per `trans`.
// Shapes: op(A) is m x k, op(B) is k x n, C is m x n. Transposed operands
// are absorbed by panel packing — no materialized copy is ever made.
void GemmRaw(Trans trans_a, Trans trans_b, Index m, Index n, Index k,
             double alpha, const double* a, Index lda, const double* b,
             Index ldb, double beta, double* c, Index ldc);

// Symmetric rank-k product C = op(A) op(A)^T (n x n), where op(A) is n x
// k: C = A A^T for trans = kNo (A is n x k), C = A^T A for kYes (A is
// k x n). C is overwritten (it may hold garbage) and comes out exactly
// symmetric. Only the lower-triangle tiles of a fixed grid are computed —
// about half of GemmRaw's work, with the packed path's micro-kernel — and
// each is mirrored into the upper triangle. The grid depends on n alone
// and the tiles fan out through RunBlasTiles (gemm_kernel.h), so the
// bits are the same at every thread count.
void SyrkRaw(Trans trans, Index n, Index k, const double* a, Index lda,
             double* c, Index ldc);

// y = alpha * op(A) * x + beta * y.
void GemvRaw(Trans trans_a, Index m, Index n, double alpha, const double* a,
             Index lda, const double* x, double beta, double* y);

double Dot(const double* x, const double* y, Index n);
void Axpy(double alpha, const double* x, double* y, Index n);
void Scal(double alpha, double* x, Index n);
double Nrm2(const double* x, Index n);
// max_i |x_i|, ignoring NaN entries; 0 for an empty or all-NaN vector.
double MaxAbs(const double* x, Index n);
// MaxAbs(x, n), and in the same pass *finite = whether every entry is
// finite (no NaN, no infinity).
double MaxAbsFinite(const double* x, Index n, bool* finite);

// In-place triangular solves, X (n x ncols): R X = B (upper, back
// substitution) and L X = B (lower, forward substitution) in axpy form.
// `r`/`l` are n x n column-major with the given leading dimension; entries
// outside the referenced triangle are never read, and the loops sweep
// columns of the triangle (contiguous memory). Diagonal entries must be
// nonzero (DT_CHECK).
void TrsmUpperRaw(Index n, Index ncols, const double* r, Index ldr, double* x,
                  Index ldx);
void TrsmLowerRaw(Index n, Index ncols, const double* l, Index ldl, double* x,
                  Index ldx);

// Matrix-level conveniences. All return newly allocated results.
Matrix Multiply(const Matrix& a, const Matrix& b);    // A * B
Matrix MultiplyTN(const Matrix& a, const Matrix& b);  // A^T * B
Matrix MultiplyNT(const Matrix& a, const Matrix& b);  // A * B^T
Matrix MultiplyTT(const Matrix& a, const Matrix& b);  // A^T * B^T

// General form: C = alpha * op(A) * op(B) + beta * C (C must be presized).
void Gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix* c);

// Gram matrix A^T A (SyrkRaw: exactly symmetric).
Matrix Gram(const Matrix& a);

}  // namespace dtucker

#endif  // DTUCKER_LINALG_BLAS_H_
