#include "tensor/tensor_ops.h"

#include <cstring>

#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/gemm_kernel.h"

namespace dtucker {

namespace {

// Splits the shape around `mode` into (front, dim, back) so the tensor can
// be treated as a (front x dim x back) array with front fastest.
struct ModeSplit {
  Index front = 1;
  Index dim = 0;
  Index back = 1;
};

ModeSplit SplitAtMode(const Tensor& x, Index mode) {
  DT_CHECK(mode >= 0 && mode < x.order()) << "mode out of range";
  ModeSplit s;
  for (Index k = 0; k < mode; ++k) s.front *= x.dim(k);
  s.dim = x.dim(mode);
  for (Index k = mode + 1; k < x.order(); ++k) s.back *= x.dim(k);
  return s;
}

// Number of independent accumulator chunks in ModeGram. A fixed constant
// (never derived from the thread count) so the floating-point reduction
// order — and therefore the result bits — do not change with
// SetBlasThreads().
constexpr Index kModeGramChunks = 8;

}  // namespace

Matrix Unfold(const Tensor& x, Index mode) {
  const ModeSplit s = SplitAtMode(x, mode);
  Matrix out(s.dim, s.front * s.back);
  const double* src = x.data();
  if (mode == 0) {
    // Layout-preserving: flat buffer is already (dim x back) column-major.
    std::memcpy(out.data(), src,
                static_cast<std::size_t>(x.size()) * sizeof(double));
    return out;
  }
  // Source flat index: f + front*(i + dim*b); destination: (i, f + front*b).
  for (Index b = 0; b < s.back; ++b) {
    for (Index i = 0; i < s.dim; ++i) {
      const double* col = src + s.front * (i + s.dim * b);
      for (Index f = 0; f < s.front; ++f) {
        out(i, f + s.front * b) = col[f];
      }
    }
  }
  return out;
}

Tensor Fold(const Matrix& m, Index mode, const std::vector<Index>& shape) {
  Tensor out(shape);
  const ModeSplit s = SplitAtMode(out, mode);
  DT_CHECK(m.rows() == s.dim && m.cols() == s.front * s.back)
      << "Fold shape mismatch";
  double* dst = out.data();
  if (mode == 0) {
    std::memcpy(dst, m.data(),
                static_cast<std::size_t>(out.size()) * sizeof(double));
    return out;
  }
  for (Index b = 0; b < s.back; ++b) {
    for (Index i = 0; i < s.dim; ++i) {
      double* col = dst + s.front * (i + s.dim * b);
      for (Index f = 0; f < s.front; ++f) {
        col[f] = m(i, f + s.front * b);
      }
    }
  }
  return out;
}

Matrix ModeGram(const Tensor& x, Index mode) {
  static Counter& calls = MetricCounter("tensor.mode_gram");
  calls.Add(1);
  DT_TRACE_SPAN("tensor.mode_gram");
  const ModeSplit s = SplitAtMode(x, mode);
  Matrix g = Matrix::Uninitialized(s.dim, s.dim);
  if (x.size() == 0) {
    // Degenerate unfolding with zero columns: the Gram is exactly zero.
    std::fill(g.data(), g.data() + g.size(), 0.0);
    return g;
  }
  if (mode == 0) {
    // The flat buffer already is X_(1) (dim x back) column-major: one
    // SyrkRaw, whose tiles may fan out (bitwise-deterministic by its fixed
    // tile grid).
    SyrkRaw(Trans::kNo, s.dim, s.back, x.data(), s.dim, g.data(), s.dim);
    return g;
  }

  // Back-slab b is a contiguous (front x dim) column-major block whose
  // columns are rows of X_(n), so G = sum_b slab_b^T slab_b.
  const std::size_t slab = static_cast<std::size_t>(s.front * s.dim);
  const double* src = x.data();
  const Index chunks = std::min(kModeGramChunks, s.back);
  auto run_chunk = [&](Index c, double* acc) {
    const Index begin = s.back * c / chunks;
    const Index end = s.back * (c + 1) / chunks;
    for (Index b = begin; b < end; ++b) {
      const double* sb = src + static_cast<std::size_t>(b) * slab;
      GemmRaw(Trans::kYes, Trans::kNo, s.dim, s.dim, s.front, 1.0, sb, s.front,
              sb, s.front, b == begin ? 0.0 : 1.0, acc, s.dim);
    }
  };
  if (chunks == 1) {
    // One slab: a single SyrkRaw, whose tiles may fan out.
    SyrkRaw(Trans::kYes, s.dim, s.front, src, s.front, g.data(), s.dim);
    return g;
  }

  // Chunk 0 accumulates into g directly; chunks 1..C-1 into partials.
  // Serial and threaded paths execute the identical chunk structure.
  std::vector<Matrix> partials(static_cast<std::size_t>(chunks - 1));
  for (Matrix& p : partials) p = Matrix::Uninitialized(s.dim, s.dim);
  auto chunk_acc = [&](Index c) {
    return c == 0 ? g.data() : partials[static_cast<std::size_t>(c - 1)].data();
  };
  // The chunks fan out only past GemmRaw's volume floor; below it the
  // fork-join costs more than the chunks (the chunk arithmetic is the
  // same either way).
  auto run_chunks = [&](Index begin, Index end) {
    for (Index c = begin; c < end; ++c) run_chunk(c, chunk_acc(c));
  };
  if (s.dim * s.dim * s.front * s.back >= kGemmParallelVolume) {
    RunBlasTiles(chunks, run_chunks);
  } else {
    run_chunks(0, chunks);
  }
  // Fixed-order reduction: ascending chunk index.
  for (Index c = 1; c < chunks; ++c) {
    Axpy(1.0, partials[static_cast<std::size_t>(c - 1)].data(), g.data(),
         g.size());
  }
  return g;
}

Tensor ModeProduct(const Tensor& x, const Matrix& u, Index mode, Trans trans) {
  Tensor out;
  ModeProductInto(x, u, mode, trans, &out);
  return out;
}

void ModeProductInto(const Tensor& x, const Matrix& u, Index mode, Trans trans,
                     Tensor* out) {
  DT_TRACE_SPAN("tensor.mode_product");
  ModeProductIntoUntraced(x, u, mode, trans, out);
}

void ModeProductIntoUntraced(const Tensor& x, const Matrix& u, Index mode,
                             Trans trans, Tensor* out) {
  static Counter& calls = MetricCounter("tensor.mode_product");
  calls.Add(1);
  DT_CHECK(static_cast<const Tensor*>(out) != &x)
      << "ModeProductInto output must not alias the input";
  const ModeSplit s = SplitAtMode(x, mode);
  const Index j = trans == Trans::kNo ? u.rows() : u.cols();
  const Index contracted = trans == Trans::kNo ? u.cols() : u.rows();
  DT_CHECK_EQ(contracted, s.dim) << "ModeProduct dimension mismatch at mode "
                                 << mode;

  std::vector<Index> new_shape = x.shape();
  new_shape[static_cast<std::size_t>(mode)] = j;
  out->ResizeTo(new_shape);

  if (mode == 0) {
    // out_(1) (j x front*back) = op(U) * X_(1); both unfoldings are
    // layout-preserving, so one GEMM over the flat buffers suffices.
    GemmRaw(trans == Trans::kNo ? Trans::kNo : Trans::kYes, Trans::kNo, j,
            s.back /* front == 1 */, s.dim, 1.0, u.data(), u.rows(), x.data(),
            s.dim, 0.0, out->data(), j);
    return;
  }

  // For each back-slab b, the source (front x dim) block is contiguous and
  // column-major; compute out_slab = src_slab * op(U)^T.
  //   trans == kNo : op(U)^T = U^T (dim x j)   -> GEMM(N, T) with U.
  //   trans == kYes: op(U)^T = U   (dim x j)   -> GEMM(N, N) with U.
  const std::size_t src_slab = static_cast<std::size_t>(s.front * s.dim);
  const std::size_t dst_slab = static_cast<std::size_t>(s.front * j);
  auto run_slab = [&](Index b) {
    GemmRaw(Trans::kNo, trans == Trans::kNo ? Trans::kYes : Trans::kNo,
            s.front, j, s.dim, 1.0,
            x.data() + static_cast<std::size_t>(b) * src_slab, s.front,
            u.data(), u.rows(), 0.0,
            out->data() + static_cast<std::size_t>(b) * dst_slab, s.front);
  };
  // With enough independent slabs and flops past GemmRaw's volume floor,
  // parallelize across slabs (each writes a disjoint output slab) and keep
  // the per-slab GEMMs serial; otherwise run the slab loop serially and
  // let big GEMMs thread internally. A slab's bits do not depend on the
  // thread that computes it.
  auto run_slabs = [&](Index begin, Index end) {
    for (Index b = begin; b < end; ++b) run_slab(b);
  };
  if (s.back >= GetBlasThreads() &&
      s.front * j * s.dim * s.back >= kGemmParallelVolume) {
    RunBlasTiles(s.back, run_slabs);
  } else {
    run_slabs(0, s.back);
  }
}

Tensor ModeProductChain(const Tensor& x, const std::vector<Matrix>& matrices,
                        Index skip_mode, Trans trans) {
  DT_CHECK_EQ(static_cast<Index>(matrices.size()), x.order())
      << "need one matrix per mode";
  Tensor cur = x;
  for (Index n = 0; n < x.order(); ++n) {
    if (n == skip_mode) continue;
    cur = ModeProduct(cur, matrices[static_cast<std::size_t>(n)], n, trans);
  }
  return cur;
}

namespace {

// dst = alpha * src over `n` doubles via the level-1 kernels (memcpy stays
// in cache for the Scal pass; both legs vectorize).
inline void ScaledCopy(double alpha, const double* src, double* dst, Index n) {
  std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(double));
  Scal(alpha, dst, n);
}

}  // namespace

Matrix Kronecker(const Matrix& a, const Matrix& b) {
  Matrix out = Matrix::Uninitialized(a.rows() * b.rows(), a.cols() * b.cols());
  const Index brows = b.rows();
  for (Index ja = 0; ja < a.cols(); ++ja) {
    for (Index jb = 0; jb < b.cols(); ++jb) {
      double* dst = out.col_data(ja * b.cols() + jb);
      const double* src = b.col_data(jb);
      for (Index ia = 0; ia < a.rows(); ++ia, dst += brows) {
        ScaledCopy(a(ia, ja), src, dst, brows);
      }
    }
  }
  return out;
}

}  // namespace dtucker
