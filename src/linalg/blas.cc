#include "linalg/blas.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "linalg/gemm_kernel.h"

namespace dtucker {

namespace {

// Problems below these sizes skip the packed engine: either the right-hand
// side is thin enough that packing overhead is not amortized (the dominant
// (I1 x I2)*(I2 x (J + p)) products of the slice rSVD), one side is thinner
// than a micro-tile row panel (padding would waste most of the kernel's
// work), or the whole product is tiny (the J x J x J multiplies of the
// iteration phase).
constexpr Index kThinN = 16;
constexpr Index kThinM = 16;
constexpr Index kSmallVolume = 32 * 32 * 32;

// Tall-k window of the transposed kernel: a small (<= 32 x 64) output with
// a long reduction dimension, and an A panel small enough (m * k doubles,
// <= 2 MiB) to stay cache-resident while the n sweep re-reads it, such as
// the subspace iteration's Rayleigh quotient Q^T (A Q).
constexpr Index kTallTnMaxM = 32;
constexpr Index kTallTnMaxN = 64;
constexpr Index kTallTnMinK = 256;
constexpr Index kTallTnMaxAPanel = Index(1) << 18;  // m * k doubles.

// The GEMV counterpart of kGemmParallelVolume (gemm_kernel.h): m * n.
constexpr Index kGemvParallelVolume = 1 << 20;

// Runs body(begin, end) over [0, n): past the caller's volume floor
// (`fan_out`) in tiles of `grain` through RunBlasTiles, else in one call.
template <typename Body>
void RunInTiles(Index n, Index grain, bool fan_out, const Body& body) {
  if (!fan_out) {
    body(Index{0}, n);
    return;
  }
  RunBlasTiles((n + grain - 1) / grain, [&](Index begin, Index end) {
    body(begin * grain, std::min(n, end * grain));
  });
}

// Native-width vectors (GCC/Clang vector extensions) for the unpacked
// kernels below and Nrm2. Explicit vector accumulators, as in the packed
// micro kernel: a plain double array of this size spills to the stack.
// aligned(8) because the column streams land on arbitrary 8-byte offsets.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__AVX512F__)
constexpr Index kVecLen = 8;
#elif defined(__AVX__)
constexpr Index kVecLen = 4;
#else
constexpr Index kVecLen = 2;
#endif
typedef double Vec
    __attribute__((vector_size(kVecLen * sizeof(double)), aligned(8)));
#else
constexpr Index kVecLen = 1;
typedef double Vec;
#endif

// Unpacked kernels for the shapes above. Neither copies an operand; both
// read op(B)(p, j) as b[p * rsb + j * csb], so either orientation of B is a
// (row, column) stride pair.
//
// Bitwise contract: every element of C is updated once, as C += alpha * s,
// where s is a sum over p whose order depends only on k. Vector lanes and
// scalar remainders accumulate in the same `acc += a * b` form (so both
// contract to the same FMA, or neither does). An element therefore gets the
// same bits whichever tile or thread row range computes it, which keeps
// the threaded row split identical to the serial result.

// NN kernel, C += alpha * A * op(B) with A column-major: a tile of kMv
// vectors of C rows by kNb columns holds kMv * kNb accumulators while p
// streams A's column segments in place (one read of A per tile column
// block, instead of one per C column) and broadcasts op(B)(p, j). V is Vec,
// or double for products with fewer rows than one vector. Rows [lo, hi) of
// the tile are stored. Prefetching the next row tile's segments keeps
// power-of-two leading dimensions (A's columns in one cache set) from
// stalling on memory.
template <typename V, int kMv, int kNb>
void NnTile(Index k, const double* a, Index lda, const double* b, Index rsb,
            Index csb, double alpha, double* c, Index ldc, Index lo,
            Index hi) {
  constexpr Index kLanes = sizeof(V) / sizeof(double);
  constexpr Index kTm = kMv * kLanes;
  V acc[kMv][kNb];
  for (int v = 0; v < kMv; ++v) {
    for (int j = 0; j < kNb; ++j) acc[v][j] = V{};
  }
  for (Index p = 0; p < k; ++p) {
    const double* ap = a + p * lda;
    const double* bp = b + p * rsb;
    V av[kMv];
    // memcpy, not a V* load: a template argument drops Vec's aligned(8).
    for (int v = 0; v < kMv; ++v) {
      std::memcpy(&av[v], ap + v * kLanes, sizeof(V));
    }
    for (int v = 0; v < kMv; ++v) {
      __builtin_prefetch(ap + kTm + v * kLanes, 0, 2);  // Next row tile.
    }
    for (int j = 0; j < kNb; ++j) {
      const double bj = bp[j * csb];
      for (int v = 0; v < kMv; ++v) acc[v][j] += av[v] * bj;
    }
  }
  double out[kTm * kNb];
  for (int j = 0; j < kNb; ++j) {
    for (int v = 0; v < kMv; ++v) {
      std::memcpy(out + j * kTm + v * kLanes, &acc[v][j], sizeof(V));
    }
  }
  for (int j = 0; j < kNb; ++j) {
    double* cj = c + j * ldc;
    for (Index i = lo; i < hi; ++i) cj[i] += alpha * out[j * kTm + i];
  }
}

// Up to 3 vectors x kNnMaxCols accumulators: 24 of the 32 AVX-512
// registers (12 of 16 with AVX), leaving room for the A and B operands.
// Three vectors of rows measured ~25% faster than two on 256^2 x 15.
constexpr int kNnMaxCols = kVecLen >= 8 ? 8 : 4;

using NnTileFn = void (*)(Index, const double*, Index, const double*, Index,
                          Index, double, double*, Index, Index, Index);

template <typename V, int kMv, std::size_t... kNb>
constexpr std::array<NnTileFn, sizeof...(kNb)> NnTiles(
    std::index_sequence<kNb...>) {
  return {&NnTile<V, kMv, static_cast<int>(kNb) + 1>...};
}

// Runs tile(i0, j0) over rows [row0, row1) in steps of tm and columns
// [0, n) in steps of tn. The tile grid walks the larger of op(A) and op(B)
// (m x k against k x n) in the outer loop, so it streams from memory once
// while the smaller one is re-read from cache.
template <typename Tile>
void ForEachTile(Index row0, Index row1, Index n, Index tm, Index tn,
                 const Tile& tile) {
  if (row1 - row0 >= n) {
    for (Index i0 = row0; i0 < row1; i0 += tm) {
      for (Index j0 = 0; j0 < n; j0 += tn) tile(i0, j0);
    }
  } else {
    for (Index j0 = 0; j0 < n; j0 += tn) {
      for (Index i0 = row0; i0 < row1; i0 += tm) tile(i0, j0);
    }
  }
}

// Rows [row0, row1) of C in tiles of kMv * lanes rows (which must not
// exceed m). A last, partial tile shifts back to end at row1 and stores
// only its new rows; the rows it recomputes, or reads below row0, are only
// read from A, never written.
template <typename V, int kMv>
void NnRows(Index row0, Index row1, Index n, Index k, double alpha,
            const double* a, Index lda, const double* b, Index rsb,
            Index csb, double* c, Index ldc) {
  static constexpr std::array<NnTileFn, kNnMaxCols> kTiles =
      NnTiles<V, kMv>(std::make_index_sequence<kNnMaxCols>());
  constexpr Index kTm = kMv * static_cast<Index>(sizeof(V) / sizeof(double));
  ForEachTile(row0, row1, n, kTm, kNnMaxCols, [&](Index i0, Index j0) {
    const Index start = std::min(i0, std::max<Index>(row1 - kTm, 0));
    kTiles[std::min<Index>(kNnMaxCols, n - j0) - 1](
        k, a + start, lda, b + j0 * csb, rsb, csb, alpha,
        c + start + j0 * ldc, ldc, i0 - start, std::min(kTm, row1 - start));
  });
}

// TN kernel, C += alpha * A^T * op(B): both operands are column streams
// along k, so each 4 x 4 tile of C keeps 16 vector accumulators while k
// streams one vector at a time (16 FMAs against 8 loads per step). Edge
// tiles repeat their last valid row or column pointer and run the same
// code, storing only the ib x jb valid corner. A non-unit row stride of
// op(B) (trans_b) assembles each B vector from strided scalars.
template <bool kUnitRowB>
void TnTile(Index k, const double* const* ac, const double* const* bc,
            Index rsb, double alpha, double* c, Index ldc, Index ib,
            Index jb) {
  Vec acc[4][4];
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) acc[i][j] = Vec{};
  }
  Index r = 0;
  for (; r + kVecLen <= k; r += kVecLen) {
    Vec av[4], bv[4];
    for (int i = 0; i < 4; ++i) {
      av[i] = *reinterpret_cast<const Vec*>(ac[i] + r);
    }
    for (int j = 0; j < 4; ++j) {
      if (kUnitRowB) {
        bv[j] = *reinterpret_cast<const Vec*>(bc[j] + r);
      } else {
        double lanes[kVecLen];
        for (Index l = 0; l < kVecLen; ++l) lanes[l] = bc[j][(r + l) * rsb];
        std::memcpy(&bv[j], lanes, sizeof(Vec));
      }
    }
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) acc[i][j] += av[i] * bv[j];
    }
  }
  for (int i = 0; i < ib; ++i) {
    for (int j = 0; j < jb; ++j) {
      double lanes[kVecLen];
      std::memcpy(lanes, &acc[i][j], sizeof(Vec));
      double s = 0.0;
      for (Index l = 0; l < kVecLen; ++l) s += lanes[l];
      for (Index rr = r; rr < k; ++rr) s += ac[i][rr] * bc[j][rr * rsb];
      c[i + j * ldc] += alpha * s;
    }
  }
}

template <bool kUnitRowB>
void TnRows(Index row0, Index row1, Index n, Index k, double alpha,
            const double* a, Index lda, const double* b, Index rsb,
            Index csb, double* c, Index ldc) {
  ForEachTile(row0, row1, n, 4, 4, [&](Index i0, Index j0) {
    const Index ib = std::min<Index>(4, row1 - i0);
    const Index jb = std::min<Index>(4, n - j0);
    const double* ac[4];
    const double* bc[4];
    for (Index t = 0; t < 4; ++t) {
      ac[t] = a + (i0 + std::min(t, ib - 1)) * lda;
      bc[t] = b + (j0 + std::min(t, jb - 1)) * csb;
    }
    TnTile<kUnitRowB>(k, ac, bc, rsb, alpha, c + i0 + j0 * ldc, ldc, ib, jb);
  });
}

// The unpacked path: C += alpha * op(A) * op(B), in tiles of 64 rows of C
// on RunBlasTiles for large products.
void GemmThinPath(Trans trans_a, Trans trans_b, Index m, Index n, Index k,
                  double alpha, const double* a, Index lda, const double* b,
                  Index ldb, double* c, Index ldc) {
  const Index rsb = trans_b == Trans::kNo ? 1 : ldb;
  const Index csb = trans_b == Trans::kNo ? ldb : 1;
  void (*rows)(Index, Index, Index, Index, double, const double*, Index,
               const double*, Index, Index, double*, Index);
  if (trans_a == Trans::kYes) {
    rows = rsb == 1 ? &TnRows<true> : &TnRows<false>;
  } else if (m >= 3 * kVecLen) {
    rows = &NnRows<Vec, 3>;
  } else if (m >= 2 * kVecLen) {
    rows = &NnRows<Vec, 2>;
  } else if (m >= kVecLen) {
    rows = &NnRows<Vec, 1>;
  } else {
    rows = &NnRows<double, 1>;
  }
  RunInTiles(m, /*grain=*/64, m * n * k >= kGemmParallelVolume,
             [&](Index begin, Index end) {
               rows(begin, end, n, k, alpha, a, lda, b, rsb, csb, c, ldc);
             });
}

// Packed three-level path (see linalg/gemm_kernel.h for the layout). The
// ic loop — disjoint row blocks of C — is the parallel axis; every worker
// packs its own A block into its thread-local buffer while sharing the
// caller-packed B panel read-only.
// `overwrite_c` is the beta = 0 contract: the first kc block stores its
// result into C (which may hold garbage) instead of accumulating, so the
// caller skips its zero-fill pass and the kernel its read of C.
void GemmPackedPath(Trans trans_a, Trans trans_b, Index m, Index n, Index k,
                    double alpha, const double* a, Index lda, const double* b,
                    Index ldb, double* c, Index ldc, bool overwrite_c) {
  const bool threaded = m * n * k >= kGemmParallelVolume;
  for (Index jc = 0; jc < n; jc += kGemmNC) {
    const Index nb = std::min(kGemmNC, n - jc);
    for (Index lc = 0; lc < k; lc += kGemmKC) {
      const Index kb = std::min(kGemmKC, k - lc);
      const bool overwrite = overwrite_c && lc == 0;
      double* bpack = TlsPackBufferB(PackedBSize(kb, nb));
      const double* bsrc =
          trans_b == Trans::kNo ? b + lc + jc * ldb : b + jc + lc * ldb;
      PackB(trans_b, kb, nb, bsrc, ldb, bpack);
      const Index num_blocks = (m + kGemmMC - 1) / kGemmMC;
      RunInTiles(num_blocks, /*grain=*/1, threaded,
                 [&](Index begin, Index end) {
                   for (Index ib = begin; ib < end; ++ib) {
                     const Index i0 = ib * kGemmMC;
                     const Index mb = std::min(kGemmMC, m - i0);
                     double* apack = TlsPackBufferA(PackedASize(mb, kb));
                     const double* asrc = trans_a == Trans::kNo
                                              ? a + i0 + lc * lda
                                              : a + lc + i0 * lda;
                     PackA(trans_a, mb, kb, alpha, asrc, lda, apack);
                     GemmMacroKernel(mb, nb, kb, apack, bpack,
                                     c + i0 + jc * ldc, ldc, overwrite);
                   }
                 });
    }
  }
}

}  // namespace

void GemmRaw(Trans trans_a, Trans trans_b, Index m, Index n, Index k,
             double alpha, const double* a, Index lda, const double* b,
             Index ldb, double beta, double* c, Index ldc) {
  if (m == 0 || n == 0) return;

  {
    // Counters only — no span: GemmRaw is called per J x J x J product in
    // the sweep inner loops, where even a disabled TraceSpan would show up.
    static Counter& calls = MetricCounter("gemm.calls");
    static Counter& flops = MetricCounter("gemm.flops");
    calls.Add(1);
    flops.Add(2ull * static_cast<std::uint64_t>(m) *
              static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(k));
  }

  // Route first: the beta handling below depends on it. Thin, short or
  // small products, and short-m transposed products with a long k (such
  // as Q^T (A Q) of the subspace iteration), take the unpacked kernels; the
  // rest the packed three-level path.
  const bool no_product = k == 0 || alpha == 0.0;
  const bool tall_tn = trans_a == Trans::kYes && trans_b == Trans::kNo &&
                       m <= kTallTnMaxM && n <= kTallTnMaxN &&
                       k >= kTallTnMinK && m * k <= kTallTnMaxAPanel;
  const bool m_fills_tiles = m % kGemmMR == 0;
  const bool thin = tall_tn || n <= kThinN || (m <= kThinM && !m_fills_tiles) ||
                    m * n * k <= kSmallVolume;
  const bool packed = !no_product && !thin;

  // Scale C by beta. The packed path handles beta = 0 itself (the first kc
  // block stores instead of accumulating), so a product headed there skips
  // this pass over C entirely; the unpacked kernels accumulate into small
  // or short C blocks where the memset is noise.
  if (beta == 0.0) {
    if (!packed) {
      for (Index j = 0; j < n; ++j) {
        std::memset(c + j * ldc, 0,
                    static_cast<std::size_t>(m) * sizeof(double));
      }
    }
  } else if (beta != 1.0) {
    for (Index j = 0; j < n; ++j) Scal(beta, c + j * ldc, m);
  }
  if (no_product) return;

  if (thin) {
    GemmThinPath(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }
  GemmPackedPath(trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, c, ldc,
                 /*overwrite_c=*/beta == 0.0);
}

namespace {

// Tile edge of SyrkRaw's grid: a multiple of every micro-tile edge
// (kGemmMR, kGemmNR), so tiles start on whole packed slivers and the
// diagonal falls on micro-tile boundaries, and small enough that a
// 300 x 300 Gram splits into 28 tiles.
constexpr Index kSyrkTile = 48;
static_assert(kSyrkTile % kGemmMR == 0 && kSyrkTile % kGemmNR == 0,
              "SyrkRaw tiles must start on whole slivers");

// Depth of SyrkRaw's kc blocks: deeper than GEMM's (kGemmKC), so the
// common Grams of a few hundred columns take one pass over the tiles; a
// kSyrkKC x kGemmNR B sliver (32 KiB) still fits in L1.
constexpr Index kSyrkKC = 512;

}  // namespace

void SyrkRaw(Trans trans, Index n, Index k, const double* a, Index lda,
             double* c, Index ldc) {
  if (n == 0) return;
  {
    static Counter& calls = MetricCounter("gemm.calls");
    static Counter& flops = MetricCounter("gemm.flops");
    calls.Add(1);
    flops.Add(static_cast<std::uint64_t>(n) *
              static_cast<std::uint64_t>(n + 1) *
              static_cast<std::uint64_t>(k));
  }
  if (k == 0) {
    for (Index j = 0; j < n; ++j) {
      std::memset(c + j * ldc, 0, static_cast<std::size_t>(n) * sizeof(double));
    }
    return;
  }
  // C = op(A) op(B) with op(B) = op(A)^T: GemmPackedPath's kc loop, in
  // blocks of kSyrkKC, over a grid of kSyrkTile blocks. Each kc block is
  // one RunBlasTiles pass over `side` pack tasks and then the lower tiles
  // (ti >= tj, numbered row by row). Pack task r packs row block r of
  // op(A) into the calling thread's pack buffers, as A slivers and as B
  // slivers, and flags it; a tile waits for the flags of its two row
  // blocks (claimed before it, so already running) and runs the macro
  // kernel on its slices of the packs. A diagonal tile runs each column
  // sliver only from the micro-tile row that holds its first diagonal
  // entry down. The last kc block mirrors each tile into the upper
  // triangle.
  const Index side = (n + kSyrkTile - 1) / kSyrkTile;
  const Index tiles = side * (side + 1) / 2;
  std::vector<std::atomic<Index>> packed(static_cast<std::size_t>(side));
  for (Index lc = 0, block = 1; lc < k; lc += kSyrkKC, ++block) {
    const Index kb = std::min(kSyrkKC, k - lc);
    const bool last = lc + kb == k;
    double* apack = TlsPackBufferA(PackedASize(n, kb));
    double* bpack = TlsPackBufferB(PackedBSize(kb, n));
    auto pack = [&](Index r) {
      const Index r0 = r * kSyrkTile;
      const Index rb = std::min(kSyrkTile, n - r0);
      if (trans == Trans::kNo) {
        PackA(Trans::kNo, rb, kb, 1.0, a + r0 + lc * lda, lda,
              apack + r0 * kb);
        PackB(Trans::kYes, kb, rb, a + r0 + lc * lda, lda, bpack + r0 * kb);
      } else {
        PackA(Trans::kYes, rb, kb, 1.0, a + lc + r0 * lda, lda,
              apack + r0 * kb);
        PackB(Trans::kNo, kb, rb, a + lc + r0 * lda, lda, bpack + r0 * kb);
      }
      packed[static_cast<std::size_t>(r)].store(block,
                                                std::memory_order_release);
    };
    auto tile = [&](Index t) {
      Index ti = 0;
      while ((ti + 1) * (ti + 2) / 2 <= t) ++ti;
      const Index tj = t - ti * (ti + 1) / 2;
      while (packed[static_cast<std::size_t>(ti)].load(
                 std::memory_order_acquire) != block ||
             packed[static_cast<std::size_t>(tj)].load(
                 std::memory_order_acquire) != block) {
        std::this_thread::yield();
      }
      const Index i0 = ti * kSyrkTile;
      const Index j0 = tj * kSyrkTile;
      const Index mb = std::min(kSyrkTile, n - i0);
      const Index nb = std::min(kSyrkTile, n - j0);
      double* ct = c + i0 + j0 * ldc;
      if (ti != tj) {
        GemmMacroKernel(mb, nb, kb, apack + i0 * kb, bpack + j0 * kb, ct, ldc,
                        /*overwrite=*/lc == 0);
      } else {
        for (Index jr = 0; jr < nb; jr += kGemmNR) {
          const Index r0 = jr / kGemmMR * kGemmMR;
          GemmMacroKernel(mb - r0, std::min(kGemmNR, nb - jr), kb,
                          apack + (i0 + r0) * kb, bpack + (j0 + jr) * kb,
                          ct + r0 + jr * ldc, ldc, /*overwrite=*/lc == 0);
        }
      }
      if (!last) return;
      for (Index j = 0; j < nb; ++j) {
        for (Index i = ti == tj ? j + 1 : 0; i < mb; ++i) {
          c[(j0 + j) + (i0 + i) * ldc] = ct[i + j * ldc];
        }
      }
    };
    RunInTiles(side + tiles, /*grain=*/1,
               n * (n + 1) / 2 * kb >= kTileParallelVolume,
               [&](Index begin, Index end) {
                 for (Index t = begin; t < end; ++t) {
                   if (t < side) {
                     pack(t);
                   } else {
                     tile(t - side);
                   }
                 }
               });
  }
}

void GemvRaw(Trans trans_a, Index m, Index n, double alpha, const double* a,
             Index lda, const double* x, double beta, double* y) {
  {
    static Counter& calls = MetricCounter("gemv.calls");
    static Counter& flops = MetricCounter("gemv.flops");
    calls.Add(1);
    flops.Add(2ull * static_cast<std::uint64_t>(m) *
              static_cast<std::uint64_t>(n));
  }
  const bool threaded = m * n >= kGemvParallelVolume;
  if (trans_a == Trans::kNo) {
    // y(m) = alpha * A(m x n) * x(n) + beta * y: axpy form over disjoint
    // row ranges of y.
    RunInTiles(m, /*grain=*/1024, threaded, [&](Index r0, Index r1) {
      const Index len = r1 - r0;
      if (beta == 0.0) {
        std::memset(y + r0, 0, static_cast<std::size_t>(len) * sizeof(double));
      } else if (beta != 1.0) {
        Scal(beta, y + r0, len);
      }
      for (Index j = 0; j < n; ++j) {
        Axpy(alpha * x[j], a + r0 + j * lda, y + r0, len);
      }
    });
  } else {
    // y(n) = alpha * A^T * x(m) + beta * y: one dot per output element.
    RunInTiles(n, /*grain=*/8, threaded, [&](Index j0, Index j1) {
      for (Index j = j0; j < j1; ++j) {
        double s = Dot(a + j * lda, x, m);
        y[j] = alpha * s + (beta == 0.0 ? 0.0 : beta * y[j]);
      }
    });
  }
}

double Dot(const double* x, const double* y, Index n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  Index i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return (s0 + s1) + (s2 + s3);
}

void Axpy(double alpha, const double* x, double* y, Index n) {
  for (Index i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scal(double alpha, double* x, Index n) {
  for (Index i = 0; i < n; ++i) x[i] *= alpha;
}

void TrsmUpperRaw(Index n, Index ncols, const double* r, Index ldr, double* x,
                  Index ldx) {
  for (Index c = 0; c < ncols; ++c) {
    double* xc = x + c * ldx;
    for (Index j = n - 1; j >= 0; --j) {
      const double* rj = r + j * ldr;
      DT_CHECK(rj[j] != 0.0) << "singular triangular system";
      const double xj = xc[j] / rj[j];
      xc[j] = xj;
      // Eliminate x_j from the rows above: x(0:j) -= x_j * R(0:j, j).
      Axpy(-xj, rj, xc, j);
    }
  }
}

void TrsmLowerRaw(Index n, Index ncols, const double* l, Index ldl, double* x,
                  Index ldx) {
  for (Index c = 0; c < ncols; ++c) {
    double* xc = x + c * ldx;
    for (Index j = 0; j < n; ++j) {
      const double* lj = l + j * ldl;
      DT_CHECK(lj[j] != 0.0) << "singular triangular system";
      const double xj = xc[j] / lj[j];
      xc[j] = xj;
      // Eliminate x_j from the rows below: x(j+1:n) -= x_j * L(j+1:n, j).
      Axpy(-xj, lj + j + 1, xc + j + 1, n - j - 1);
    }
  }
}

namespace {

// MaxAbs's loop; kCheckFinite also sums x - x, which is 0 for a finite
// entry and NaN for a NaN or infinite one.
template <bool kCheckFinite>
double MaxAbsImpl(const double* x, Index n, bool* finite) {
  // Every accumulator runs the scalar rule m = (m < |v|) ? |v| : m, so NaN
  // entries never replace a value and the result is +0 when nothing beats
  // it; max is exact, so splitting the chain across independent lanes
  // (instead of one dependent std::max chain) leaves the bits unchanged.
#if defined(__GNUC__) || defined(__clang__)
  Vec acc0 = Vec{};
  Vec acc1 = Vec{};
  Vec bad = Vec{};
  Index i = 0;
  for (; i + 2 * kVecLen <= n; i += 2 * kVecLen) {
    Vec v0 = *reinterpret_cast<const Vec*>(x + i);
    Vec v1 = *reinterpret_cast<const Vec*>(x + i + kVecLen);
    if (kCheckFinite) bad += (v0 - v0) + (v1 - v1);
    v0 = v0 < 0.0 ? -v0 : v0;
    v1 = v1 < 0.0 ? -v1 : v1;
    acc0 = acc0 < v0 ? v0 : acc0;
    acc1 = acc1 < v1 ? v1 : acc1;
  }
  acc0 = acc0 < acc1 ? acc1 : acc0;
  double m = 0.0;
  double bad_sum = 0.0;
  for (Index l = 0; l < kVecLen; ++l) {
    m = m < acc0[l] ? acc0[l] : m;
    bad_sum += bad[l];
  }
#else
  double m = 0.0;
  double bad_sum = 0.0;
  Index i = 0;
#endif
  for (; i < n; ++i) {
    if (kCheckFinite) bad_sum += x[i] - x[i];
    const double a = std::fabs(x[i]);
    m = m < a ? a : m;
  }
  if (kCheckFinite) *finite = bad_sum == 0.0;
  return m;
}

}  // namespace

double MaxAbs(const double* x, Index n) {
  return MaxAbsImpl<false>(x, n, nullptr);
}

double MaxAbsFinite(const double* x, Index n, bool* finite) {
  return MaxAbsImpl<true>(x, n, finite);
}

double Nrm2(const double* x, Index n) {
  // Fast path: plain sum of squares, vectorized explicitly (no -ffast-math,
  // so the compiler would otherwise keep the serial reduction order and the
  // per-element divisions of the scaled loop below). Falls through to the
  // scaled loop whenever the plain sum leaves the comfortably-normal range —
  // overflow (inf), underflow toward denormals, or an all-zero vector.
#if defined(__GNUC__) || defined(__clang__)
  Vec acc0 = Vec{};
  Vec acc1 = Vec{};
  Index i = 0;
  for (; i + 2 * kVecLen <= n; i += 2 * kVecLen) {
    const Vec v0 = *reinterpret_cast<const Vec*>(x + i);
    const Vec v1 =
        *reinterpret_cast<const Vec*>(x + i + kVecLen);
    acc0 += v0 * v0;
    acc1 += v1 * v1;
  }
  acc0 += acc1;
  double ssq_plain = 0.0;
  for (Index l = 0; l < kVecLen; ++l) ssq_plain += acc0[l];
  for (; i < n; ++i) ssq_plain += x[i] * x[i];
#else
  double ssq_plain = 0.0;
  for (Index i = 0; i < n; ++i) ssq_plain += x[i] * x[i];
#endif
  // Squares of entries below ~1e-146 or above ~1e146 lose accuracy or
  // overflow in double; a sum strictly inside (1e-292, 1e292) cannot have
  // been contaminated by either.
  if (ssq_plain > 1e-292 && ssq_plain < 1e292) return std::sqrt(ssq_plain);

  // Scaled accumulation to avoid overflow/underflow for extreme values.
  double scale = 0.0, ssq = 1.0;
  for (Index i = 0; i < n; ++i) {
    if (x[i] != 0.0) {
      double ax = std::fabs(x[i]);
      if (scale < ax) {
        ssq = 1.0 + ssq * (scale / ax) * (scale / ax);
        scale = ax;
      } else {
        ssq += (ax / scale) * (ax / scale);
      }
    }
  }
  return scale * std::sqrt(ssq);
}

void Gemm(Trans trans_a, Trans trans_b, double alpha, const Matrix& a,
          const Matrix& b, double beta, Matrix* c) {
  const Index m = trans_a == Trans::kNo ? a.rows() : a.cols();
  const Index ka = trans_a == Trans::kNo ? a.cols() : a.rows();
  const Index kb = trans_b == Trans::kNo ? b.rows() : b.cols();
  const Index n = trans_b == Trans::kNo ? b.cols() : b.rows();
  DT_CHECK_EQ(ka, kb) << "GEMM inner dimension mismatch";
  DT_CHECK(c->rows() == m && c->cols() == n) << "GEMM output shape mismatch";
  GemmRaw(trans_a, trans_b, m, n, ka, alpha, a.data(), a.rows(), b.data(),
          b.rows(), beta, c->data(), c->rows());
}

Matrix Multiply(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  Gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, &c);
  return c;
}

Matrix MultiplyTN(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  Gemm(Trans::kYes, Trans::kNo, 1.0, a, b, 0.0, &c);
  return c;
}

Matrix MultiplyNT(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  Gemm(Trans::kNo, Trans::kYes, 1.0, a, b, 0.0, &c);
  return c;
}

Matrix MultiplyTT(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.rows());
  Gemm(Trans::kYes, Trans::kYes, 1.0, a, b, 0.0, &c);
  return c;
}

Matrix Gram(const Matrix& a) {
  const Index n = a.cols();
  Matrix g = Matrix::Uninitialized(n, n);
  SyrkRaw(Trans::kYes, n, a.rows(), a.data(), a.rows(), g.data(), n);
  return g;
}

}  // namespace dtucker
