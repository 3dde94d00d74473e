// The packed, register-blocked GEMM engine behind linalg/blas.h.
//
// Layout follows the classic three-level (BLIS-style) scheme:
//
//   for jc in steps of kGemmNC:            // C column panel        (L3)
//     for lc in steps of kGemmKC:          // rank-KC update
//       pack op(B)(lc.., jc..) -> Bpack    // kNR-column slivers    (L1)
//       for ic in steps of kGemmMC:        // parallelized          (L2)
//         pack op(A)(ic.., lc..) -> Apack  // kMR-row slivers
//         macro kernel: kMR x kNR register micro-tiles over Apack/Bpack
//
// Packing absorbs operand transposes (both orientations read into the same
// panel format), so transposed GEMM never materializes a full copy of the
// operand: the working set is one MC x KC A block and one KC x NC B panel,
// held in thread-local buffers that are reused across calls.
//
// Threading: the ic loop, like every other BLAS fan-out, runs through
// RunBlasTiles on up to SetBlasThreads (linalg/blas.h) threads of the one
// worker set (ForkJoin, common/thread_pool.h). Tiles run inside a
// BLAS-worker marker, so GEMMs nested in a tile (mode-product slabs,
// ModeGram chunks) stay serial instead of fanning out again.
#ifndef DTUCKER_LINALG_GEMM_KERNEL_H_
#define DTUCKER_LINALG_GEMM_KERNEL_H_

#include <cstddef>
#include <functional>

#include "linalg/blas.h"

namespace dtucker {

// Register micro-tile, sized to the vector register file of the target
// ISA: two native vectors of C rows times kNR columns of accumulators
// (16 of 32 zmm registers under AVX-512, 12 of 16 ymm under AVX2), leaving
// room for the A vectors and B broadcasts.
#if defined(__AVX512F__)
inline constexpr Index kGemmMR = 16;
inline constexpr Index kGemmNR = 8;
#elif defined(__AVX__)
inline constexpr Index kGemmMR = 8;
inline constexpr Index kGemmNR = 6;
#else
inline constexpr Index kGemmMR = 4;
inline constexpr Index kGemmNR = 4;
#endif

// Cache blocks. The A block (kGemmMC x kGemmKC = 320 KiB) targets L2; one
// kMR x kKC A sliver (40 KiB) plus one kKC x kNR B sliver (20 KiB) cycle
// through L1 while a micro-tile of C lives in registers. The B panel
// (kGemmKC x kGemmNC, <= 10 MiB) targets L3.
inline constexpr Index kGemmMC = 128;
inline constexpr Index kGemmKC = 320;
inline constexpr Index kGemmNC = 4096;

static_assert(kGemmMC % kGemmMR == 0, "MC must be a multiple of MR");
static_assert(kGemmNC % kGemmNR == 0, "NC must be a multiple of NR");

// Flop volume (m * n * k) below which a product runs serially: threading
// it costs more than it saves. The packed and unpacked GEMM paths, the
// tensor mode products and ModeGram all apply it.
inline constexpr Index kGemmParallelVolume = Index(1) << 23;

// Byte alignment of the pack buffers (one cache line / one zmm vector).
inline constexpr std::size_t kGemmPackAlignment = 64;

// Doubles needed to pack an mb x kb block of op(A) / a kb x nb block of
// op(B), including zero padding of edge slivers up to kMR / kNR.
std::size_t PackedASize(Index mb, Index kb);
std::size_t PackedBSize(Index kb, Index nb);

// Packs the mb x kb block of op(A) whose top-left element is op(A)(0, 0) at
// `a` (leading dimension lda, orientation per `trans`) into kMR-row slivers:
// sliver p holds rows [p*kMR, (p+1)*kMR) column by column, contiguously.
// Every element is scaled by alpha; edge rows are zero-padded so the micro
// kernel can always run a full tile.
void PackA(Trans trans, Index mb, Index kb, double alpha, const double* a,
           Index lda, double* dst);

// Packs the kb x nb block of op(B) into kNR-column slivers: sliver q holds
// columns [q*kNR, (q+1)*kNR) row by row, contiguously. Edge columns are
// zero-padded.
void PackB(Trans trans, Index kb, Index nb, const double* b, Index ldb,
           double* dst);

// C(mb x nb) += Apack * Bpack, where the packs were produced by PackA/PackB
// (alpha already folded into Apack). C is column-major with leading
// dimension ldc. With overwrite = true the tile is stored instead of
// accumulated (C = Apack * Bpack): the beta = 0 path, which skips both the
// caller's zero-fill pass over C and the kernel's read of it — C may hold
// garbage (even NaN) and every element of the block is written.
void GemmMacroKernel(Index mb, Index nb, Index kb, const double* apack,
                     const double* bpack, double* c, Index ldc,
                     bool overwrite = false);

// Thread-local pack buffers, grown on demand and aligned to
// kGemmPackAlignment. Worker threads are reused for the life of the
// process (ForkJoin), so steady-state GEMM performs no allocation.
double* TlsPackBufferA(std::size_t doubles);
double* TlsPackBufferB(std::size_t doubles);

// Multiply-adds below which SyrkRaw and the subspace iteration's tiled
// product stay on the calling thread: a fork-join costs 10-20 us.
inline constexpr Index kTileParallelVolume = Index(1) << 21;

// Runs every tile t in [0, count) through tiles(begin, end), which runs
// the tiles [begin, end). The calling thread and up to w - 1 helpers
// claim single tiles in ascending order (ForkJoin, common/thread_pool.h),
// where w = min(count, GetBlasThreads() / max(1, ActivePoolLeases())): a
// D-Tucker chunk worker gets its lease share of the BLAS width, usually
// 1. Inside a tile, or at w = 1, the caller runs tiles(0, count) once.
// Either way the tiles run inside a BLAS-worker marker, so their own
// GEMMs stay serial. Callers apply their volume floor first: below it a
// fork-join costs more than it saves. The result must not depend on how
// the range is cut — tiles that write disjoint outputs with per-element
// arithmetic fixed by the grid — and then it is the same at every thread
// count.
void RunBlasTiles(Index count, const std::function<void(Index, Index)>& tiles);

}  // namespace dtucker

#endif  // DTUCKER_LINALG_GEMM_KERNEL_H_
