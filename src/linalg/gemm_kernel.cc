#include "linalg/gemm_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"

namespace dtucker {

namespace {

inline Index RoundUp(Index x, Index to) { return (x + to - 1) / to * to; }

// One kMR x kNR tile of C += Apack-sliver * Bpack-sliver.
//
// The accumulators are explicit native-width vectors (GCC/Clang vector
// extensions) so they provably live in registers: a plain double array of
// this size gets spilled to the stack by GCC, costing ~4x throughput. The
// packed slivers are kGemmPackAlignment-aligned with kMR*8 / kNR*8 both
// multiples of the vector width, so the aligned vector loads below are
// valid; zero padding lets every tile run the full-size compute.
#if defined(__GNUC__) || defined(__clang__)
#if defined(__AVX512F__)
constexpr Index kVecLen = 8;
#elif defined(__AVX__)
constexpr Index kVecLen = 4;
#else
constexpr Index kVecLen = 2;
#endif
typedef double Vec __attribute__((vector_size(kVecLen * sizeof(double))));
constexpr Index kVecPerMR = kGemmMR / kVecLen;
static_assert(kGemmMR % kVecLen == 0, "MR must be a vector multiple");

template <bool kOverwrite>
void MicroKernel(Index kb, const double* __restrict ap,
                 const double* __restrict bp, double* __restrict c, Index ldc,
                 Index mr, Index nr) {
  Vec acc[kVecPerMR][kGemmNR];
  for (Index v = 0; v < kVecPerMR; ++v) {
    for (Index j = 0; j < kGemmNR; ++j) acc[v][j] = Vec{} ;
  }
  for (Index l = 0; l < kb; ++l) {
    const double* a = ap + l * kGemmMR;
    const double* b = bp + l * kGemmNR;
    Vec av[kVecPerMR];
    for (Index v = 0; v < kVecPerMR; ++v) {
      av[v] = *reinterpret_cast<const Vec*>(a + v * kVecLen);
    }
    for (Index j = 0; j < kGemmNR; ++j) {
      const double bj = b[j];
      for (Index v = 0; v < kVecPerMR; ++v) acc[v][j] += av[v] * bj;
    }
  }
  alignas(kGemmPackAlignment) double out[kGemmMR * kGemmNR];
  for (Index v = 0; v < kVecPerMR; ++v) {
    for (Index j = 0; j < kGemmNR; ++j) {
      *reinterpret_cast<Vec*>(out + v * kVecLen + j * kGemmMR) = acc[v][j];
    }
  }
  for (Index j = 0; j < nr; ++j) {
    double* cj = c + j * ldc;
    const double* sj = out + kGemmMR * j;
    if (kOverwrite) {
      for (Index i = 0; i < mr; ++i) cj[i] = sj[i];
    } else {
      for (Index i = 0; i < mr; ++i) cj[i] += sj[i];
    }
  }
}
#else
// Portable fallback for non-GNU compilers: scalar accumulator tile.
template <bool kOverwrite>
void MicroKernel(Index kb, const double* __restrict ap,
                 const double* __restrict bp, double* __restrict c, Index ldc,
                 Index mr, Index nr) {
  double acc[kGemmMR * kGemmNR] = {};
  for (Index l = 0; l < kb; ++l) {
    const double* a = ap + l * kGemmMR;
    const double* b = bp + l * kGemmNR;
    for (Index j = 0; j < kGemmNR; ++j) {
      const double bj = b[j];
      for (Index i = 0; i < kGemmMR; ++i) {
        acc[i + kGemmMR * j] += bj * a[i];
      }
    }
  }
  for (Index j = 0; j < nr; ++j) {
    double* cj = c + j * ldc;
    const double* sj = acc + kGemmMR * j;
    if (kOverwrite) {
      for (Index i = 0; i < mr; ++i) cj[i] = sj[i];
    } else {
      for (Index i = 0; i < mr; ++i) cj[i] += sj[i];
    }
  }
}
#endif

}  // namespace

std::size_t PackedASize(Index mb, Index kb) {
  return static_cast<std::size_t>(RoundUp(mb, kGemmMR)) *
         static_cast<std::size_t>(kb);
}

std::size_t PackedBSize(Index kb, Index nb) {
  return static_cast<std::size_t>(kb) *
         static_cast<std::size_t>(RoundUp(nb, kGemmNR));
}

void PackA(Trans trans, Index mb, Index kb, double alpha, const double* a,
           Index lda, double* dst) {
  for (Index p = 0; p < mb; p += kGemmMR) {
    const Index pr = std::min(kGemmMR, mb - p);
    if (trans == Trans::kNo) {
      // op(A)(p+i, l) = a[p+i + l*lda]: contiguous rows per column.
      for (Index l = 0; l < kb; ++l) {
        const double* src = a + p + l * lda;
        double* d = dst + l * kGemmMR;
        for (Index i = 0; i < pr; ++i) d[i] = alpha * src[i];
        for (Index i = pr; i < kGemmMR; ++i) d[i] = 0.0;
      }
    } else {
      // op(A)(p+i, l) = a[l + (p+i)*lda]: walk stored columns of A so the
      // reads are contiguous; the strided writes stay inside one sliver.
      for (Index i = 0; i < pr; ++i) {
        const double* src = a + (p + i) * lda;
        double* d = dst + i;
        for (Index l = 0; l < kb; ++l) d[l * kGemmMR] = alpha * src[l];
      }
      for (Index i = pr; i < kGemmMR; ++i) {
        double* d = dst + i;
        for (Index l = 0; l < kb; ++l) d[l * kGemmMR] = 0.0;
      }
    }
    dst += kGemmMR * kb;
  }
}

void PackB(Trans trans, Index kb, Index nb, const double* b, Index ldb,
           double* dst) {
  for (Index q = 0; q < nb; q += kGemmNR) {
    const Index qc = std::min(kGemmNR, nb - q);
    if (trans == Trans::kNo) {
      // op(B)(l, q+c) = b[l + (q+c)*ldb]: contiguous column reads.
      for (Index c = 0; c < qc; ++c) {
        const double* src = b + (q + c) * ldb;
        double* d = dst + c;
        for (Index l = 0; l < kb; ++l) d[l * kGemmNR] = src[l];
      }
      for (Index c = qc; c < kGemmNR; ++c) {
        double* d = dst + c;
        for (Index l = 0; l < kb; ++l) d[l * kGemmNR] = 0.0;
      }
    } else {
      // op(B)(l, q+c) = b[q+c + l*ldb]: each packed row is a contiguous
      // read of kNR stored-row elements.
      for (Index l = 0; l < kb; ++l) {
        const double* src = b + q + l * ldb;
        double* d = dst + l * kGemmNR;
        for (Index c = 0; c < qc; ++c) d[c] = src[c];
        for (Index c = qc; c < kGemmNR; ++c) d[c] = 0.0;
      }
    }
    dst += kGemmNR * kb;
  }
}

void GemmMacroKernel(Index mb, Index nb, Index kb, const double* apack,
                     const double* bpack, double* c, Index ldc,
                     bool overwrite) {
  for (Index jr = 0; jr < nb; jr += kGemmNR) {
    const Index nr = std::min(kGemmNR, nb - jr);
    const double* bp = bpack + (jr / kGemmNR) * (kGemmNR * kb);
    for (Index ir = 0; ir < mb; ir += kGemmMR) {
      const Index mr = std::min(kGemmMR, mb - ir);
      const double* ap = apack + (ir / kGemmMR) * (kGemmMR * kb);
      if (overwrite) {
        MicroKernel<true>(kb, ap, bp, c + ir + jr * ldc, ldc, mr, nr);
      } else {
        MicroKernel<false>(kb, ap, bp, c + ir + jr * ldc, ldc, mr, nr);
      }
    }
  }
}

namespace {

// Grow-only 64-byte-aligned scratch buffer. One instance lives per thread
// per operand (thread_local below), so repeated GEMM calls reuse the same
// allocation; ForkJoin's reused threads keep theirs for the process's
// lifetime.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  ~AlignedBuffer() { std::free(ptr_); }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  double* Ensure(std::size_t doubles) {
    if (doubles > capacity_) {
      std::free(ptr_);
      std::size_t bytes = doubles * sizeof(double);
      bytes = (bytes + kGemmPackAlignment - 1) / kGemmPackAlignment *
              kGemmPackAlignment;
      ptr_ = std::aligned_alloc(kGemmPackAlignment, bytes);
      DT_CHECK(ptr_ != nullptr) << "pack buffer allocation failed";
      // Growth only — steady state adds nothing, so the counter reports the
      // footprint of pack scratch actually allocated across all threads.
      static Counter& pack_bytes = MetricCounter("gemm.pack_bytes");
      pack_bytes.Add(bytes - capacity_ * sizeof(double));
      capacity_ = bytes / sizeof(double);
    }
    DT_DCHECK(reinterpret_cast<std::uintptr_t>(ptr_) % kGemmPackAlignment ==
              0);
    return static_cast<double*>(ptr_);
  }

 private:
  void* ptr_ = nullptr;
  std::size_t capacity_ = 0;
};

std::atomic<int> g_blas_threads{1};

// True while the calling thread runs BLAS tiles: RunBlasTiles then keeps
// the GEMMs nested in a tile on that thread instead of fanning out again.
thread_local bool tls_in_blas_worker = false;

class BlasWorkerScope {
 public:
  BlasWorkerScope() : previous_(tls_in_blas_worker) {
    tls_in_blas_worker = true;
  }
  ~BlasWorkerScope() { tls_in_blas_worker = previous_; }
  BlasWorkerScope(const BlasWorkerScope&) = delete;
  BlasWorkerScope& operator=(const BlasWorkerScope&) = delete;

 private:
  bool previous_;
};

}  // namespace

double* TlsPackBufferA(std::size_t doubles) {
  thread_local AlignedBuffer buffer;
  return buffer.Ensure(doubles);
}

double* TlsPackBufferB(std::size_t doubles) {
  thread_local AlignedBuffer buffer;
  return buffer.Ensure(doubles);
}

void SetBlasThreads(int num_threads) {
  if (num_threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    num_threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  g_blas_threads.store(num_threads, std::memory_order_relaxed);
}

int GetBlasThreads() {
  return g_blas_threads.load(std::memory_order_relaxed);
}

void RunBlasTiles(Index count,
                  const std::function<void(Index, Index)>& tiles) {
  const int width =
      tls_in_blas_worker
          ? 1
          : GetBlasThreads() / std::max(1, ActivePoolLeases());
  BlasWorkerScope scope;
  if (width <= 1 || count <= 1) {
    tiles(0, count);
    return;
  }
  ForkJoin(count, width, [&tiles](Index t, int) {
    BlasWorkerScope helper_scope;
    tiles(t, t + 1);
  });
}

}  // namespace dtucker
