// Randomized stress test for the packed/threaded GEMM kernel: every result
// is cross-checked against a naive triple-loop reference over all four
// transpose combinations, alpha/beta in {0, 1, -0.5}, non-square shapes,
// sub-matrix leading dimensions (ld > rows), and thread counts {1, 4}. A
// second sweep covers the unpacked thin-product kernels (n <= 16) edge by
// edge: every n, row counts around the vector tile sizes, and k from 1 to
// past a vector multiple.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "linalg/blas.h"
#include "linalg/gemm_kernel.h"

namespace dtucker {
namespace {

// A rows x cols column-major buffer with leading dimension ld >= rows; the
// padding rows hold a sentinel so kernels that read or write outside the
// logical sub-matrix corrupt something we can check.
struct Padded {
  Index rows = 0, cols = 0, ld = 0;
  std::vector<double> data;

  Padded(Index r, Index c, Index pad, Rng& rng) : rows(r), cols(c), ld(r + pad) {
    data.assign(static_cast<std::size_t>(ld * c), kSentinel);
    for (Index j = 0; j < c; ++j) {
      for (Index i = 0; i < r; ++i) at(i, j) = rng.Gaussian();
    }
  }

  double& at(Index i, Index j) {
    return data[static_cast<std::size_t>(i + j * ld)];
  }
  double at(Index i, Index j) const {
    return data[static_cast<std::size_t>(i + j * ld)];
  }

  bool PaddingIntact() const {
    for (Index j = 0; j < cols; ++j) {
      for (Index i = rows; i < ld; ++i) {
        if (at(i, j) != kSentinel) return false;
      }
    }
    return true;
  }

  static constexpr double kSentinel = -7.25e18;
};

// Reference C = alpha * op(A) * op(B) + beta * C, naive triple loop.
void NaiveGemm(Trans ta, Trans tb, Index m, Index n, Index k, double alpha,
               const Padded& a, const Padded& b, double beta, Padded* c) {
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) {
      double s = 0;
      for (Index l = 0; l < k; ++l) {
        const double av = ta == Trans::kNo ? a.at(i, l) : a.at(l, i);
        const double bv = tb == Trans::kNo ? b.at(l, j) : b.at(j, l);
        s += av * bv;
      }
      c->at(i, j) = alpha * s + beta * c->at(i, j);
    }
  }
}

struct Shape {
  Index m, n, k;
};

// Shapes chosen to hit: tiny and prime edges, the thin fast paths (n <= 16
// and m <= 16 with a large counterpart), the packed path with full and
// partial micro-tiles, and blocks crossing the MC/KC cache boundaries.
const Shape kShapes[] = {
    {1, 1, 1},      {3, 5, 4},     {17, 19, 23},  {64, 64, 64},
    {300, 10, 40},  {10, 300, 40}, {40, 40, 500}, {129, 65, 257},
    {150, 140, 330},
};

const double kAlphas[] = {0.0, 1.0, -0.5};
const double kBetas[] = {0.0, 1.0, -0.5};
const Trans kTrans[] = {Trans::kNo, Trans::kYes};

void RunSweep(Index pad) {
  Rng rng(1234 + static_cast<uint64_t>(pad));
  for (const Shape& sh : kShapes) {
    for (Trans ta : kTrans) {
      for (Trans tb : kTrans) {
        // Stored shapes of A and B given the op orientation.
        const Index ar = ta == Trans::kNo ? sh.m : sh.k;
        const Index ac = ta == Trans::kNo ? sh.k : sh.m;
        const Index br = tb == Trans::kNo ? sh.k : sh.n;
        const Index bc = tb == Trans::kNo ? sh.n : sh.k;
        Padded a(ar, ac, pad, rng);
        Padded b(br, bc, pad, rng);
        Padded c0(sh.m, sh.n, pad, rng);
        for (double alpha : kAlphas) {
          for (double beta : kBetas) {
            Padded c = c0;
            Padded expected = c0;
            NaiveGemm(ta, tb, sh.m, sh.n, sh.k, alpha, a, b, beta, &expected);
            GemmRaw(ta, tb, sh.m, sh.n, sh.k, alpha, a.data.data(), a.ld,
                    b.data.data(), b.ld, beta, c.data.data(), c.ld);
            double max_ref = 0, max_diff = 0;
            for (Index j = 0; j < sh.n; ++j) {
              for (Index i = 0; i < sh.m; ++i) {
                max_ref = std::max(max_ref, std::fabs(expected.at(i, j)));
                max_diff = std::max(
                    max_diff, std::fabs(c.at(i, j) - expected.at(i, j)));
              }
            }
            EXPECT_LE(max_diff, 1e-12 * std::max(max_ref, 1.0))
                << "m=" << sh.m << " n=" << sh.n << " k=" << sh.k
                << " ta=" << (ta == Trans::kYes) << " tb=" << (tb == Trans::kYes)
                << " alpha=" << alpha << " beta=" << beta << " pad=" << pad
                << " threads=" << GetBlasThreads();
            EXPECT_TRUE(c.PaddingIntact())
                << "kernel wrote outside the sub-matrix (pad rows)";
          }
        }
        EXPECT_TRUE(a.PaddingIntact());
        EXPECT_TRUE(b.PaddingIntact());
      }
    }
  }
}

class GemmStressTest : public ::testing::Test {
 protected:
  void TearDown() override { SetBlasThreads(1); }
};

TEST_F(GemmStressTest, SerialTightLd) {
  SetBlasThreads(1);
  RunSweep(/*pad=*/0);
}

TEST_F(GemmStressTest, SerialPaddedLd) {
  SetBlasThreads(1);
  RunSweep(/*pad=*/3);
}

TEST_F(GemmStressTest, FourThreadsTightLd) {
  SetBlasThreads(4);
  RunSweep(/*pad=*/0);
}

TEST_F(GemmStressTest, FourThreadsPaddedLd) {
  SetBlasThreads(4);
  RunSweep(/*pad=*/3);
}

// Threaded runs must be bit-identical to serial ones: the row-block
// partition fixes each output element's summation order regardless of
// which worker executes it.
TEST_F(GemmStressTest, ThreadedMatchesSerialBitwise) {
  Rng rng(77);
  const Index m = 384, n = 384, k = 384;
  Padded a(m, k, 2, rng);
  Padded b(k, n, 2, rng);
  Padded serial(m, n, 2, rng);
  Padded threaded = serial;
  SetBlasThreads(1);
  GemmRaw(Trans::kNo, Trans::kYes, m, n, k, 1.0, a.data.data(), a.ld,
          b.data.data(), b.ld, 0.0, serial.data.data(), serial.ld);
  SetBlasThreads(4);
  GemmRaw(Trans::kNo, Trans::kYes, m, n, k, 1.0, a.data.data(), a.ld,
          b.data.data(), b.ld, 0.0, threaded.data.data(), threaded.ld);
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) {
      ASSERT_EQ(serial.at(i, j), threaded.at(i, j))
          << "divergence at (" << i << ", " << j << ")";
    }
  }
}

// The thin-product kernels (n <= 16) against a naive reference: each n
// from 1 to 16, row counts below, at and past the vector tile heights, k
// from 1 to past a multiple of every vector width, both orientations of
// both operands, leading dimensions larger than the row counts, and
// beta = 0 over a NaN-filled C (which must be overwritten, not scaled).
TEST_F(GemmStressTest, ThinKernelsMatchNaive) {
  SetBlasThreads(1);
  Rng rng(2024);
  const Index kRows[] = {1, 7, 15, 16, 17, 33, 255, 300};
  const Index kDepths[] = {1, 15, 256, 513};
  const double kThinAlphas[] = {1.0, -0.5};
  const double kThinBetas[] = {0.0, 1.0, 0.25};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (Index n = 1; n <= 16; ++n) {
    for (Index m : kRows) {
      for (Index k : kDepths) {
        for (Trans ta : kTrans) {
          for (Trans tb : kTrans) {
            Padded a(ta == Trans::kNo ? m : k, ta == Trans::kNo ? k : m, 5,
                     rng);
            Padded b(tb == Trans::kNo ? k : n, tb == Trans::kNo ? n : k, 3,
                     rng);
            Padded c0(m, n, 2, rng);
            // Exact product terms summed naively, plus their magnitudes
            // for a rounding bound of k ulps.
            std::vector<double> prod(static_cast<std::size_t>(m * n));
            std::vector<double> mag(prod.size());
            for (Index j = 0; j < n; ++j) {
              for (Index i = 0; i < m; ++i) {
                double s = 0, t = 0;
                for (Index l = 0; l < k; ++l) {
                  const double av = ta == Trans::kNo ? a.at(i, l) : a.at(l, i);
                  const double bv = tb == Trans::kNo ? b.at(l, j) : b.at(j, l);
                  s += av * bv;
                  t += std::fabs(av * bv);
                }
                prod[static_cast<std::size_t>(i + j * m)] = s;
                mag[static_cast<std::size_t>(i + j * m)] = t;
              }
            }
            for (double alpha : kThinAlphas) {
              for (double beta : kThinBetas) {
                Padded c = c0;
                if (beta == 0.0) {
                  for (Index j = 0; j < n; ++j) {
                    for (Index i = 0; i < m; ++i) c.at(i, j) = nan;
                  }
                }
                GemmRaw(ta, tb, m, n, k, alpha, a.data.data(), a.ld,
                        b.data.data(), b.ld, beta, c.data.data(), c.ld);
                Index bad = 0;
                for (Index j = 0; j < n; ++j) {
                  for (Index i = 0; i < m; ++i) {
                    const std::size_t e = static_cast<std::size_t>(i + j * m);
                    const double ref =
                        alpha * prod[e] + beta * c0.at(i, j);
                    const double tol =
                        4e-16 * static_cast<double>(k + 2) *
                        (std::fabs(alpha) * mag[e] +
                         std::fabs(beta * c0.at(i, j)) + 1e-300);
                    if (!(std::fabs(c.at(i, j) - ref) <= tol)) ++bad;
                  }
                }
                EXPECT_EQ(bad, 0)
                    << "m=" << m << " n=" << n << " k=" << k
                    << " ta=" << (ta == Trans::kYes)
                    << " tb=" << (tb == Trans::kYes) << " alpha=" << alpha
                    << " beta=" << beta;
                EXPECT_TRUE(c.PaddingIntact());
              }
            }
            EXPECT_TRUE(a.PaddingIntact());
            EXPECT_TRUE(b.PaddingIntact());
          }
        }
      }
    }
  }
}

// A thin product big enough for the BLAS pool to split its rows, with a
// row count that is not a multiple of any vector tile: the split must not
// change a single bit, for every orientation.
TEST_F(GemmStressTest, ThreadedThinMatchesSerialBitwise) {
  Rng rng(99);
  const Index m = 2053, n = 15, k = 300;
  ASSERT_GE(m * n * k, Index{1} << 23);
  for (Trans ta : kTrans) {
    for (Trans tb : kTrans) {
      Padded a(ta == Trans::kNo ? m : k, ta == Trans::kNo ? k : m, 1, rng);
      Padded b(tb == Trans::kNo ? k : n, tb == Trans::kNo ? n : k, 1, rng);
      Padded serial(m, n, 1, rng);
      Padded threaded = serial;
      SetBlasThreads(1);
      GemmRaw(ta, tb, m, n, k, -0.5, a.data.data(), a.ld, b.data.data(),
              b.ld, 0.25, serial.data.data(), serial.ld);
      SetBlasThreads(4);
      GemmRaw(ta, tb, m, n, k, -0.5, a.data.data(), a.ld, b.data.data(),
              b.ld, 0.25, threaded.data.data(), threaded.ld);
      for (Index j = 0; j < n; ++j) {
        for (Index i = 0; i < m; ++i) {
          ASSERT_EQ(serial.at(i, j), threaded.at(i, j))
              << "divergence at (" << i << ", " << j
              << ") ta=" << (ta == Trans::kYes)
              << " tb=" << (tb == Trans::kYes);
        }
      }
    }
  }
}

// The Gemv fast paths share the pool; sanity-check both orientations at a
// size that crosses the threading threshold.
TEST_F(GemmStressTest, ThreadedGemvMatchesSerial) {
  Rng rng(88);
  const Index m = 2048, n = 600;
  Padded a(m, n, 1, rng);
  std::vector<double> x(static_cast<std::size_t>(n)), y1(
      static_cast<std::size_t>(m), 0.5), y4 = y1;
  for (double& v : x) v = rng.Gaussian();
  SetBlasThreads(1);
  GemvRaw(Trans::kNo, m, n, 2.0, a.data.data(), a.ld, x.data(), -0.5,
          y1.data());
  SetBlasThreads(4);
  GemvRaw(Trans::kNo, m, n, 2.0, a.data.data(), a.ld, x.data(), -0.5,
          y4.data());
  for (std::size_t i = 0; i < y1.size(); ++i) ASSERT_EQ(y1[i], y4[i]);

  std::vector<double> xt(static_cast<std::size_t>(m)),
      z1(static_cast<std::size_t>(n), 1.0), z4 = z1;
  for (double& v : xt) v = rng.Gaussian();
  SetBlasThreads(1);
  GemvRaw(Trans::kYes, m, n, 1.0, a.data.data(), a.ld, xt.data(), 1.0,
          z1.data());
  SetBlasThreads(4);
  GemvRaw(Trans::kYes, m, n, 1.0, a.data.data(), a.ld, xt.data(), 1.0,
          z4.data());
  for (std::size_t i = 0; i < z1.size(); ++i) ASSERT_EQ(z1[i], z4[i]);
}

// SyrkRaw against the GemmRaw product it replaces, both orientations,
// with padded leading dimensions: its lower triangle within 1e-12 of the
// product's (relative to the largest entry), an exactly symmetric result,
// and untouched padding. Shapes cover a single partial tile, tile edges
// (48), k = 0, and k past one kc block (512).
TEST_F(GemmStressTest, SyrkMatchesGemmLowerTriangle) {
  SetBlasThreads(1);
  const Shape kSyrkShapes[] = {{1, 1, 1},     {5, 5, 3},     {17, 17, 40},
                               {47, 47, 9},   {48, 48, 48},  {49, 49, 600},
                               {100, 100, 300}, {150, 150, 0}, {300, 300, 400}};
  Rng rng(77);
  for (const Shape& sh : kSyrkShapes) {
    for (Trans trans : kTrans) {
      const Index n = sh.n, k = sh.k;
      const Padded a = trans == Trans::kNo ? Padded(n, k, 3, rng)
                                           : Padded(k, n, 3, rng);
      Padded want(n, n, 2, rng);
      GemmRaw(trans, trans == Trans::kNo ? Trans::kYes : Trans::kNo, n, n, k,
              1.0, a.data.data(), a.ld, a.data.data(), a.ld, 0.0,
              want.data.data(), want.ld);
      Padded got(n, n, 2, rng);  // Gaussian garbage the kernel overwrites.
      SyrkRaw(trans, n, k, a.data.data(), a.ld, got.data.data(), got.ld);
      double scale = 0;
      for (Index j = 0; j < n; ++j) {
        for (Index i = 0; i < n; ++i) {
          scale = std::max(scale, std::fabs(want.at(i, j)));
        }
      }
      for (Index j = 0; j < n; ++j) {
        for (Index i = j; i < n; ++i) {
          ASSERT_LE(std::fabs(got.at(i, j) - want.at(i, j)), 1e-12 * scale)
              << "n=" << n << " k=" << k << " (" << i << "," << j << ")";
          ASSERT_EQ(got.at(i, j), got.at(j, i)) << "n=" << n << " k=" << k;
        }
      }
      EXPECT_TRUE(got.PaddingIntact()) << "n=" << n << " k=" << k;
    }
  }
}

// SyrkRaw's tile grid depends on n alone: every BLAS thread count, powers
// of two or not, gives the serial bits.
TEST_F(GemmStressTest, SyrkBitwiseIdenticalAtEveryThreadCount) {
  const Shape kSyrkShapes[] = {{128, 128, 400}, {300, 300, 400},
                               {200, 200, 700}};
  Rng rng(78);
  for (const Shape& sh : kSyrkShapes) {
    for (Trans trans : kTrans) {
      const Index n = sh.n, k = sh.k;
      const Padded a = trans == Trans::kNo ? Padded(n, k, 0, rng)
                                           : Padded(k, n, 0, rng);
      std::vector<double> serial;
      for (int threads = 1; threads <= 8; ++threads) {
        SetBlasThreads(threads);
        std::vector<double> c(static_cast<std::size_t>(n * n));
        SyrkRaw(trans, n, k, a.data.data(), a.ld, c.data(), n);
        if (threads == 1) {
          serial = c;
        } else {
          ASSERT_TRUE(c == serial) << "n=" << n << " k=" << k
                                   << " threads=" << threads;
        }
      }
    }
  }
}

// The pack buffers must satisfy the alignment the micro-kernel's vector
// loads assume.
TEST_F(GemmStressTest, PackBuffersAligned) {
  for (std::size_t n : {std::size_t{64}, std::size_t{100000}}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(TlsPackBufferA(n)) %
                  kGemmPackAlignment,
              0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(TlsPackBufferB(n)) %
                  kGemmPackAlignment,
              0u);
  }
}

}  // namespace
}  // namespace dtucker
