#include "rsvd/rsvd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/metrics.h"
#include "common/trace.h"
#include "linalg/blas.h"
#include "linalg/qr.h"

namespace dtucker {

namespace {

// The 256-layer ziggurat of the standard normal density f(x) = e^{-x^2/2}
// (Marsaglia & Tsang 2000). Layer i >= 1 is the rectangle of width x[i]
// between heights f(x[i]) and f(x[i+1]); layer 0 is the base strip of
// width x[0] = A / f(r) under height f(r), whose part past r is the tail.
// Every layer has area A, and x[256] = 0.
struct Ziggurat {
  double w[256];          // x[i] / 2^52: maps a 52-bit integer into layer i.
  std::uint64_t k[256];   // 2^52 x[i+1] / x[i]: below it, under the curve.
  double f[257];          // f(x[i]).
};

constexpr double kZigR = 3.6541528853610088;  // x[1]: the tail's start.
constexpr double kZigArea = 4.92867323399e-3;

const Ziggurat& ZigguratTables() {
  static const Ziggurat tables = [] {
    Ziggurat z{};
    double x[257] = {};
    const auto f = [](double v) { return std::exp(-0.5 * v * v); };
    x[0] = kZigArea / f(kZigR);
    x[1] = kZigR;
    for (int i = 1; i < 255; ++i) {
      x[i + 1] = std::sqrt(-2.0 * std::log(kZigArea / x[i] + f(x[i])));
    }
    x[256] = 0.0;
    const double scale = 0x1.0p52;
    for (int i = 0; i < 256; ++i) {
      z.w[i] = x[i] / scale;
      z.k[i] = static_cast<std::uint64_t>(scale * (x[i + 1] / x[i]));
    }
    for (int i = 0; i < 257; ++i) z.f[i] = f(x[i]);
    return z;
  }();
  return tables;
}

// The rest of the ziggurat for a draw `bits` that missed its layer's core
// rectangle: the tail or wedge test, then fresh draws from `rng` until one
// is accepted.
double ZigguratSlow(Rng& rng, const Ziggurat& z, std::uint64_t bits) {
  for (;;) {
    // Bits 0-7 pick the layer, bit 8 the sign, bits 12-63 the position.
    const int i = static_cast<int>(bits & 0xFF);
    const bool negative = (bits & 0x100) != 0;
    const std::uint64_t j = bits >> 12;
    const double x = static_cast<double>(j) * z.w[i];
    if (j < z.k[i]) return negative ? -x : x;
    if (i == 0) {
      // The tail past r, by Marsaglia's exponential rejection.
      double a = 0.0, b = 0.0;
      do {
        a = -std::log(1.0 - rng.Uniform()) / kZigR;
        b = -std::log(1.0 - rng.Uniform());
      } while (b + b < a * a);
      return negative ? -(kZigR + a) : kZigR + a;
    }
    // The wedge between the layer's core rectangle and the curve.
    const double y = z.f[i] + rng.Uniform() * (z.f[i + 1] - z.f[i]);
    if (y < std::exp(-0.5 * x * x)) return negative ? -x : x;
    bits = rng.NextU64();
  }
}

}  // namespace

// Draws come in batches of kBatch: sample i of a batch takes the batch's
// i-th draw, and the ~1.5% of draws that miss their core rectangle finish
// on draws taken after the batch, in sample order. The fast path is
// branch-free (the sign is one xor), so the random sign and the rare miss
// cost no mispredictions.
void FillSketchGaussian(Rng& rng, double* out, std::size_t n) {
  const Ziggurat& z = ZigguratTables();
  constexpr std::size_t kBatch = 256;
  std::uint64_t draws[kBatch] = {};
  bool miss[kBatch] = {};
  std::size_t missed[kBatch] = {};
  for (std::size_t i0 = 0; i0 < n; i0 += kBatch) {
    const std::size_t count = std::min(kBatch, n - i0);
    rng.FillU64(draws, count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t bits = draws[i];
      const std::uint64_t layer = bits & 0xFF;
      const std::uint64_t j = bits >> 12;
      const double x = static_cast<double>(j) * z.w[layer];
      std::uint64_t x_bits;
      std::memcpy(&x_bits, &x, sizeof(x));
      x_bits ^= (bits & 0x100) << 55;  // Bit 8 becomes the sign bit.
      std::memcpy(out + i0 + i, &x_bits, sizeof(x_bits));
      miss[i] = j >= z.k[layer];
    }
    std::size_t num_missed = 0;
    for (std::size_t i = 0; i < count; ++i) {
      missed[num_missed] = i;
      num_missed += miss[i] ? 1 : 0;
    }
    for (std::size_t t = 0; t < num_missed; ++t) {
      const std::size_t i = missed[t];
      out[i0 + i] = ZigguratSlow(rng, z, draws[i]);
    }
  }
}

RsvdGroup::RsvdGroup(Index rows, Index cols, const RsvdOptions& options,
                     int lanes)
    : rows_(rows),
      cols_(cols),
      target_(std::min(options.rank, std::min(rows, cols))),
      sketch_(std::min(options.rank + options.oversampling,
                       std::min(rows, cols))),
      power_iterations_(options.power_iterations),
      lanes_(lanes),
      width_(lanes <= kJacobiNarrowLanes ? kJacobiNarrowLanes : kJacobiLanes) {
  DT_CHECK_GT(sketch_, 0) << "empty sketch";
  DT_CHECK(lanes >= 1 && lanes <= kRsvdGroupSize) << "bad group size";
  const std::size_t k = static_cast<std::size_t>(sketch_);
  q_.resize(static_cast<std::size_t>(lanes) * rows * k);
  z_.resize(static_cast<std::size_t>(lanes) * cols * k);
  core_.resize(k * k * width_);
  v_.resize(k * k * width_);
  s_.resize(k * width_);
  omega_.resize(static_cast<std::size_t>(cols) * k);
  panel_.resize(static_cast<std::size_t>(std::max(rows, cols)) * k);
  r_.resize(k * k);
  gather_.resize(k * k);
}

// Both branches reduce A to a (sketch x sketch) core and read A exactly
// once more than the power loop needs — the projection B = Q^T A of the
// textbook algorithm is folded away (see DESIGN.md §7):
//
//   q >= 1:  the final power product Y = A Z doubles as the projection.
//            With [Q, R] = qr(Y) it holds Q^T A Z = R exactly, so
//            A ~= A Z Z^T = Q R Z^T and SVD(R) finishes the job. 2q + 1
//            passes, versus 2q + 2 for range-finder-then-project.
//   q == 0:  B = Q^T A is unavoidable (no Z exists); with
//            [Z, R] = qr(A^T Q) it is B = R^T Z^T, so SVD(R^T) finishes.
//
// Every panel is orthonormalized by CholeskyQR2 (linalg/qr.h), which
// falls back to Householder by its own fixed rule; the panels' time counts
// as this span's own, so a slice records no span per panel.
void RsvdGroup::Sketch(int lane, const double* a, uint64_t seed) {
  static Counter& calls = MetricCounter("rsvd.calls");
  calls.Add(1);
  DT_TRACE_SPAN("rsvd");
  DT_CHECK(lane >= 0 && lane < lanes_) << "lane outside the group";
  const Index m = rows_, n = cols_, k = sketch_;
  double* q = LaneQ(lane);
  double* z = LaneZ(lane);
  double* y = panel_.data();
  double* r = r_.data();

  Rng rng(seed);
  FillSketchGaussian(rng, omega_.data(), static_cast<std::size_t>(n * k));
  GemmRaw(Trans::kNo, Trans::kNo, m, k, n, 1.0, a, m, omega_.data(), n, 0.0,
          y, m);  // Pass 1: Y = A Omega.
  CholeskyQr2RawUntraced(y, m, k, q, nullptr);
  const bool transpose_core = power_iterations_ <= 0;
  if (transpose_core) {
    GemmRaw(Trans::kYes, Trans::kNo, n, k, m, 1.0, a, m, q, m, 0.0, y, n);
    CholeskyQr2RawUntraced(y, n, k, z, r);  // A^T Q = Z R.
  }
  for (int it = 0; it < power_iterations_; ++it) {
    GemmRaw(Trans::kYes, Trans::kNo, n, k, m, 1.0, a, m, q, m, 0.0, y, n);
    CholeskyQr2RawUntraced(y, n, k, z, nullptr);  // Z = orth(A^T Q).
    GemmRaw(Trans::kNo, Trans::kNo, m, k, n, 1.0, a, m, z, n, 0.0, y, m);
    // The last half-iteration keeps R: the product is also the projection.
    CholeskyQr2RawUntraced(y, m, k, q,
                           it + 1 == power_iterations_ ? r : nullptr);
  }

  // Scatter R (or R^T) into this lane of the interleaved cores.
  for (Index j = 0; j < k; ++j) {
    for (Index i = 0; i < k; ++i) {
      core_[static_cast<std::size_t>((j * k + i) * width_ + lane)] =
          transpose_core ? r[i * k + j] : r[j * k + i];
    }
  }
}

void RsvdGroup::Solve(int count) {
  DT_TRACE_SPAN("rsvd.core_svd");
  DT_CHECK(count >= 1 && count <= lanes_) << "bad lane count";
  const Index k = sketch_;
  for (int lane = count; lane < width_; ++lane) {
    for (Index j = 0; j < k; ++j) {
      for (Index i = 0; i < k; ++i) {
        core_[static_cast<std::size_t>((j * k + i) * width_ + lane)] =
            i == j ? 1.0 : 0.0;
      }
    }
  }
  BatchedJacobiSvd(k, core_.data(), v_.data(), s_.data(), width_);
}

SvdResult RsvdGroup::Extract(int lane, Index keep) {
  DT_CHECK(lane >= 0 && lane < lanes_) << "lane outside the group";
  DT_CHECK(keep >= 1 && keep <= target_) << "keep outside [1, target]";
  const Index k = sketch_;
  SvdResult out;
  out.s.assign(SingularValues(lane), SingularValues(lane) + keep);
  // U = Q Uc(:, 0:keep) and V = Z Vc(:, 0:keep): only the kept columns.
  const auto multiply = [&](const std::vector<double>& lanes_core,
                            const double* basis, Index rows, Matrix* dst) {
    for (Index j = 0; j < keep; ++j) {
      for (Index i = 0; i < k; ++i) {
        gather_[static_cast<std::size_t>(j * k + i)] = lanes_core[
            static_cast<std::size_t>((j * k + i) * width_ + lane)];
      }
    }
    *dst = Matrix::Uninitialized(rows, keep);
    GemmRaw(Trans::kNo, Trans::kNo, rows, keep, k, 1.0, basis, rows,
            gather_.data(), k, 0.0, dst->data(), rows);
  };
  multiply(core_, LaneQ(lane), rows_, &out.u);
  multiply(v_, LaneZ(lane), cols_, &out.v);
  return out;
}

SvdResult RandomizedSvd(const Matrix& a, const RsvdOptions& options) {
  RsvdGroup group(a.rows(), a.cols(), options, /*lanes=*/1);
  group.Sketch(0, a.data(), options.seed);
  group.Solve(1);
  return group.Extract(0, group.target());
}

}  // namespace dtucker
