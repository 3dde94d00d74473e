// D-Tucker's fork-join over the chunk grid: every entry point, thread
// count and Engine configuration gives the 1-thread bits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/run_context.h"
#include "common/timer.h"
#include "data/generators.h"
#include "data/tensor_io.h"
#include "dtucker/dtucker.h"
#include "dtucker/engine.h"
#include "dtucker/out_of_core.h"
#include "linalg/blas.h"
#include "linalg/eigen_sym.h"
#include "serve/server.h"

namespace dtucker {
namespace {

// Options for a solve on `num_threads` threads (at most 8 work at once).
DTuckerOptions MakeOptions(std::vector<Index> ranks, int num_threads,
                           int iters = 8) {
  DTuckerOptions opt;
  opt.tucker.ranks = std::move(ranks);
  opt.tucker.max_iterations = iters;
  opt.num_threads = num_threads;
  return opt;
}

void ExpectBitwiseEqual(const TuckerDecomposition& a,
                        const TuckerDecomposition& b, const char* what) {
  ASSERT_EQ(a.factors.size(), b.factors.size()) << what;
  for (std::size_t n = 0; n < a.factors.size(); ++n) {
    ASSERT_EQ(a.factors[n].rows(), b.factors[n].rows()) << what;
    ASSERT_EQ(a.factors[n].cols(), b.factors[n].cols()) << what;
    for (Index i = 0; i < a.factors[n].size(); ++i) {
      ASSERT_EQ(a.factors[n].data()[i], b.factors[n].data()[i])
          << what << ": factor " << n << " element " << i;
    }
  }
  ASSERT_EQ(a.core.shape(), b.core.shape()) << what;
  for (Index i = 0; i < a.core.size(); ++i) {
    ASSERT_EQ(a.core.data()[i], b.core.data()[i])
        << what << ": core element " << i;
  }
}

TEST(ShardedDTuckerTest, ExactRecoveryOfLowRankTensor) {
  // L = 12 frontal slices >= kShardChunkCount: every chunk is nonempty.
  Tensor x = MakeLowRankTensor({16, 14, 12}, {3, 3, 3}, 0.0, 2);
  Result<TuckerDecomposition> dec =
      DTucker(x, MakeOptions({3, 3, 3}, 2));
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 1e-12);
}

TEST(ShardedDTuckerTest, BitwiseIdenticalAcrossPowerOfTwoRankCounts) {
  // DTucker at 2, 4 and 8 threads, and Engine at num_ranks 2, 4 and 8,
  // reproduce the 1-thread run.
  Tensor x = MakeLowRankTensor({15, 13, 9}, {4, 4, 4}, 0.2, 3);
  const DTuckerOptions opt = MakeOptions({4, 3, 3}, 1);
  Result<TuckerDecomposition> one = DTucker(x, opt);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  for (int count : {2, 4, 8}) {
    const std::string what = "count=" + std::to_string(count);
    TuckerStats stats;
    Result<TuckerDecomposition> many =
        DTucker(x, MakeOptions({4, 3, 3}, count), &stats);
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    ExpectBitwiseEqual(many.value(), one.value(), what.c_str());
    EXPECT_EQ(stats.completion, StatusCode::kOk);
    EngineOptions eopt;
    eopt.num_ranks = count;
    eopt.method_options.tucker = opt.tucker;
    Engine engine(std::move(eopt));
    Result<EngineRun> run = engine.Solve(x);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ExpectBitwiseEqual(run.value().decomposition, one.value(),
                       (what + " Engine num_ranks").c_str());
  }
}

TEST(ShardedDTuckerTest, FourOrderTensorBitwiseAcrossRankCounts) {
  // Order 4: the slice dimension is the trailing-mode volume 3 * 4 = 12.
  Tensor x = MakeLowRankTensor({10, 9, 3, 4}, {2, 2, 2, 2}, 0.1, 4);
  Result<TuckerDecomposition> one =
      DTucker(x, MakeOptions({3, 3, 2, 2}, 1));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  Result<TuckerDecomposition> four =
      DTucker(x, MakeOptions({3, 3, 2, 2}, 4));
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  ExpectBitwiseEqual(four.value(), one.value(), "order-4 threads=4");
  EXPECT_LT(four.value().RelativeErrorAgainst(x), 0.2);
}

// Plain calls and Engine, on a tensor, a file or an approximation, at every
// thread count 1..8 and at Engine num_ranks 1, 2, 4, 8: one core, one
// result, bitwise equal to DTucker at one thread.
void ExpectEveryWayBitwise(const Tensor& x, const std::vector<Index>& ranks,
                           const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/every_way_" + tag +
                           ".dtnsr";
  ASSERT_TRUE(SaveTensor(x, path).ok());
  DTuckerOptions opt;
  opt.tucker.ranks = ranks;
  opt.tucker.max_iterations = 6;
  SliceApproximationOptions aopt;
  aopt.slice_rank = opt.EffectiveSliceRank();
  aopt.oversampling = opt.oversampling;
  aopt.power_iterations = opt.power_iterations;
  aopt.seed = opt.tucker.seed;
  Result<SliceApproximation> approx = ApproximateSlices(x, aopt);
  ASSERT_TRUE(approx.ok());
  Result<TuckerDecomposition> ref = DTucker(x, opt);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  auto expect_ref = [&](const Result<TuckerDecomposition>& got,
                        const std::string& what) {
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    ExpectBitwiseEqual(got.value(), ref.value(), (tag + " " + what).c_str());
  };
  auto engine_runs = [&](EngineOptions eopt, const std::string& what) {
    eopt.method_options.tucker = opt.tucker;
    Engine engine(std::move(eopt));
    for (int entry = 0; entry < 3; ++entry) {
      Result<EngineRun> run = entry == 0   ? engine.Solve(x)
                              : entry == 1 ? engine.SolveFile(path)
                                           : engine.SolveApproximation(
                                                 approx.value());
      ASSERT_TRUE(run.ok()) << what << ": " << run.status().ToString();
      expect_ref(run.value().decomposition,
                 what + " entry " + std::to_string(entry));
    }
  };
  for (int threads = 1; threads <= 8; ++threads) {
    const std::string what = "threads=" + std::to_string(threads);
    DTuckerOptions topt = opt;
    topt.num_threads = threads;
    expect_ref(DTucker(x, topt), what + " DTucker");
    expect_ref(DTuckerFromApproximation(approx.value(), topt),
               what + " DTuckerFromApproximation");
    expect_ref(DTuckerFromFile(path, topt), what + " DTuckerFromFile");
    EngineOptions eopt;
    eopt.method_options.num_threads = threads;
    eopt.blas_threads = threads;
    engine_runs(eopt, what + " Engine");
  }
  SetBlasThreads(1);
  for (int num_ranks : {1, 2, 4, 8}) {
    EngineOptions eopt;
    eopt.num_ranks = num_ranks;
    engine_runs(eopt, "num_ranks=" + std::to_string(num_ranks) + " Engine");
  }
  std::remove(path.c_str());
}

TEST(ShardedDTuckerTest, EveryWayOfRunningIsBitwiseIdentical) {
  ExpectEveryWayBitwise(MakeLowRankTensor({18, 16, 10}, {4, 4, 4}, 0.3, 5),
                        {4, 4, 4}, "order3");
  // Order 4: L = 3 * 4 = 12 slices, and the trailing contraction runs
  // through the outer weights.
  ExpectEveryWayBitwise(MakeLowRankTensor({12, 10, 3, 4}, {3, 3, 2, 2}, 0.2,
                                          6),
                        {3, 3, 2, 2}, "order4");
}

TEST(ShardedDTuckerTest, NestedBlasFanOutIsBitwiseIdentical) {
  // A 400-long middle mode puts the dense work between the slice passes
  // past the fan-out floors: ModeGram's chunks at initialization, and
  // every sweep's 400 x 400 subspace iteration (TiledProduct). Chunk
  // workers and BLAS tiles then share one set of threads, at every mix of
  // num_threads and SetBlasThreads, with the BLAS width switched 4 -> 1
  // -> 4 between solves.
  Tensor x = MakeLowRankTensor({12, 10, 400, 6}, {3, 3, 6, 2}, 0.2, 9);
  const std::vector<Index> ranks = {3, 3, 6, 2};
  SetBlasThreads(1);
  Result<TuckerDecomposition> ref = DTucker(x, MakeOptions(ranks, 1, 3));
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  Counter& helper_tasks = MetricCounter("threadpool.tasks");
  const std::pair<int, int> runs[] = {{2, 4}, {3, 2}, {4, 4}, {4, 1},
                                      {4, 4}, {1, 4}};
  for (const auto& [threads, blas] : runs) {
    const std::string what = "num_threads=" + std::to_string(threads) +
                             " blas=" + std::to_string(blas);
    SetBlasThreads(blas);
    const std::uint64_t tasks_before = helper_tasks.Value();
    const std::uint64_t sweeps_before = SubspaceSweepsOnThisThread();
    Result<TuckerDecomposition> got =
        DTucker(x, MakeOptions(ranks, threads, 3));
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    ExpectBitwiseEqual(got.value(), ref.value(), what.c_str());
    EXPECT_GT(SubspaceSweepsOnThisThread(), sweeps_before) << what;
    if (threads == 1) {
      // No chunk workers: every helper task was a BLAS tile fan-out.
      EXPECT_GT(helper_tasks.Value(), tasks_before) << what;
    }
  }
  SetBlasThreads(1);
}

TEST(ShardedDTuckerTest, RepeatedSolvesAreBitwiseIdentical) {
  // A solve is a function of its input and options alone: no generator,
  // cached sketch or scratch buffer carries state from one solve into the
  // next, on one Engine or on concurrent server workers.
  const auto a = std::make_shared<Tensor>(
      MakeLowRankTensor({18, 16, 10}, {4, 4, 4}, 0.3, 21));
  const auto b = std::make_shared<Tensor>(
      MakeLowRankTensor({23, 9, 13}, {3, 3, 3}, 0.2, 22));
  TuckerOptions tucker;
  tucker.ranks = {4, 4, 4};
  tucker.max_iterations = 6;
  Result<TuckerDecomposition> ref = [&] {
    DTuckerOptions opt;
    opt.tucker = tucker;
    return DTucker(*a, opt);
  }();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  for (int threads : {1, 4}) {
    const std::string what = "threads=" + std::to_string(threads);
    EngineOptions eopt;
    eopt.method_options.tucker = tucker;
    eopt.method_options.num_threads = threads;
    eopt.blas_threads = threads;
    Engine engine(std::move(eopt));
    for (int repeat = 0; repeat < 2; ++repeat) {
      Result<EngineRun> run_a = engine.Solve(*a);
      ASSERT_TRUE(run_a.ok()) << what << ": " << run_a.status().ToString();
      ExpectBitwiseEqual(run_a.value().decomposition, ref.value(),
                         (what + " solve of A #" + std::to_string(repeat))
                             .c_str());
      Result<EngineRun> run_b = engine.Solve(*b);
      ASSERT_TRUE(run_b.ok()) << what << ": " << run_b.status().ToString();
    }
  }
  SetBlasThreads(1);

  ServerOptions sopt;
  sopt.num_workers = 2;
  DecompositionServer server(std::move(sopt));
  std::vector<JobId> a_jobs;
  for (int i = 0; i < 3; ++i) {
    // Distinct dataset ids, so every job is a cold solve, not a cache hit.
    for (const auto& [tensor, name] : {std::pair{a, "a"}, std::pair{b, "b"}}) {
      SolveRequest req;
      req.model.dataset_id = std::string(name) + std::to_string(i);
      req.model.ranks = tucker.ranks;
      req.model.max_iterations = tucker.max_iterations;
      req.model.tolerance = tucker.tolerance;
      req.model.seed = tucker.seed;
      req.tensor = tensor;
      Result<JobId> id = server.Submit(std::move(req));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      if (tensor == a) a_jobs.push_back(id.value());
    }
  }
  for (JobId id : a_jobs) {
    Result<JobResult> res = server.Wait(id);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_TRUE(res.value().status.ok()) << res.value().status.ToString();
    ASSERT_NE(res.value().model, nullptr);
    EXPECT_FALSE(res.value().from_cache);
    ExpectBitwiseEqual(res.value().model->decomposition, ref.value(),
                       ("server job " + std::to_string(id)).c_str());
  }
}

// The initialization's range finder on inputs that make its sketch
// rank-deficient or full-width: each solve returns OK with finite,
// orthonormal factors, bitwise equal at 1 and 4 threads.
void ExpectInitEdgeCase(const SliceApproximation& approx,
                        const std::vector<Index>& ranks,
                        const std::string& what) {
  TuckerDecomposition dec[2];
  for (int t = 0; t < 2; ++t) {
    DTuckerOptions opt = MakeOptions(ranks, t == 0 ? 1 : 4, /*iters=*/3);
    Result<TuckerDecomposition> got = DTuckerFromApproximation(approx, opt);
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    dec[t] = std::move(got).ValueOrDie();
    for (Index i = 0; i < dec[t].core.size(); ++i) {
      ASSERT_TRUE(std::isfinite(dec[t].core.data()[i])) << what;
    }
    for (const Matrix& f : dec[t].factors) {
      EXPECT_TRUE(AlmostEqual(MultiplyTN(f, f), Matrix::Identity(f.cols())))
          << what;
    }
  }
  ExpectBitwiseEqual(dec[1], dec[0], (what + " threads 4 vs 1").c_str());
}

SliceApproximation Approximate(const Tensor& x, Index slice_rank,
                               double adaptive_tolerance = 0.0) {
  SliceApproximationOptions aopt;
  aopt.slice_rank = slice_rank;
  aopt.adaptive_tolerance = adaptive_tolerance;
  return ApproximateSlices(x, aopt).ValueOrDie();
}

TEST(ShardedDTuckerTest, InitRangeFinderEdgeCases) {
  {
    // Adaptive truncation and zero slices: per-slice ranks 1..Js.
    Tensor x = MakeLowRankTensor({20, 16, 12}, {3, 3, 3}, 0.05, 31);
    const Matrix zero(20, 16);
    for (Index l : {0, 5, 11}) x.SetFrontalSlice(l, zero);
    const SliceApproximation approx = Approximate(x, 6, 0.05);
    Index narrowest = 6;
    for (const SliceSvd& sl : approx.slices) {
      narrowest = std::min(narrowest, sl.u.cols());
    }
    ASSERT_LT(narrowest, 6) << "no slice was truncated";
    ExpectInitEdgeCase(approx, {3, 3, 3}, "Js-deficient and zero slices");
  }
  {
    // L * Js = 4 columns stacked, below the sketch width 8 and the rank 5.
    const Tensor x = MakeLowRankTensor({12, 10, 2}, {3, 3, 2}, 0.1, 32);
    ExpectInitEdgeCase(Approximate(x, 2), {5, 5, 2}, "s >= L * Js");
  }
  {
    // Ranks equal to the dims: the sketch spans the whole space (s = I).
    const Tensor x = MakeLowRankTensor({6, 5, 4}, {2, 2, 2}, 0.2, 33);
    ExpectInitEdgeCase(Approximate(x, 5), {6, 5, 4}, "rank equal to dim");
  }
  for (double scale : {1e150, 1e-150}) {
    Tensor x = MakeLowRankTensor({14, 12, 9}, {3, 3, 3}, 0.1, 34);
    x *= scale;
    ExpectInitEdgeCase(Approximate(x, 3), {3, 3, 3},
                       "scale " + std::to_string(scale));
  }
  {
    // An all-zero tensor: every stacked factor is zero.
    ExpectInitEdgeCase(Approximate(Tensor({10, 9, 8}), 2), {2, 2, 2},
                       "all-zero tensor");
  }
}

TEST(ShardedDTuckerTest, FewerSlicesThanThreadsRunsOneRankPerSlice) {
  // L = 3 slices at 4 threads: three chunks of one slice each, so three
  // threads work.
  Tensor x = MakeLowRankTensor({10, 9, 3}, {3, 3, 2}, 0.1, 22);
  DTuckerOptions opt;
  opt.tucker.ranks = {3, 3, 2};
  opt.tucker.max_iterations = 5;
  Result<TuckerDecomposition> one = DTucker(x, opt);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  opt.num_threads = 4;
  Result<TuckerDecomposition> four = DTucker(x, opt);
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  ExpectBitwiseEqual(four.value(), one.value(), "L=3 threads=4");
}

TEST(ShardedDTuckerTest, ConcurrentFourThreadSolvesMatchTheSerialSolve) {
  // Two threads each solve at num_threads = 4 at once, while the BLAS pool
  // is 4 wide: two fork-joins share the pool with the callers' own BLAS
  // fan-out, and read one approximation in place. Every result is bitwise
  // equal to a serial solve (the data-race check runs under ctest -L tsan).
  Tensor x = MakeLowRankTensor({14, 12, 16}, {3, 3, 3}, 0.2, 23);
  SliceApproximationOptions aopt;
  aopt.slice_rank = 3;
  Result<SliceApproximation> approx = ApproximateSlices(x, aopt);
  ASSERT_TRUE(approx.ok());
  DTuckerOptions opt;
  opt.tucker.ranks = {3, 3, 3};
  opt.tucker.max_iterations = 4;
  opt.slice_rank = 3;
  SetBlasThreads(1);
  Result<TuckerDecomposition> ref_x = DTucker(x, opt);
  ASSERT_TRUE(ref_x.ok()) << ref_x.status().ToString();
  Result<TuckerDecomposition> ref_a =
      DTuckerFromApproximation(approx.value(), opt);
  ASSERT_TRUE(ref_a.ok()) << ref_a.status().ToString();

  SetBlasThreads(4);
  opt.num_threads = 4;
  Result<TuckerDecomposition> got[2][2] = {
      {Status::InvalidArgument("unset"), Status::InvalidArgument("unset")},
      {Status::InvalidArgument("unset"), Status::InvalidArgument("unset")}};
  auto solve = [&](int t) {
    got[t][0] = DTucker(x, opt);
    got[t][1] = DTuckerFromApproximation(approx.value(), opt);
  };
  std::thread peer(solve, 1);
  solve(0);
  peer.join();
  SetBlasThreads(1);
  for (int t = 0; t < 2; ++t) {
    const std::string what = "solver thread " + std::to_string(t);
    ASSERT_TRUE(got[t][0].ok()) << got[t][0].status().ToString();
    ASSERT_TRUE(got[t][1].ok()) << got[t][1].status().ToString();
    ExpectBitwiseEqual(got[t][0].value(), ref_x.value(),
                       (what + " DTucker").c_str());
    ExpectBitwiseEqual(got[t][1].value(), ref_a.value(),
                       (what + " shared approximation").c_str());
  }
}

TEST(ShardedDTuckerTest, PhaseTimesAddUpToWallTimeAtFourThreads) {
  // Phase times are recorded by the calling thread only, so a 4-thread
  // solve's phases sum to its wall time instead of four times it.
  Tensor x = MakeLowRankTensor({64, 60, 48}, {6, 6, 6}, 0.1, 24);
  DTuckerOptions opt;
  opt.tucker.ranks = {6, 6, 6};
  opt.tucker.max_iterations = 8;
  opt.tucker.tolerance = 0;
  opt.num_threads = 4;
  ASSERT_TRUE(DTucker(x, opt).ok());  // Warm-up.
  // The ratio closest to 1 of a few solves, so a solve descheduled between
  // phases on a loaded machine does not decide the test (summing the four
  // threads would read ~4 every time).
  double closest = 0.0;
  for (int attempt = 0; attempt < 5; ++attempt) {
    const double phases0 = GlobalPhaseTimer().GrandTotal();
    Timer wall;
    ASSERT_TRUE(DTucker(x, opt).ok());
    const double ratio =
        (GlobalPhaseTimer().GrandTotal() - phases0) / wall.Seconds();
    if (std::fabs(ratio - 1.0) < std::fabs(closest - 1.0)) closest = ratio;
  }
  EXPECT_GT(closest, 0.9);
  EXPECT_LT(closest, 1.1);
}

// An Engine solve with an explicit rank count, or its error.
Result<EngineRun> SolveWithRanks(const Tensor& x, std::vector<Index> ranks,
                                 int num_ranks) {
  EngineOptions eopt;
  eopt.num_ranks = num_ranks;
  eopt.method_options.tucker.ranks = std::move(ranks);
  Engine engine(std::move(eopt));
  return engine.Solve(x);
}

TEST(ShardedDTuckerTest, ValidateRejectsMoreRanksThanSlices) {
  Tensor x = MakeLowRankTensor({8, 7, 4}, {2, 2, 2}, 0.0, 7);
  Result<EngineRun> run = SolveWithRanks(x, {2, 2, 2}, 5);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(run.status().message().find("exceeds the slice count L=4"),
            std::string::npos)
      << run.status().ToString();
}

TEST(ShardedDTuckerTest, ValidateRejectsBadRankCountAndTimeout) {
  Tensor x = MakeLowRankTensor({8, 7, 4}, {2, 2, 2}, 0.0, 7);
  Result<EngineRun> run = SolveWithRanks(x, {2, 2, 2}, -1);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedDTuckerTest, FromFileMatchesInMemoryBitwise) {
  Tensor x = MakeLowRankTensor({14, 12, 10}, {3, 3, 3}, 0.2, 8);
  const std::string path = ::testing::TempDir() + "/sharded.dtnsr";
  ASSERT_TRUE(SaveTensor(x, path).ok());
  const DTuckerOptions opt = MakeOptions({3, 3, 3}, 2);
  Result<TuckerDecomposition> mem = DTucker(x, opt);
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  TuckerStats stats;
  Result<TuckerDecomposition> file = DTuckerFromFile(path, opt, &stats);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ExpectBitwiseEqual(file.value(), mem.value(), "from-file");
  // Out-of-core working set: the compressed shard, not the tensor.
  EXPECT_GT(stats.working_bytes, 0u);
  EXPECT_LT(stats.working_bytes, x.ByteSize());
  std::remove(path.c_str());
}

TEST(ShardedDTuckerTest, CancelBeforeStartFailsCleanly) {
  Tensor x = MakeLowRankTensor({12, 10, 8}, {3, 3, 3}, 0.1, 10);
  RunContext ctx;
  ctx.RequestCancel();
  DTuckerOptions opt = MakeOptions({3, 3, 3}, 2);
  opt.tucker.run_context = &ctx;
  Result<TuckerDecomposition> dec = DTucker(x, opt);
  // No usable state exists yet: the run surfaces as an error, on every
  // rank, without deadlocking the group.
  ASSERT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCancelled);
}

TEST(ShardedDTuckerTest, MidRunCancelReturnsLastCompletedSweep) {
  Tensor x = MakeLowRankTensor({15, 13, 9}, {4, 4, 4}, 0.3, 11);
  RunContext ctx;
  DTuckerOptions opt = MakeOptions({4, 4, 4}, 2, 20);
  opt.tucker.tolerance = 0;  // Never converge; only the cancel stops it.
  opt.tucker.run_context = &ctx;
  opt.sweep_callback = [&](const SweepTelemetry& t) {
    if (t.sweep >= 2) ctx.RequestCancel();
  };
  TuckerStats stats;
  Result<TuckerDecomposition> dec = DTucker(x, opt, &stats);
  // Best-so-far semantics: a valid decomposition plus a kCancelled
  // completion code, agreed at a sweep boundary by both ranks.
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(stats.completion, StatusCode::kCancelled);
  EXPECT_FALSE(stats.completion_detail.empty());
  EXPECT_GE(stats.iterations, 2);
  EXPECT_LT(stats.iterations, 20);
  EXPECT_LT(dec.value().RelativeErrorAgainst(x), 0.5);
}

TEST(ShardedDTuckerTest, AutoReorderAtFourThreadsMatchesOneThread) {
  // The tensor is permuted once, before the solve starts (the two largest
  // modes lead, so L = 6 afterwards), at every thread count.
  Tensor x = MakeLowRankTensor({6, 14, 12}, {3, 3, 3}, 0.1, 12);
  DTuckerOptions opt;
  opt.tucker.ranks = {2, 3, 3};
  opt.auto_reorder = true;
  Result<TuckerDecomposition> one = DTucker(x, opt);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  ASSERT_EQ(one.value().factors[0].rows(), 6);
  ASSERT_EQ(one.value().core.shape(), (std::vector<Index>{2, 3, 3}));
  opt.num_threads = 4;
  Result<TuckerDecomposition> four = DTucker(x, opt);
  ASSERT_TRUE(four.ok()) << four.status().ToString();
  ExpectBitwiseEqual(four.value(), one.value(), "auto_reorder threads=4");
}

TEST(ShardedDTuckerTest, NonPowerOfTwoRankCountsMatchFitTo4Digits) {
  // Every thread count reduces through the same chunk tree, so 3, 5, 6
  // and 7 threads reproduce the 1-thread run bit for bit — and so its fit,
  // to every digit.
  Tensor x = MakeLowRankTensor({18, 16, 12}, {4, 4, 4}, 0.25, 21);
  Result<TuckerDecomposition> one =
      DTucker(x, MakeOptions({4, 4, 4}, 1));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  for (int num_ranks : {3, 5, 6, 7}) {
    Result<TuckerDecomposition> many =
        DTucker(x, MakeOptions({4, 4, 4}, num_ranks));
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    ExpectBitwiseEqual(many.value(), one.value(),
                       ("ranks=" + std::to_string(num_ranks)).c_str());
  }
}

TEST(ShardedDTuckerTest, ReplicatedTrailingFallbackStaysBitwise) {
  // The trailing update eigensolves the small side of the contracted Z's
  // last-mode unfolding only when J3 <= J1*J2 < L. Here J1*J2 = 12 > L = 9,
  // so the update takes the L x L mode Gram of Z; the cross-thread-count
  // bitwise identity must hold on that Gram side too.
  Tensor x = MakeLowRankTensor({15, 13, 9}, {4, 4, 4}, 0.2, 3);
  Result<TuckerDecomposition> one =
      DTucker(x, MakeOptions({4, 3, 3}, 1));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  for (int num_ranks : {2, 3, 4}) {
    Result<TuckerDecomposition> many =
        DTucker(x, MakeOptions({4, 3, 3}, num_ranks));
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    ExpectBitwiseEqual(many.value(), one.value(),
                       ("mode-Gram trailing threads=" +
                        std::to_string(num_ranks))
                           .c_str());
  }
}

TEST(ShardedDTuckerTest, ShardedAndReplicatedTrailingAgreeOnAccuracy) {
  // The trailing update's two Gram sides recover the last factor through
  // different factorizations (small-side Gram + QR versus the L x L mode
  // Gram's eig), so their bits differ, but the converged accuracy must
  // not. The shape picks the side, so one approximation is solved as is
  // (J1*J2 = 16 > L = 10: mode Gram) and with every slice repeated twice
  // (L = 20: small side). Repeating the slices scales the mode-1/2 Grams by
  // 2 and splits each mode-3 singular vector evenly over the two copies, so
  // the Tucker problem and its relative error are the same.
  Tensor x = MakeLowRankTensor({18, 16, 10}, {4, 4, 4}, 0.3, 5);
  Tensor x2({18, 16, 20});
  for (Index l = 0; l < 20; ++l) x2.SetFrontalSlice(l, x.FrontalSlice(l % 10));
  DTuckerOptions opt;
  opt.tucker.ranks = {4, 4, 4};
  opt.tucker.max_iterations = 15;
  SliceApproximationOptions aopt;
  aopt.slice_rank = opt.EffectiveSliceRank();
  aopt.seed = opt.tucker.seed;
  Result<SliceApproximation> approx = ApproximateSlices(x, aopt);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  SliceApproximation approx2 = approx.value();
  approx2.shape = x2.shape();
  for (Index l = 0; l < 10; ++l) {
    approx2.slices.push_back(approx.value().slices[static_cast<std::size_t>(l)]);
  }
  ASSERT_TRUE(approx2.Validate().ok());

  double errs[2];
  const SliceApproximation* sides[2] = {&approx2, &approx.value()};
  const Tensor* targets[2] = {&x2, &x};
  const char* names[2] = {"small side", "mode Gram"};
  for (int i = 0; i < 2; ++i) {
    opt.num_threads = 1;
    Result<TuckerDecomposition> one =
        DTuckerFromApproximation(*sides[i], opt);
    ASSERT_TRUE(one.ok()) << names[i] << ": " << one.status().ToString();
    opt.num_threads = 4;
    Result<TuckerDecomposition> four =
        DTuckerFromApproximation(*sides[i], opt);
    ASSERT_TRUE(four.ok()) << names[i] << ": " << four.status().ToString();
    ExpectBitwiseEqual(four.value(), one.value(), names[i]);
    errs[i] = one.value().RelativeErrorAgainst(*targets[i]);
  }
  EXPECT_NEAR(errs[0], errs[1], 1e-6)
      << "small side " << errs[0] << " mode Gram " << errs[1];
}

TEST(ShardedDTuckerTest, OversizedTrailingRankFallsBackAndStaysBitwise) {
  // ranks[2] > ranks[0] * ranks[1] leaves the small-side Gram (J1*J2 = 4)
  // unable to deliver J3 vectors even though J1*J2 < L = 12; the update
  // must take the L x L mode Gram and keep the 1-thread bits at any thread
  // count.
  Tensor x = MakeLowRankTensor({16, 14, 12}, {2, 2, 5}, 0.15, 17);
  Result<TuckerDecomposition> one =
      DTucker(x, MakeOptions({2, 2, 5}, 1));
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_LT(one.value().RelativeErrorAgainst(x), 0.1);
  for (int num_ranks : {2, 3, 4}) {
    Result<TuckerDecomposition> many =
        DTucker(x, MakeOptions({2, 2, 5}, num_ranks));
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    ExpectBitwiseEqual(many.value(), one.value(),
                       ("oversized trailing threads=" +
                        std::to_string(num_ranks))
                           .c_str());
  }
}

TEST(ShardedEngineTest, SolveRoutesThroughShardedPath) {
  Tensor x = MakeLowRankTensor({14, 12, 9}, {3, 3, 3}, 0.2, 13);
  // Runs 0 and 1 set num_ranks 1 and 4; run 2 sets num_threads 4, which
  // num_ranks 4 stands for, and must report the same numbers.
  EngineRun runs[3];
  const int num_ranks[3] = {1, 4, 0};
  for (int i = 0; i < 3; ++i) {
    EngineOptions eopt;
    eopt.num_ranks = num_ranks[i];
    if (i == 2) eopt.method_options.num_threads = 4;
    eopt.method_options.tucker.ranks = {3, 3, 3};
    eopt.method_options.tucker.max_iterations = 6;
    Engine engine(std::move(eopt));
    Result<EngineRun> run = engine.Solve(x);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    ASSERT_TRUE(run.value().status.ok());
    runs[i] = std::move(run).ValueOrDie();
  }
  ExpectBitwiseEqual(runs[0].decomposition, runs[1].decomposition,
                     "engine ranks 1 vs 4");
  ExpectBitwiseEqual(runs[2].decomposition, runs[1].decomposition,
                     "engine threads 4 vs ranks 4");
  EXPECT_EQ(runs[0].relative_error, runs[1].relative_error);
  EXPECT_GT(runs[0].stored_bytes, 0u);
  EXPECT_EQ(runs[2].stored_bytes, runs[1].stored_bytes);
  EXPECT_EQ(runs[2].relative_error, runs[1].relative_error);
}

TEST(ShardedEngineTest, NumRanksRequiresDTucker) {
  EngineOptions eopt;
  eopt.method = TuckerMethod::kTuckerAls;
  eopt.num_ranks = 2;
  eopt.method_options.tucker.ranks = {2, 2, 2};
  Engine engine(std::move(eopt));
  Tensor x = MakeLowRankTensor({8, 7, 6}, {2, 2, 2}, 0.0, 14);
  Result<EngineRun> run = engine.Solve(x);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedEngineTest, SolveFileRoutesThroughShardedPath) {
  Tensor x = MakeLowRankTensor({12, 11, 10}, {3, 3, 3}, 0.1, 15);
  const std::string path = ::testing::TempDir() + "/sharded_engine.dtnsr";
  ASSERT_TRUE(SaveTensor(x, path).ok());
  EngineOptions eopt;
  eopt.num_ranks = 2;
  eopt.method_options.tucker.ranks = {3, 3, 3};
  eopt.method_options.tucker.max_iterations = 6;
  Engine engine(std::move(eopt));
  Result<EngineRun> run = engine.SolveFile(path);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(run.value().status.ok());
  EXPECT_LT(run.value().relative_error, 0.1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dtucker
