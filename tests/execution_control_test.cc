// Execution-control suite: cooperative cancellation, deadlines, and IO
// fault injection across the D-Tucker phases (see DESIGN.md §10).
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_context.h"
#include "data/generators.h"
#include "data/tensor_file.h"
#include "data/tensor_io.h"
#include "dtucker/dtucker.h"
#include "dtucker/online_dtucker.h"
#include "dtucker/out_of_core.h"
#include "tucker/hosvd.h"
#include "tucker/tucker_als.h"

namespace dtucker {
namespace {

Tensor TestTensor() {
  return MakeLowRankTensor({24, 20, 16}, {4, 4, 4}, /*noise=*/0.1,
                           /*seed=*/7);
}

DTuckerOptions TestOptions(const RunContext* ctx = nullptr) {
  DTuckerOptions opt;
  opt.tucker.ranks = {4, 4, 4};
  opt.tucker.max_iterations = 10;
  opt.tucker.tolerance = 0.0;  // Fixed sweep count: deterministic runs.
  opt.tucker.run_context = ctx;
  return opt;
}

// Fast backoff so the retry tests don't sleep for real.
void UseFastRetry(RunContext* ctx) {
  ctx->io_retry.initial_backoff_seconds = 1e-6;
  ctx->io_retry.max_backoff_seconds = 1e-5;
}

TEST(RunContextTest, CheckReportsCancellationAndDeadline) {
  RunContext ctx;
  EXPECT_EQ(ctx.Check(), StatusCode::kOk);
  EXPECT_FALSE(ctx.armed());

  ctx.SetDeadlineAfter(-1.0);  // Already expired.
  EXPECT_TRUE(ctx.armed());
  EXPECT_EQ(ctx.Check(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(ctx.RemainingSeconds(), 0.0);

  ctx.RequestCancel();  // Cancellation wins over the expired deadline.
  EXPECT_EQ(ctx.Check(), StatusCode::kCancelled);

  ctx.ClearDeadline();
  EXPECT_EQ(ctx.Check(), StatusCode::kCancelled);
  Status st = ctx.CheckStatus("unit test");
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_NE(st.ToString().find("unit test"), std::string::npos);
}

TEST(RunContextTest, FarDeadlineStaysClear) {
  RunContext ctx;
  ctx.SetDeadlineAfter(3600.0);
  EXPECT_TRUE(ctx.armed());
  EXPECT_EQ(ctx.Check(), StatusCode::kOk);
  EXPECT_GT(ctx.RemainingSeconds(), 3000.0);
}

TEST(IoRetryPolicyTest, BackoffGrowsAndCaps) {
  IoRetryPolicy policy;
  policy.initial_backoff_seconds = 1e-3;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 3e-3;
  EXPECT_TRUE(policy.Validate().ok());
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(0), 1e-3);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1), 2e-3);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), 3e-3);  // Capped.
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(9), 3e-3);

  policy.max_attempts = 0;
  EXPECT_EQ(policy.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(BackoffWithContextTest, CancelledContextShortCircuits) {
  RunContext ctx;
  ctx.io_retry.initial_backoff_seconds = 10.0;  // Would sleep 10 s.
  ctx.RequestCancel();
  Status st = BackoffWithContext(ctx.io_retry, /*attempt=*/1, &ctx);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

// --- Deadline at each phase boundary -----------------------------------

TEST(DeadlineTest, ExpiredDeadlineRejectsApproximationPhase) {
  Tensor x = TestTensor();
  RunContext ctx;
  ctx.SetDeadlineAfter(-1.0);

  // Full solve: the approximation phase has no usable partial state, so
  // the interruption is a hard error.
  Result<TuckerDecomposition> full = DTucker(x, TestOptions(&ctx));
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kDeadlineExceeded);

  SliceApproximationOptions aopt;
  aopt.slice_rank = 4;
  aopt.run_context = &ctx;
  Result<SliceApproximation> approx = ApproximateSlices(x, aopt);
  ASSERT_FALSE(approx.ok());
  EXPECT_EQ(approx.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, ExpiredDeadlineRejectsInitializationPhase) {
  Tensor x = TestTensor();
  SliceApproximationOptions aopt;
  aopt.slice_rank = 4;
  Result<SliceApproximation> approx = ApproximateSlices(x, aopt);
  ASSERT_TRUE(approx.ok());

  RunContext ctx;
  ctx.SetDeadlineAfter(-1.0);
  Result<TuckerDecomposition> r =
      DTuckerFromApproximation(approx.value(), TestOptions(&ctx));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);

  Result<TuckerDecomposition> init =
      DTuckerInitializeOnly(approx.value(), TestOptions(&ctx));
  ASSERT_FALSE(init.ok());
  EXPECT_EQ(init.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, DeadlineBetweenSweepsReturnsPartialResult) {
  Tensor x = TestTensor();
  RunContext ctx;
  DTuckerOptions opt = TestOptions(&ctx);
  // Arm an already-expired deadline from inside sweep 1's telemetry
  // callback: the loop observes it at the next pre-sweep checkpoint, so
  // exactly one sweep completes — deterministically.
  opt.sweep_callback = [&ctx](const SweepTelemetry& t) {
    if (t.sweep == 1) ctx.SetDeadlineAfter(-1.0);
  };
  TuckerStats stats;
  Result<TuckerDecomposition> r = DTucker(x, opt, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.completion, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.iterations, 1);
  ASSERT_EQ(stats.sweep_history.size(), 1u);
  EXPECT_NE(stats.completion_detail.find("DeadlineExceeded"),
            std::string::npos);
  // The partial decomposition is structurally valid.
  EXPECT_TRUE(r.value().Validate().ok());
}

TEST(DeadlineTest, ExpiredDeadlineRejectsBaselines) {
  Tensor x = TestTensor();
  RunContext ctx;
  ctx.SetDeadlineAfter(-1.0);

  Result<TuckerDecomposition> h = Hosvd(x, {4, 4, 4}, &ctx);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kDeadlineExceeded);

  Result<TuckerDecomposition> s = StHosvd(x, {4, 4, 4}, &ctx);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, TuckerAlsDeadlineBetweenSweepsReturnsPartial) {
  Tensor x = TestTensor();
  RunContext ctx;
  TuckerAlsOptions opt;
  opt.ranks = {4, 4, 4};
  opt.max_iterations = 8;
  opt.tolerance = 0.0;
  opt.run_context = &ctx;
  // ALS has no sweep callback; arm a deadline that expires almost
  // immediately — the ST-HOSVD init passes the entry check, and the sweep
  // loop observes the expiry at a later checkpoint. Completion is either
  // natural (machine faster than the deadline) or a recorded interruption;
  // both leave a structurally valid decomposition.
  ctx.SetDeadlineAfter(5e-3);
  TuckerStats stats;
  Result<TuckerDecomposition> r = TuckerAls(x, opt, &stats);
  if (r.ok()) {
    EXPECT_TRUE(r.value().Validate().ok());
    if (stats.completion != StatusCode::kOk) {
      EXPECT_EQ(stats.completion, StatusCode::kDeadlineExceeded);
      EXPECT_LT(stats.iterations, 8);
    }
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }
}

// --- Cancellation ------------------------------------------------------

TEST(CancelTest, SecondThreadCancelMidRunReturnsLastCompletedSweep) {
  Tensor x = TestTensor();
  RunContext ctx;
  DTuckerOptions opt = TestOptions(&ctx);

  // Handshake: sweep 1's callback wakes the canceller thread, then blocks
  // until the cancel request is visible — so the interruption lands after
  // exactly one completed sweep, from a different thread than the solver.
  std::atomic<bool> sweep_one_done{false};
  opt.sweep_callback = [&](const SweepTelemetry& t) {
    if (t.sweep != 1) return;
    sweep_one_done.store(true);
    while (!ctx.cancel_requested()) std::this_thread::yield();
  };
  std::thread canceller([&] {
    while (!sweep_one_done.load()) std::this_thread::yield();
    ctx.RequestCancel();
  });

  TuckerStats stats;
  Result<TuckerDecomposition> r = DTucker(x, opt, &stats);
  canceller.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.completion, StatusCode::kCancelled);
  EXPECT_EQ(stats.iterations, 1);
  EXPECT_TRUE(r.value().Validate().ok());

  // The partial result must match the state after the last completed
  // sweep: a fresh run budgeted to exactly that many sweeps reproduces it.
  DTuckerOptions ref_opt = TestOptions();
  ref_opt.tucker.max_iterations = 1;
  TuckerStats ref_stats;
  Result<TuckerDecomposition> ref = DTucker(x, ref_opt, &ref_stats);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(ref_stats.completion, StatusCode::kOk);
  ASSERT_EQ(r.value().factors.size(), ref.value().factors.size());
  for (std::size_t n = 0; n < ref.value().factors.size(); ++n) {
    EXPECT_TRUE(AlmostEqual(r.value().factors[n], ref.value().factors[n],
                            1e-12));
  }
  EXPECT_TRUE(AlmostEqual(r.value().core, ref.value().core, 1e-12));
  // ... and its fit agrees with the last telemetry record.
  ASSERT_FALSE(stats.sweep_history.empty());
  ASSERT_FALSE(ref_stats.sweep_history.empty());
  EXPECT_DOUBLE_EQ(stats.sweep_history.back().relative_error,
                   ref_stats.sweep_history.back().relative_error);
}

TEST(CancelTest, QueryCancelStopsEveryRankAtTheSameSweep) {
  // A cancel raised after sweep 2 on a 4-thread query solve: every rank
  // agrees at the next sweep boundary, so the result is exactly the
  // 2-sweep solve (at any thread count).
  Tensor x = TestTensor();
  SliceApproximationOptions aopt;
  aopt.slice_rank = 4;
  Result<SliceApproximation> approx = ApproximateSlices(x, aopt);
  ASSERT_TRUE(approx.ok());

  RunContext ctx;
  DTuckerOptions opt = TestOptions(&ctx);
  opt.num_threads = 4;
  opt.sweep_callback = [&ctx](const SweepTelemetry& t) {
    if (t.sweep == 2) ctx.RequestCancel();
  };
  TuckerStats stats;
  Result<TuckerDecomposition> r =
      DTuckerFromApproximation(approx.value(), opt, &stats);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.completion, StatusCode::kCancelled);
  EXPECT_EQ(stats.iterations, 2);

  DTuckerOptions ref_opt = TestOptions();
  ref_opt.tucker.max_iterations = 2;
  Result<TuckerDecomposition> ref =
      DTuckerFromApproximation(approx.value(), ref_opt);
  ASSERT_TRUE(ref.ok());
  for (std::size_t n = 0; n < ref.value().factors.size(); ++n) {
    EXPECT_TRUE(AlmostEqual(r.value().factors[n], ref.value().factors[n], 0.0));
  }
  EXPECT_TRUE(AlmostEqual(r.value().core, ref.value().core, 0.0));
}

TEST(CancelTest, OnlineInitializeHonorsCancelledContext) {
  Tensor chunk = MakeLowRankTensor({20, 16, 8}, {3, 3, 3}, 0.05, 3);
  RunContext ctx;
  ctx.RequestCancel();
  OnlineDTuckerOptions opt;
  opt.dtucker.tucker.ranks = {3, 3, 3};
  opt.dtucker.tucker.run_context = &ctx;
  OnlineDTucker online(opt);
  Status st = online.Initialize(chunk);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

// --- IO fault injection ------------------------------------------------

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the cases as parallel processes.
    path_ = ::testing::TempDir() + "/exec_control_faults_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".dtnsr";
    tensor_ = MakeLowRankTensor({12, 10, 6}, {3, 3, 3}, 0.05, 11);
    ASSERT_TRUE(SaveTensor(tensor_, path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  Tensor tensor_;
};

TEST_F(FaultInjectionTest, TransientFaultsRetryThenSucceed) {
  Result<TensorFileReader> reader = TensorFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());

  RunContext ctx;
  UseFastRetry(&ctx);
  std::vector<int> attempts;
  ctx.fault_hook = [&attempts](const char* op, int attempt) -> Status {
    EXPECT_STREQ(op, "ReadFrontalSlices");
    attempts.push_back(attempt);
    if (attempt < 2) return Status::IoError("injected transient fault");
    return Status::OK();
  };

  const Index elems = tensor_.dim(0) * tensor_.dim(1);
  std::vector<double> got(static_cast<std::size_t>(elems));
  ASSERT_TRUE(reader.value()
                  .ReadFrontalSlicesWithRetry(/*first=*/2, /*count=*/1,
                                              got.data(), &ctx)
                  .ok());
  EXPECT_EQ(attempts, (std::vector<int>{0, 1, 2}));

  // The retried read returns exactly what a clean read returns.
  std::vector<double> want(static_cast<std::size_t>(elems));
  ASSERT_TRUE(
      reader.value().ReadFrontalSlices(2, 1, want.data()).ok());
  EXPECT_EQ(got, want);
}

TEST_F(FaultInjectionTest, ExhaustedRetriesReturnUnavailable) {
  Result<TensorFileReader> reader = TensorFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());

  RunContext ctx;
  UseFastRetry(&ctx);
  ctx.io_retry.max_attempts = 3;
  int calls = 0;
  ctx.fault_hook = [&calls](const char*, int) -> Status {
    ++calls;
    return Status::IoError("injected persistent fault");
  };

  const Index elems = tensor_.dim(0) * tensor_.dim(1);
  std::vector<double> buf(static_cast<std::size_t>(elems));
  Status st = reader.value().ReadFrontalSlicesWithRetry(0, 1, buf.data(),
                                                        &ctx);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_NE(st.ToString().find("injected persistent fault"),
            std::string::npos);
}

TEST_F(FaultInjectionTest, OutOfCoreSolveRecoversFromInjectedFaults) {
  DTuckerOptions opt;
  opt.tucker.ranks = {3, 3, 3};
  opt.tucker.max_iterations = 5;
  opt.tucker.tolerance = 0.0;
  TuckerStats clean_stats;
  Result<TuckerDecomposition> clean =
      DTuckerFromFile(path_, opt, &clean_stats);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Kill the first attempt of the third read; the retry layer absorbs it.
  RunContext ctx;
  UseFastRetry(&ctx);
  int reads = 0;
  ctx.fault_hook = [&reads](const char*, int attempt) -> Status {
    if (attempt == 0) ++reads;
    if (reads == 3 && attempt == 0) {
      return Status::IoError("injected fault on third read");
    }
    return Status::OK();
  };
  DTuckerOptions faulty_opt = opt;
  faulty_opt.tucker.run_context = &ctx;
  TuckerStats faulty_stats;
  Result<TuckerDecomposition> faulty =
      DTuckerFromFile(path_, faulty_opt, &faulty_stats);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
  EXPECT_GE(reads, 3);  // The fault actually fired.
  EXPECT_EQ(faulty_stats.completion, StatusCode::kOk);

  // Same final model: the injected fault is invisible in the result.
  ASSERT_FALSE(clean_stats.error_history.empty());
  ASSERT_FALSE(faulty_stats.error_history.empty());
  EXPECT_NEAR(faulty_stats.error_history.back(),
              clean_stats.error_history.back(),
              1e-4 * clean_stats.error_history.back());
  EXPECT_TRUE(AlmostEqual(faulty.value().core, clean.value().core, 1e-12));
}

TEST_F(FaultInjectionTest, CancelledContextAbortsRetryLoop) {
  Result<TensorFileReader> reader = TensorFileReader::Open(path_);
  ASSERT_TRUE(reader.ok());

  RunContext ctx;
  UseFastRetry(&ctx);
  ctx.RequestCancel();
  const Index elems = tensor_.dim(0) * tensor_.dim(1);
  std::vector<double> buf(static_cast<std::size_t>(elems));
  Status st = reader.value().ReadFrontalSlicesWithRetry(0, 1, buf.data(),
                                                        &ctx);
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace dtucker
