#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "dtucker/slice_approximation.h"

namespace dtucker {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (std::ptrdiff_t count : {1, 257}) {
    for (int width = 1; width <= 9; ++width) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(count));
      std::atomic<int> bad_worker{0};
      const int w = static_cast<int>(std::min<std::ptrdiff_t>(width, count));
      ForkJoin(count, width, [&](std::ptrdiff_t i, int worker) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
        if (worker < 0 || worker >= w) bad_worker.fetch_add(1);
      });
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "count " << count << " width " << width << " index " << i;
      }
      EXPECT_EQ(bad_worker.load(), 0) << "count " << count << " width "
                                      << width;
    }
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  for (int width = 1; width <= 9; ++width) {
    std::atomic<int> calls{0};
    ForkJoin(0, width, [&](std::ptrdiff_t, int) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0) << "width " << width;
  }
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  // Items of uneven cost; each writes its own plain slot, and every write
  // must be visible to the caller once ForkJoin returns.
  constexpr std::ptrdiff_t kItems = 300;
  std::vector<long> out(kItems, -1);
  ForkJoin(kItems, 4, [&](std::ptrdiff_t i, int) {
    long acc = 0;
    for (std::ptrdiff_t k = 0; k <= (i % 17) * 1000; ++k) acc += k % 7;
    out[static_cast<std::size_t>(i)] = acc + i;
  });
  for (std::ptrdiff_t i = 0; i < kItems; ++i) {
    long acc = 0;
    for (std::ptrdiff_t k = 0; k <= (i % 17) * 1000; ++k) acc += k % 7;
    EXPECT_EQ(out[static_cast<std::size_t>(i)], acc + i) << "item " << i;
  }
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  // Leave the helpers parked, then join work that needs none of them: it
  // runs on the caller and returns without waking or waiting on the pool.
  ForkJoin(32, 4, [](std::ptrdiff_t, int) {});
  const std::thread::id caller = std::this_thread::get_id();
  for (std::ptrdiff_t count : {0, 1}) {
    int calls = 0;
    bool on_caller = true;
    ForkJoin(count, 8, [&](std::ptrdiff_t, int worker) {
      ++calls;  // Safe: at most one item, run inline.
      on_caller = on_caller && worker == 0 &&
                  std::this_thread::get_id() == caller;
    });
    EXPECT_EQ(calls, count);
    EXPECT_TRUE(on_caller) << "count " << count;
  }
}

TEST(ThreadPoolTest, WidthOneRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool inline_only = true;
  ForkJoin(10, 1, [&](std::ptrdiff_t i, int worker) {
    order.push_back(static_cast<int>(i));  // Safe: inline execution.
    inline_only = inline_only && worker == 0 &&
                  std::this_thread::get_id() == caller;
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(inline_only);
}

TEST(ThreadPoolTest, NestedForkJoinInsideAWorkerCompletes) {
  constexpr int kOuter = 4;
  constexpr int kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ForkJoin(kOuter, kOuter, [&](std::ptrdiff_t i, int) {
    ForkJoin(kInner, 3, [&](std::ptrdiff_t j, int) {
      hits[static_cast<std::size_t>(i * kInner + j)].fetch_add(1);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ConcurrentLeasedCallersAllFinish) {
  constexpr int kCallers = 4;
  constexpr int kRounds = 20;
  std::vector<long> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&sums, c] {
      PoolPartitionLease lease;
      for (int round = 0; round < kRounds; ++round) {
        std::atomic<long> sum{0};
        ForkJoin(100, 4, [&](std::ptrdiff_t i, int) { sum.fetch_add(i); });
        sums[static_cast<std::size_t>(c)] += sum.load();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(sums[static_cast<std::size_t>(c)], kRounds * 100L * 99 / 2)
        << "caller " << c;
  }
  EXPECT_EQ(ActivePoolLeases(), 0);
}

TEST(ThreadPoolTest, ReusableAcrossRounds) {
  std::mutex mu;
  std::set<std::thread::id> helpers;
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    ForkJoin(64, 4, [&](std::ptrdiff_t i, int worker) {
      sum.fetch_add(static_cast<int>(i));
      if (worker != 0) {
        std::lock_guard<std::mutex> lock(mu);
        helpers.insert(std::this_thread::get_id());
      }
    });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
  // A lone caller gets the same parked threads every round.
  EXPECT_LE(helpers.size(), 3u);
}

TEST(ParallelApproximationTest, BitIdenticalToSerial) {
  Tensor x = MakeLowRankTensor({24, 20, 16}, {4, 4, 4}, 0.2, 5);
  SliceApproximationOptions serial;
  serial.slice_rank = 4;
  serial.num_threads = 1;
  SliceApproximationOptions parallel = serial;
  parallel.num_threads = 4;

  Result<SliceApproximation> a = ApproximateSlices(x, serial);
  Result<SliceApproximation> b = ApproximateSlices(x, parallel);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a.value().NumSlices(), b.value().NumSlices());
  for (Index l = 0; l < a.value().NumSlices(); ++l) {
    const auto& sa = a.value().slices[static_cast<std::size_t>(l)];
    const auto& sb = b.value().slices[static_cast<std::size_t>(l)];
    EXPECT_TRUE(AlmostEqual(sa.u, sb.u, 0.0)) << "slice " << l;
    EXPECT_TRUE(AlmostEqual(sa.v, sb.v, 0.0)) << "slice " << l;
    EXPECT_EQ(sa.s, sb.s) << "slice " << l;
  }
}

}  // namespace
}  // namespace dtucker
