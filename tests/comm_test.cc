// Tests for the chunk grid, its fork-join and canonical reduction
// (comm/sharding.h), and the in-process all-reduce (comm/communicator.h).
// TreeCombine below is the reference for ReduceOverChunks' tree.
#include "comm/communicator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/sharding.h"
#include "common/thread_pool.h"

namespace dtucker {
namespace {

// The canonical tree over chunk partials, written out plainly: combine
// (dst, src) applied bottom-up, level 0 pairing (0,1), (2,3), ...; an odd
// trailing element is carried upward unchanged and combined at the first
// level that pairs it. The shape depends only on partials.size(); the
// result lands in partials[0].
template <typename T, typename CombineFn>
void TreeCombine(std::vector<T>* partials, const CombineFn& combine) {
  if (partials->empty()) return;
  // Indices of the live nodes at the current level.
  std::vector<std::size_t> live(partials->size());
  for (std::size_t i = 0; i < live.size(); ++i) live[i] = i;
  while (live.size() > 1) {
    std::vector<std::size_t> next;
    next.reserve((live.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < live.size(); i += 2) {
      combine(&(*partials)[live[i]], (*partials)[live[i + 1]]);
      next.push_back(live[i]);
    }
    if (live.size() % 2 == 1) next.push_back(live.back());
    live = std::move(next);
  }
}

// Runs `body(comm)` on every rank of an in-process group, each rank on its
// own thread, and returns the per-rank statuses.
std::vector<Status> RunRanks(int size,
                             const std::function<Status(Communicator*)>& body) {
  auto group = InProcessGroup::Create(size);
  std::vector<Status> statuses(static_cast<std::size_t>(size), Status::OK());
  std::vector<std::thread> threads;
  for (int r = 1; r < size; ++r) {
    threads.emplace_back([&, r] { statuses[r] = body(group->comm(r)); });
  }
  statuses[0] = body(group->comm(0));
  for (auto& t : threads) t.join();
  return statuses;
}

void ExpectAllOk(const std::vector<Status>& statuses) {
  for (std::size_t r = 0; r < statuses.size(); ++r) {
    EXPECT_TRUE(statuses[r].ok()) << "rank " << r << ": "
                                  << statuses[r].ToString();
  }
}

TEST(CommTest, AllReduceSumMatchesBinomialTree) {
  // Four contributions whose sum depends on grouping; the contract pins
  // the binomial tree (r1->r0, r3->r2 at distance 1, then r2->r0), i.e.
  // ((a0 + a1) + (a2 + a3)) with receiver += sender.
  const std::vector<double> a = {1.0 / 3, 1.0 / 7, 1.0 / 11, 1.0 / 13};
  const double expected = (a[0] + a[1]) + (a[2] + a[3]);
  std::vector<double> got(4, 0.0);
  ExpectAllOk(RunRanks(4, [&](Communicator* comm) {
    double v = a[static_cast<std::size_t>(comm->rank())];
    DT_RETURN_NOT_OK(comm->AllReduceSum(&v, 1));
    got[comm->rank()] = v;
    return Status::OK();
  }));
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(got[r], expected) << "rank " << r;  // Bitwise, not approximate.
  }
}

TEST(CommTest, AllReduceSumMatrixAndRepeatability) {
  for (int size : {1, 2, 3, 4}) {
    std::vector<Matrix> first(static_cast<std::size_t>(size));
    for (int repeat = 0; repeat < 2; ++repeat) {
      std::vector<Matrix> got(static_cast<std::size_t>(size));
      ExpectAllOk(RunRanks(size, [&](Communicator* comm) {
        Matrix m(2, 3);
        for (Index i = 0; i < m.size(); ++i) {
          m.data()[i] = 1.0 / (1 + comm->rank()) + 0.01 * i;
        }
        DT_RETURN_NOT_OK(comm->AllReduceSum(&m));
        got[comm->rank()] = m;
        return Status::OK();
      }));
      if (repeat == 0) {
        first = got;
      } else {
        for (int r = 0; r < size; ++r) {
          for (Index i = 0; i < got[r].size(); ++i) {
            EXPECT_EQ(got[r].data()[i], first[r].data()[i])
                << "size " << size << " rank " << r;
          }
        }
      }
      // Every rank exits with rank 0's bits.
      for (int r = 1; r < size; ++r) {
        for (Index i = 0; i < got[r].size(); ++i) {
          EXPECT_EQ(got[r].data()[i], got[0].data()[i]);
        }
      }
    }
  }
}

TEST(CommTest, MissingPeerTimesOutAsUnavailable) {
  // Only rank 0 enters the collective; the wait must end in kUnavailable
  // after the (short) timeout instead of deadlocking.
  auto group = InProcessGroup::Create(2);
  Communicator* comm = group->comm(0);
  comm->set_timeout_seconds(0.2);
  double v = 1.0;
  Status st = comm->AllReduceSum(&v, 1);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
}

TEST(ShardPlanTest, RejectsBadArguments) {
  EXPECT_EQ(MakeShardPlan(0).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeShardPlan(-3).status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardPlanTest, ShardsPartitionTheSliceRange) {
  // The grid is a function of L alone: C = min(8, L) nonempty, contiguous
  // chunks covering [0, L) in order.
  for (Index L : {1, 5, 8, 9, 64, 97}) {
    Result<ShardPlan> plan = MakeShardPlan(L);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const ShardPlan& p = plan.value();
    EXPECT_EQ(p.num_chunks, std::min(kShardChunkCount, L));
    Index prev_end = 0;
    for (Index c = 0; c < p.num_chunks; ++c) {
      EXPECT_EQ(p.ChunkSliceBegin(c), prev_end) << "L=" << L << " c=" << c;
      EXPECT_LT(p.ChunkSliceBegin(c), p.ChunkSliceEnd(c));
      prev_end = p.ChunkSliceEnd(c);
    }
    EXPECT_EQ(prev_end, L);
  }
}

TEST(TreeCombineTest, GroupingIsAFixedBinaryTree) {
  auto shape = [](int n) {
    std::vector<std::string> parts;
    for (int i = 0; i < n; ++i) parts.push_back(std::to_string(i));
    TreeCombine(&parts, [](std::string* dst, const std::string& src) {
      *dst = "(" + *dst + "+" + src + ")";
    });
    return parts.empty() ? std::string() : parts[0];
  };
  EXPECT_EQ(shape(1), "0");
  EXPECT_EQ(shape(2), "(0+1)");
  EXPECT_EQ(shape(3), "((0+1)+2)");
  EXPECT_EQ(shape(4), "((0+1)+(2+3))");
  EXPECT_EQ(shape(5), "(((0+1)+(2+3))+4)");
  EXPECT_EQ(shape(8), "(((0+1)+(2+3))+((4+5)+(6+7)))");
}

TEST(ReduceOverChunksTest, EveryThreadCountGivesTheCanonicalTreeBits) {
  // Chunk partials whose sum depends on the grouping: the result must be
  // TreeCombine over all C chunks, bit for bit, for every thread count —
  // powers of two or not, and past the chunk grid. Magnitudes spread over
  // 2^-20..2^19: over 64 entries, a left-to-right sum differs from the
  // tree in a third of them. Every chunk runs once, on one of the
  // min(threads, C) workers, each holding a pool lease while more than
  // one runs.
  const std::size_t n = 64;
  auto chunk_value = [](Index c, std::size_t k) {
    const Index kk = static_cast<Index>(k);
    const int exponent = static_cast<int>((37 * c + 11 * kk) % 40) - 20;
    return std::sin(12.9898 * static_cast<double>(c) +
                    78.233 * static_cast<double>(kk) + 0.5) *
           std::ldexp(1.0, exponent);
  };
  for (Index num_slices : {1, 3, 5, 6, 7, 8, 12}) {
    const ShardPlan plan = MakeShardPlan(num_slices).ValueOrDie();
    std::vector<std::vector<double>> parts(
        static_cast<std::size_t>(plan.num_chunks));
    for (Index c = 0; c < plan.num_chunks; ++c) {
      for (std::size_t k = 0; k < n; ++k) {
        parts[static_cast<std::size_t>(c)].push_back(chunk_value(c, k));
      }
    }
    TreeCombine(&parts, [](std::vector<double>* dst,
                           const std::vector<double>& src) {
      for (std::size_t k = 0; k < dst->size(); ++k) (*dst)[k] += src[k];
    });
    for (int threads = 1; threads <= 9; ++threads) {
      const int width =
          static_cast<int>(std::min<Index>(threads, plan.num_chunks));
      std::vector<std::atomic<int>> runs(
          static_cast<std::size_t>(plan.num_chunks));
      std::atomic<bool> worker_ok{true};
      std::atomic<bool> leases_ok{true};
      std::vector<double> sum(n), scratch;
      ReduceOverChunks(
          plan, threads, n,
          [&](Index c, int worker, double* block) {
            ++runs[static_cast<std::size_t>(c)];
            if (worker < 0 || worker >= width) worker_ok = false;
            if (width > 1 && ActivePoolLeases() < width) leases_ok = false;
            for (std::size_t k = 0; k < n; ++k) block[k] = chunk_value(c, k);
          },
          sum.data(), &scratch);
      const std::string what =
          "L=" + std::to_string(num_slices) + " threads=" +
          std::to_string(threads);
      EXPECT_EQ(sum, parts[0]) << what;
      for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1) << what;
      EXPECT_TRUE(worker_ok) << what;
      EXPECT_TRUE(leases_ok) << what;
    }
  }
}

}  // namespace
}  // namespace dtucker
