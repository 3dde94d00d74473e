#include "comm/communicator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "comm/sharding.h"
#include "common/metrics.h"
#include "common/run_context.h"

namespace dtucker {
namespace {

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

TEST(CommTest, BroadcastReplicatesRoot) {
  for (int size : {1, 2, 4}) {
    std::vector<std::vector<double>> got(static_cast<std::size_t>(size));
    ExpectAllOk(RunRanks(size, [&](Communicator* comm) {
      std::vector<double> buf = {0, 0, 0};
      if (comm->rank() == 0) buf = {1.5, -2.0, 3.25};
      DT_RETURN_NOT_OK(comm->Broadcast(buf.data(), buf.size(), 0));
      got[comm->rank()] = buf;
      return Status::OK();
    }));
    for (int r = 0; r < size; ++r) {
      EXPECT_EQ(got[r], (std::vector<double>{1.5, -2.0, 3.25})) << "rank " << r;
    }
  }
}

TEST(CommTest, BroadcastNonZeroRoot) {
  std::vector<double> got(3, 0.0);
  ExpectAllOk(RunRanks(3, [&](Communicator* comm) {
    double v = comm->rank() == 2 ? 7.0 : 0.0;
    DT_RETURN_NOT_OK(comm->Broadcast(&v, 1, 2));
    got[comm->rank()] = v;
    return Status::OK();
  }));
  EXPECT_EQ(got, (std::vector<double>{7.0, 7.0, 7.0}));
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

TEST(CommTest, AllReduceMax) {
  std::vector<double> got(4, 0.0);
  ExpectAllOk(RunRanks(4, [&](Communicator* comm) {
    double v[2] = {static_cast<double>(comm->rank()),
                   -static_cast<double>(comm->rank())};
    DT_RETURN_NOT_OK(comm->AllReduceMax(v, 2));
    EXPECT_EQ(v[1], 0.0);
    got[comm->rank()] = v[0];
    return Status::OK();
  }));
  EXPECT_EQ(got, (std::vector<double>{3, 3, 3, 3}));
}

TEST(CommTest, GatherConcatenatesInRankOrder) {
  std::vector<double> recv(4 * 2, -1.0);
  ExpectAllOk(RunRanks(4, [&](Communicator* comm) {
    double send[2] = {10.0 + comm->rank(), 20.0 + comm->rank()};
    DT_RETURN_NOT_OK(
        comm->Gather(send, std::vector<std::size_t>(4, 2),
                     comm->rank() == 0 ? recv.data() : nullptr, 0));
    return Status::OK();
  }));
  EXPECT_EQ(recv, (std::vector<double>{10, 20, 11, 21, 12, 22, 13, 23}));
}

TEST(CommTest, AllGatherVWithZeroCounts) {
  // Rank 1 contributes nothing (a degenerate shard); everyone still exits
  // with the identical concatenation.
  const std::vector<std::size_t> counts = {2, 0, 3};
  std::vector<std::vector<double>> got(3);
  ExpectAllOk(RunRanks(3, [&](Communicator* comm) {
    std::vector<double> send;
    for (std::size_t i = 0; i < counts[comm->rank()]; ++i) {
      send.push_back(100.0 * comm->rank() + i);
    }
    std::vector<double> recv(5, -1.0);
    DT_RETURN_NOT_OK(comm->AllGatherV(send.data(), counts, recv.data()));
    got[comm->rank()] = recv;
    return Status::OK();
  }));
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(got[r], (std::vector<double>{0, 1, 200, 201, 202})) << "rank "
                                                                  << r;
  }
}

TEST(CommTest, MissingPeerTimesOutAsUnavailable) {
  // Only rank 0 enters the collective; the wait must end in kUnavailable
  // after the (short) timeout instead of deadlocking.
  auto group = InProcessGroup::Create(2);
  Communicator* comm = group->comm(0);
  comm->set_timeout_seconds(0.2);
  double v = 1.0;
  Status st = comm->AllReduceMax(&v, 1);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
}

TEST(CommTest, RunContextCancelsBlockedCollective) {
  auto group = InProcessGroup::Create(2);
  RunContext ctx;
  ctx.RequestCancel();
  Communicator* comm = group->comm(0);
  comm->set_run_context(&ctx);
  double v = 1.0;
  Status st = comm->AllReduceMax(&v, 1);
  EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
}

TEST(CommMetricsTest, CollectivesRecordWaitAndOpCounts) {
  // Satellite contract for comm.wait_ns.* / comm.ops.*: every outermost
  // collective bumps its op counter exactly once (the broadcast nested in
  // AllReduceSum folds into allreduce_sum, not broadcast).
  const std::uint64_t sums_before =
      MetricCounter("comm.ops.allreduce_sum").Value();
  const std::uint64_t bcasts_before =
      MetricCounter("comm.ops.broadcast").Value();
  const std::uint64_t maxes_before =
      MetricCounter("comm.ops.allreduce_max").Value();
  ExpectAllOk(RunRanks(2, [](Communicator* comm) {
    double v = 1.0;
    DT_RETURN_NOT_OK(comm->AllReduceSum(&v, 1));
    return comm->AllReduceMax(&v, 1);
  }));
  EXPECT_EQ(MetricCounter("comm.ops.allreduce_sum").Value() - sums_before, 2u);
  EXPECT_EQ(MetricCounter("comm.ops.broadcast").Value() - bcasts_before, 0u);
  EXPECT_EQ(MetricCounter("comm.ops.allreduce_max").Value() - maxes_before,
            2u);
  // Wait gauges exist (>= 0; actual magnitude is timing-dependent).
  EXPECT_GE(MetricGauge("comm.wait_ns.allreduce_sum").Value(), 0.0);
}

TEST(ShardPlanTest, RejectsBadArguments) {
  EXPECT_FALSE(MakeShardPlan(0, 1, 0).ok());
  EXPECT_FALSE(MakeShardPlan(10, 0, 0).ok());
  EXPECT_FALSE(MakeShardPlan(10, 2, 2).ok());   // rank out of range.
  EXPECT_FALSE(MakeShardPlan(10, 2, -1).ok());
  // More ranks than slices: InvalidArgument, never a crash.
  Result<ShardPlan> plan = MakeShardPlan(3, 4, 0);
  EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardPlanTest, ShardsPartitionTheSliceRange) {
  for (Index L : {1, 5, 8, 9, 64}) {
    for (int R : {1, 2, 3, 4, 8}) {
      if (R > L) continue;
      Index covered = 0;
      Index prev_end = 0;
      for (int r = 0; r < R; ++r) {
        Result<ShardPlan> plan = MakeShardPlan(L, R, r);
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        const ShardPlan& p = plan.value();
        EXPECT_EQ(p.slice_begin, prev_end);
        EXPECT_LE(p.slice_begin, p.slice_end);
        // Shard boundaries are chunk boundaries.
        EXPECT_EQ(p.slice_begin, p.ChunkSliceBegin(p.chunk_begin));
        EXPECT_EQ(p.slice_end,
                  p.chunk_end == 0 ? Index{0} : p.ChunkSliceEnd(p.chunk_end - 1));
        covered += p.NumLocalSlices();
        prev_end = p.slice_end;
      }
      EXPECT_EQ(covered, L) << "L=" << L << " R=" << R;
      EXPECT_EQ(prev_end, L);
    }
  }
}

TEST(ShardPlanTest, DegenerateShardsBeyondChunkGrid) {
  // L = 9 slices, 9 ranks, but only kShardChunkCount = 8 chunks: at least
  // one rank owns zero chunks yet the union still covers every slice.
  int degenerate = 0;
  Index covered = 0;
  for (int r = 0; r < 9; ++r) {
    Result<ShardPlan> plan = MakeShardPlan(9, 9, r);
    ASSERT_TRUE(plan.ok());
    if (plan.value().Degenerate()) ++degenerate;
    covered += plan.value().NumLocalSlices();
  }
  EXPECT_GE(degenerate, 1);
  EXPECT_EQ(covered, 9);
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

TEST(TreeCombineTest, PowerOfTwoShardsComposeToTheGlobalTree) {
  // The cross-count bitwise contract in one picture: reducing 8 chunk
  // partials locally on R ranks (each owning a contiguous power-of-two
  // aligned range) and then combining rank results through the binomial
  // tree yields the same grouping for R = 1, 2, 4, 8.
  auto combine = [](std::string* dst, const std::string& src) {
    *dst = "(" + *dst + "+" + src + ")";
  };
  std::vector<std::string> reference;
  for (int R : {1, 2, 4, 8}) {
    std::vector<std::string> rank_partials;
    for (int r = 0; r < R; ++r) {
      std::vector<std::string> chunks;
      for (int c = 8 * r / R; c < 8 * (r + 1) / R; ++c) {
        chunks.push_back(std::to_string(c));
      }
      TreeCombine(&chunks, combine);
      rank_partials.push_back(chunks[0]);
    }
    // The binomial cross-rank reduce visits senders in the same pairwise
    // order as TreeCombine for power-of-two counts.
    TreeCombine(&rank_partials, combine);
    if (R == 1) {
      reference.push_back(rank_partials[0]);
    } else {
      EXPECT_EQ(rank_partials[0], reference[0]) << "R=" << R;
    }
  }
}

TEST(ChunkTreeAllReduceTest, EveryRankCountGivesTheCanonicalTreeBits) {
  // Chunk partials whose sum depends on the grouping: the result must be
  // TreeCombine over all C chunks, bit for bit, for every rank count —
  // powers of two or not, and with degenerate shards past the chunk grid.
  // Magnitudes spread over 2^-20..2^19: over 64 entries, a binomial
  // reduce of per-rank sums differs from the tree in a third of them.
  const std::size_t n = 64;
  auto chunk_value = [](Index c, std::size_t k) {
    const Index kk = static_cast<Index>(k);
    const int exponent = static_cast<int>((37 * c + 11 * kk) % 40) - 20;
    return std::sin(12.9898 * static_cast<double>(c) +
                    78.233 * static_cast<double>(kk) + 0.5) *
           std::ldexp(1.0, exponent);
  };
  for (Index num_slices : {1, 3, 5, 6, 7, 8, 12}) {
    const Index chunks = std::min(kShardChunkCount, num_slices);
    std::vector<std::vector<double>> parts(static_cast<std::size_t>(chunks));
    for (Index c = 0; c < chunks; ++c) {
      for (std::size_t k = 0; k < n; ++k) {
        parts[static_cast<std::size_t>(c)].push_back(chunk_value(c, k));
      }
    }
    TreeCombine(&parts, [](std::vector<double>* dst,
                           const std::vector<double>& src) {
      for (std::size_t k = 0; k < dst->size(); ++k) (*dst)[k] += src[k];
    });
    const int max_ranks = static_cast<int>(std::min<Index>(num_slices, 9));
    for (int size = 1; size <= max_ranks; ++size) {
      std::vector<std::vector<double>> out(static_cast<std::size_t>(size));
      ExpectAllOk(RunRanks(size, [&](Communicator* comm) {
        DT_ASSIGN_OR_RETURN(ShardPlan plan,
                            MakeShardPlan(num_slices, size, comm->rank()));
        std::vector<double> sum(n), scratch;
        Index next = plan.chunk_begin;  // Chunks must arrive in order.
        DT_RETURN_NOT_OK(ChunkTreeAllReduce(
            comm, plan, n,
            [&](Index c, double* block) {
              EXPECT_EQ(c, next++);
              for (std::size_t k = 0; k < n; ++k) block[k] = chunk_value(c, k);
            },
            sum.data(), &scratch));
        EXPECT_EQ(next, plan.chunk_end);
        out[static_cast<std::size_t>(comm->rank())] = sum;
        return Status::OK();
      }));
      for (int r = 0; r < size; ++r) {
        EXPECT_EQ(out[static_cast<std::size_t>(r)], parts[0])
            << "L=" << num_slices << " R=" << size << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace dtucker
