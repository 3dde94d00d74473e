#include "comm/sharding.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/thread_pool.h"
#include "linalg/blas.h"

namespace dtucker {

Result<ShardPlan> MakeShardPlan(Index num_slices) {
  if (num_slices < 1) {
    return Status::InvalidArgument("shard plan: need at least one slice");
  }
  ShardPlan plan;
  plan.num_slices = num_slices;
  plan.num_chunks = std::min(kShardChunkCount, num_slices);
  return plan;
}

void RunChunks(Index num_chunks, int num_threads,
               const std::function<void(Index, int)>& fn) {
  const int width =
      static_cast<int>(std::max<Index>(1, std::min<Index>(num_threads,
                                                          num_chunks)));
  if (width == 1) {
    for (Index c = 0; c < num_chunks; ++c) fn(c, 0);
    return;
  }
  // Taken before any worker starts, so none sees the BLAS width undivided.
  std::unique_ptr<PoolPartitionLease[]> leases(
      new PoolPartitionLease[static_cast<std::size_t>(width)]);
  ForkJoin(num_chunks, width, fn);
}

void ReduceOverChunks(const ShardPlan& plan, int num_threads, std::size_t n,
                      const std::function<void(Index, int, double*)>& fill,
                      double* out, std::vector<double>* scratch) {
  const Index chunks = plan.num_chunks;
  const std::size_t blocks_n = static_cast<std::size_t>(chunks);
  if (scratch->size() < (blocks_n - 1) * n) scratch->resize((blocks_n - 1) * n);
  auto block = [&](Index c) {
    return c == 0 ? out : scratch->data() + static_cast<std::size_t>(c - 1) * n;
  };
  // The tree: node i of level k covers chunks [i 2^k, (i+1) 2^k)
  // and its sum lives in the block of its first chunk. Whoever finishes
  // the second child of a node adds the right child into the left one, so
  // the combine runs on the workers as the chunks finish, in the tree's
  // fixed order whichever thread does it.
  static_assert(kShardChunkCount <= 16, "arrivals holds 4 tree levels");
  std::atomic<int> arrivals[4][kShardChunkCount] = {};
  RunChunks(chunks, num_threads, [&](Index c, int worker) {
    fill(c, worker, block(c));
    Index node = c;
    Index count = chunks;  // Nodes at the current level.
    for (int k = 0; count > 1; ++k, node /= 2, count = (count + 1) / 2) {
      if ((node ^ 1) >= count) continue;  // An odd last node rises alone.
      if (arrivals[k][node / 2].fetch_add(1, std::memory_order_acq_rel) == 0) {
        return;  // The sibling is not done; its finisher carries on.
      }
      Axpy(1.0, block((node | 1) << k), block((node & ~Index{1}) << k),
           static_cast<Index>(n));
    }
  });
}

}  // namespace dtucker
