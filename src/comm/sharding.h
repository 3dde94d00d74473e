// The fixed chunk grid over the slice dimension, the one fork-join that
// runs work over it, and the one reduction every D-Tucker slice sum goes
// through.
//
// Reductions over slices (range-finder products, carrier contractions,
// squared norms) must produce bitwise-identical results whatever the
// thread count. Floating-point addition is not associative, so the *shape*
// of the reduction is pinned by the slice count alone:
//
//   1. The L slices are cut into C = min(kShardChunkCount, L) fixed,
//      contiguous chunks on the grid boundaries L*c/C.
//   2. Within a chunk, contributions accumulate serially in ascending
//      slice order.
//   3. Chunk partials combine through a fixed pairwise binary tree over
//      the chunk indices: level 0 adds 1 into 0, 3 into 2, ...; an odd
//      last node rises unchanged to the first level that pairs it
//      (ReduceOverChunks below).
//
// RunChunks computes each chunk whole on one thread, and which thread that
// is never enters the arithmetic, so plain calls, Engine and every thread
// count give the same bits.
#ifndef DTUCKER_COMM_SHARDING_H_
#define DTUCKER_COMM_SHARDING_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace dtucker {

// Grid size of the canonical slice reduction, and so the most threads
// that can work on one slice pass.
inline constexpr Index kShardChunkCount = 8;

// The chunk grid of L slices.
struct ShardPlan {
  Index num_slices = 0;  // L.
  Index num_chunks = 0;  // C = min(kShardChunkCount, L).

  // Slice range of chunk `c` (grid boundaries L*c/C).
  Index ChunkSliceBegin(Index c) const {
    return num_slices * c / num_chunks;
  }
  Index ChunkSliceEnd(Index c) const {
    return num_slices * (c + 1) / num_chunks;
  }
};

// The grid of `num_slices` >= 1 slices; InvalidArgument otherwise.
Result<ShardPlan> MakeShardPlan(Index num_slices);

// Runs fn(c, worker) once for every chunk c in [0, num_chunks) through
// ForkJoin (common/thread_pool.h) on w = min(num_threads, num_chunks)
// threads (at least 1): the caller, which is worker 0, and w - 1 parked,
// reused threads, which claim chunks in ascending order; `worker` in
// [0, w) names the thread, so fn can keep scratch per worker, and its
// trace spans go to lane `worker`. While w > 1 each thread holds a
// PoolPartitionLease, so the threads split the SetBlasThreads width of
// their nested GEMMs instead of each claiming it whole.
void RunChunks(Index num_chunks, int num_threads,
               const std::function<void(Index, int)>& fn);

// The canonical slice reduction. fill(c, worker, block) writes chunk c's
// partial (n doubles) into `block`; the C calls run through RunChunks. On
// return out[0, n) holds the tree sum of the C partials (step 3 above),
// dst += src at every node: each node is added by whichever worker
// finishes its second child, so the tree's order is fixed while its adds
// overlap the fills.
// `out` holds chunk 0's partial while the others sit in the grow-only
// `scratch`.
void ReduceOverChunks(const ShardPlan& plan, int num_threads, std::size_t n,
                      const std::function<void(Index, int, double*)>& fill,
                      double* out, std::vector<double>* scratch);

}  // namespace dtucker

#endif  // DTUCKER_COMM_SHARDING_H_
