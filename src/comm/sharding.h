// Shard assignment for the slice dimension, built on a fixed chunk grid,
// and the one reduction every D-Tucker slice sum goes through.
//
// Reductions over slices (range-finder products, carrier contractions,
// squared norms) must produce bitwise-identical results whether they run
// on 1 rank or many. Floating-point addition is not associative, so the
// *shape* of the reduction has to be pinned independently of the rank
// count. The scheme:
//
//   1. The L slices are cut into C = min(kShardChunkCount, L) fixed,
//      contiguous chunks on the grid boundaries L*c/C — a function of L
//      alone.
//   2. Within a chunk, contributions accumulate serially in ascending
//      slice order.
//   3. Chunk partials combine through a fixed pairwise binary tree over
//      the chunk indices (TreeCombine below).
//
// Ranks own contiguous *chunk* ranges ([C*r/R, C*(r+1)/R)), and the slice
// range follows from the chunk range — so a shard boundary is always a
// chunk boundary and every chunk is computed whole on exactly one rank.
// ChunkTreeAllReduce then evaluates step 3 as one tree whatever the rank
// count: each rank folds the subtrees it owns whole, and the rank sums are
// combined in the tree's own order (by the binomial AllReduceSum when
// every rank owns one power-of-two subtree, else on rank 0). Results are
// therefore bitwise identical for every R in [1, L], powers of two or not.
//
// Degenerate shards are legal: with R > C (but R <= L, enforced by
// Validate) the trailing ranks own zero chunks and zero slices; they still
// participate in every collective so the group stays in lockstep.
#ifndef DTUCKER_COMM_SHARDING_H_
#define DTUCKER_COMM_SHARDING_H_

#include <functional>
#include <vector>

#include "comm/communicator.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace dtucker {

// Grid size of the canonical slice reduction, and so the most ranks that
// can own slices.
inline constexpr Index kShardChunkCount = 8;

struct ShardPlan {
  Index num_slices = 0;   // L.
  Index num_chunks = 0;   // C = min(kShardChunkCount, L).
  int num_ranks = 0;      // R.
  int rank = -1;          // This rank.
  Index chunk_begin = 0;  // Owned chunk range [chunk_begin, chunk_end).
  Index chunk_end = 0;
  Index slice_begin = 0;  // Owned slice range [slice_begin, slice_end).
  Index slice_end = 0;

  Index NumLocalSlices() const { return slice_end - slice_begin; }
  Index NumLocalChunks() const { return chunk_end - chunk_begin; }
  bool Degenerate() const { return NumLocalSlices() == 0; }

  // Global slice range of chunk `c` (grid boundaries L*c/C).
  Index ChunkSliceBegin(Index c) const {
    return num_slices * c / num_chunks;
  }
  Index ChunkSliceEnd(Index c) const {
    return num_slices * (c + 1) / num_chunks;
  }
};

// Validates (L >= 1, 1 <= R, R <= L) and builds the plan for `rank`.
// num_ranks > num_slices is rejected with InvalidArgument: a shard grid
// finer than the slice dimension cannot give every rank work, and the
// caller should reduce the rank count instead.
Result<ShardPlan> MakeShardPlan(Index num_slices, int num_ranks, int rank);

// Fixed pairwise binary-tree combine of `partials` (all same shape) with
// combine(dst, src) applied bottom-up: level 0 pairs (0,1), (2,3), ...; an
// odd trailing element is carried upward unchanged and combined at the
// first level that pairs it. The shape depends only on partials.size().
// Result lands in partials[0].
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

// The rank count a `num_threads`-thread solve over `num_slices` slices
// runs as: num_threads clamped to [1, C], since ranks beyond the chunk
// grid would own no slices.
int RanksForThreads(int num_threads, Index num_slices);

// Runs fn(r) for every r in [0, num_ranks), each on its own thread (rank 0
// on the caller's; the others on parked, reused threads), and waits for
// all of them. While more than one rank runs, each
// holds a PoolPartitionLease, so the ranks split the shared BLAS pool
// instead of each claiming it whole.
void RunRankThreads(int num_ranks, const std::function<void(int)>& fn);

// The canonical slice reduction across the group. `fill(c, block)` writes
// chunk c's partial (n doubles) into `block`; it is called once for each
// chunk this rank owns, in ascending order. On return out[0, n) holds, on
// every rank, TreeCombine's sum of all C chunk partials of the group: the
// same bits for every rank count. Each subtree a rank owns is folded as
// its chunks arrive (a binary counter, which groups exactly as
// TreeCombine does), so besides `out` a rank holds at most log2(C) chunk
// partials, in the grow-only `scratch`. When R and C are powers of two
// every rank owns one subtree and the binomial AllReduceSum finishes the
// tree; otherwise rank 0 gathers the subtree sums, finishes it and
// broadcasts. Collective; `comm` may be null when the plan has one rank.
Status ChunkTreeAllReduce(Communicator* comm, const ShardPlan& plan,
                          std::size_t n,
                          const std::function<void(Index, double*)>& fill,
                          double* out, std::vector<double>* scratch);

}  // namespace dtucker

#endif  // DTUCKER_COMM_SHARDING_H_
