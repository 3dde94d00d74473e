#include "comm/sharding.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "linalg/blas.h"

namespace dtucker {

Result<ShardPlan> MakeShardPlan(Index num_slices, int num_ranks, int rank) {
  if (num_slices < 1) {
    return Status::InvalidArgument("shard plan: need at least one slice");
  }
  if (num_ranks < 1) {
    return Status::InvalidArgument("shard plan: num_ranks must be >= 1");
  }
  if (rank < 0 || rank >= num_ranks) {
    return Status::InvalidArgument("shard plan: rank out of range");
  }
  if (static_cast<Index>(num_ranks) > num_slices) {
    return Status::InvalidArgument(
        "shard plan: num_ranks (" + std::to_string(num_ranks) +
        ") exceeds the number of slices (" + std::to_string(num_slices) +
        "); reduce --ranks to at most the trailing-mode volume");
  }
  ShardPlan plan;
  plan.num_slices = num_slices;
  plan.num_chunks = std::min(kShardChunkCount, num_slices);
  plan.num_ranks = num_ranks;
  plan.rank = rank;
  const Index r = static_cast<Index>(rank);
  const Index big_r = static_cast<Index>(num_ranks);
  // Ranks own contiguous chunk ranges; with R > C the trailing ranks own
  // zero chunks (degenerate shards are handled by every consumer).
  plan.chunk_begin = std::min(plan.num_chunks, plan.num_chunks * r / big_r);
  plan.chunk_end =
      std::min(plan.num_chunks, plan.num_chunks * (r + 1) / big_r);
  plan.slice_begin = plan.ChunkSliceBegin(plan.chunk_begin);
  plan.slice_end = plan.ChunkSliceBegin(plan.chunk_end);
  return plan;
}

int RanksForThreads(int num_threads, Index num_slices) {
  const Index chunks = std::min(kShardChunkCount, num_slices);
  return static_cast<int>(
      std::max<Index>(1, std::min<Index>(num_threads, chunks)));
}

namespace {

// Threads that run ranks 1..R-1 of RunRankThreads calls. A rank blocks on
// its peers inside collectives, so every rank of a call needs a thread of
// its own at once: a call takes idle threads and starts new ones when none
// is idle, and a thread waits for its next rank once done. Reusing threads
// keeps their thread-local buffers and malloc arenas warm across solves
// instead of rebuilding them, rank by rank, on every call. The one
// instance is never destroyed, like the shared BLAS pool, so its threads
// and the state they use live until the process exits.
class RankThreads {
 public:
  // Runs task() on a thread of its own.
  void Start(std::function<void()> task) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const std::unique_ptr<Slot>& slot : slots_) {
      if (!slot->task) {
        slot->task = std::move(task);
        slot->wake.notify_one();
        return;
      }
    }
    slots_.push_back(std::make_unique<Slot>());
    Slot* slot = slots_.back().get();
    slot->task = std::move(task);
    slot->thread = std::thread([this, slot] { Serve(slot); });
  }

 private:
  struct Slot {
    std::function<void()> task;  // Empty while idle.
    std::condition_variable wake;
    std::thread thread;
  };

  void Serve(Slot* slot) {
    // Rank threads are the solver's workers, so their busy time counts
    // with the BLAS pool's.
    static Counter& busy_total = MetricCounter("threadpool.busy_ns");
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      slot->wake.wait(lock, [slot] { return static_cast<bool>(slot->task); });
      lock.unlock();
      Timer timer;
      slot->task();
      busy_total.Add(static_cast<std::uint64_t>(timer.Seconds() * 1e9));
      lock.lock();
      slot->task = nullptr;
    }
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace

void RunRankThreads(int num_ranks, const std::function<void(int)>& fn) {
  if (num_ranks <= 1) {
    fn(0);
    return;
  }
  static RankThreads* const threads = new RankThreads;
  // Taken before any rank starts, so no rank sees the pool undivided.
  std::unique_ptr<PoolPartitionLease[]> leases(
      new PoolPartitionLease[static_cast<std::size_t>(num_ranks)]);
  std::mutex mutex;
  std::condition_variable done;
  int running = num_ranks - 1;
  for (int r = 1; r < num_ranks; ++r) {
    threads->Start([&, r] {
      SetTraceRankForCurrentThread(r);  // Rank r's spans get lane r.
      fn(r);
      std::lock_guard<std::mutex> lock(mutex);
      if (--running == 0) done.notify_one();
    });
  }
  fn(0);
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return running == 0; });
}

namespace {

// Canonical-tree node (level, index) covers chunks
// [index * 2^level, min((index + 1) * 2^level, C)); level k has
// ceil(C / 2^k) nodes. This is exactly TreeCombine's grouping: pairs of
// level-k nodes combine into level k + 1, an odd last node rises alone.
Index NodesAtLevel(Index chunks, int level) {
  return (chunks + (Index{1} << level) - 1) >> level;
}

void CollectOwnedSpans(Index chunks, int level, Index index, Index begin,
                       Index end, std::vector<std::pair<Index, Index>>* out) {
  const Index lo = index << level;
  const Index hi = std::min((index + 1) << level, chunks);
  if (hi <= begin || lo >= end) return;
  if (begin <= lo && hi <= end) {
    out->emplace_back(lo, hi);
    return;
  }
  CollectOwnedSpans(chunks, level - 1, 2 * index, begin, end, out);
  if (2 * index + 1 < NodesAtLevel(chunks, level - 1)) {
    CollectOwnedSpans(chunks, level - 1, 2 * index + 1, begin, end, out);
  }
}

// TreeCombine over n-double blocks. A null block is one its owner already
// folded into the block at the start of its subtree, so it adds nothing.
void FoldBlocks(std::vector<double*>* blocks, std::size_t n) {
  TreeCombine(blocks, [n](double** dst, double* const& src) {
    if (src != nullptr) Axpy(1.0, src, *dst, static_cast<Index>(n));
  });
}

// Sums chunks [first, last), one subtree of the canonical tree, into
// `dst`. Chunk partials are pushed on a stack and the top two merged
// whenever they cover equally many chunks; the tail then merges right to
// left. That is TreeCombine's grouping (aligned pairs, an odd last node
// carried up), holding at most log2(last - first) blocks beside `dst`.
void FoldSubtree(Index first, Index last, std::size_t n,
                 const std::function<void(Index, double*)>& fill, double* dst,
                 std::vector<double>* scratch) {
  std::size_t depth = 1;
  while ((Index{1} << (depth - 1)) < last - first) ++depth;
  if (scratch->size() < (depth - 1) * n) scratch->resize((depth - 1) * n);
  // Stack level d lives in dst (d = 0) or scratch block d - 1.
  auto block = [&](std::size_t d) {
    return d == 0 ? dst : scratch->data() + (d - 1) * n;
  };
  std::vector<Index> covered;  // Chunks summed at each stack level.
  auto merge_top = [&] {
    const std::size_t top = covered.size() - 1;
    Axpy(1.0, block(top), block(top - 1), static_cast<Index>(n));
    covered[top - 1] += covered[top];
    covered.pop_back();
  };
  for (Index c = first; c < last; ++c) {
    fill(c, block(covered.size()));
    covered.push_back(1);
    while (covered.size() >= 2 &&
           covered[covered.size() - 1] == covered[covered.size() - 2]) {
      merge_top();
    }
  }
  while (covered.size() >= 2) merge_top();
}

bool IsPowerOfTwo(Index v) { return v > 0 && (v & (v - 1)) == 0; }

// The chunk spans [first, last) of the canonical tree's nodes that rank
// `plan.rank` folds itself: the largest subtrees whose chunks it owns
// entirely, in ascending order. Empty for a degenerate shard.
std::vector<std::pair<Index, Index>> OwnedTreeSpans(const ShardPlan& plan) {
  std::vector<std::pair<Index, Index>> spans;
  int height = 0;
  while (NodesAtLevel(plan.num_chunks, height) > 1) ++height;
  CollectOwnedSpans(plan.num_chunks, height, 0, plan.chunk_begin,
                    plan.chunk_end, &spans);
  return spans;
}

}  // namespace

Status ChunkTreeAllReduce(Communicator* comm, const ShardPlan& plan,
                          std::size_t n,
                          const std::function<void(Index, double*)>& fill,
                          double* out, std::vector<double>* scratch) {
  if (plan.num_ranks == 1) {
    FoldSubtree(0, plan.num_chunks, n, fill, out, scratch);
    return Status::OK();
  }
  DT_TRACE_SPAN("comm.chunk_tree_allreduce");
  static Counter& reduces = MetricCounter("comm.reduces");
  static Counter& bytes = MetricCounter("comm.bytes_reduced");
  if (IsPowerOfTwo(plan.num_ranks) && IsPowerOfTwo(plan.num_chunks) &&
      plan.num_ranks <= plan.num_chunks) {
    // Every rank owns one aligned subtree, and the binomial tree over the
    // ranks is the top of the canonical tree.
    FoldSubtree(plan.chunk_begin, plan.chunk_end, n, fill, out, scratch);
    return comm->AllReduceSum(out, n);
  }
  // Fold each owned subtree into its slot of a contiguous send buffer.
  const std::vector<std::pair<Index, Index>> spans = OwnedTreeSpans(plan);
  std::vector<double> send(spans.size() * n);
  for (std::size_t j = 0; j < spans.size(); ++j) {
    FoldSubtree(spans[j].first, spans[j].second, n, fill,
                send.data() + j * n, scratch);
  }
  // Rank 0 gathers every rank's subtree sums (each rank's spans follow
  // from the plan alone) and finishes the tree over the C chunk slots,
  // with each sum standing in its subtree's first slot.
  std::vector<std::size_t> counts(static_cast<std::size_t>(plan.num_ranks));
  std::vector<std::size_t> firsts;  // First chunk of each subtree, in order.
  for (int r = 0; r < plan.num_ranks; ++r) {
    const ShardPlan peer =
        MakeShardPlan(plan.num_slices, plan.num_ranks, r).ValueOrDie();
    const std::vector<std::pair<Index, Index>> peer_spans =
        OwnedTreeSpans(peer);
    counts[static_cast<std::size_t>(r)] = peer_spans.size() * n;
    for (const auto& span : peer_spans) {
      firsts.push_back(static_cast<std::size_t>(span.first));
    }
  }
  std::vector<double> gathered;
  std::vector<double*> slots(static_cast<std::size_t>(plan.num_chunks),
                             nullptr);
  if (plan.rank == 0) {
    gathered.resize(firsts.size() * n);
    for (std::size_t j = 0; j < firsts.size(); ++j) {
      slots[firsts[j]] = gathered.data() + j * n;
    }
  }
  DT_RETURN_NOT_OK(
      comm->Gather(send.data(), counts, gathered.data(), /*root=*/0));
  if (plan.rank == 0) {
    FoldBlocks(&slots, n);
    std::memcpy(out, slots[0], n * sizeof(double));
  }
  DT_RETURN_NOT_OK(comm->Broadcast(out, n, /*root=*/0));
  reduces.Add(1);
  bytes.Add(static_cast<std::uint64_t>(n) * sizeof(double));
  return Status::OK();
}

}  // namespace dtucker
