// A small fixed-size thread pool for embarrassingly parallel loops.
//
// D-Tucker's approximation phase compresses L independent slices; with
// `num_threads > 1` the per-slice randomized SVDs run on the pool. The
// paper's protocol (and this repo's benchmarks) default to one thread —
// the pool exists so library users on real machines aren't capped.
#ifndef DTUCKER_COMMON_THREAD_POOL_H_
#define DTUCKER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dtucker {

// Process-wide count of concurrently active compute partitions sharing any
// pool. Default 1: a ParallelFor caller fans out across the whole pool.
// With R partitions each caller's parallel loops claim only
// ~num_threads/R workers' worth of range fan-out instead of each flooding
// the full pool — R callers that each split work T ways would queue R*T
// oversized tasks and serialize on each other's Wait(). Partitioning keeps
// the total in-flight fan-out at the pool width. Bitwise-safe: every
// determinism-sensitive caller either uses fixed chunk grids or
// per-item-independent bodies (see the packed-GEMM contract), so the
// fan-out width never changes result bits. Relaxed atomic; set before the
// callers start, restore after they finish.
void SetPoolPartitions(int partitions);
int PoolPartitions();

// RAII partition lease for callers that come and go concurrently (the
// serving layer's jobs, the chunk workers of a D-Tucker solve — see
// RunChunks in comm/sharding.h): each concurrently *running* caller
// holds one lease, and the effective partition count is
// max(SetPoolPartitions value, active leases). Two jobs in flight thus
// each claim ~half the pool's fan-out instead of both flooding it, and
// when the last lease drops the pool returns to whole-pool fan-out —
// without the callers having to coordinate absolute partition counts.
// Same bitwise-safety argument as SetPoolPartitions: partitioning only
// narrows fan-out width, never changes result bits.
class PoolPartitionLease {
 public:
  PoolPartitionLease();
  ~PoolPartitionLease();

  PoolPartitionLease(const PoolPartitionLease&) = delete;
  PoolPartitionLease& operator=(const PoolPartitionLease&) = delete;
};

// Lease count currently held (for tests and the serve.* gauges).
int ActivePoolLeases();

class ThreadPool {
 public:
  // Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size(); }

  // Worker-thread budget available to one ParallelFor/ParallelForRanges
  // call: the pool width divided by the active partition count (floor 1).
  // See SetPoolPartitions.
  std::size_t partition_width() const;

  // Enqueues a task; tasks must not throw.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Wait();

  // Runs body(i) for i in [0, n), partitioned across the pool, and waits.
  // When the pool has one thread (or n == 1), runs inline on the caller —
  // zero overhead and deterministic ordering for the single-thread path.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body);

  // Runs body(begin, end) over a partition of [0, n) into contiguous
  // ranges of at least `min_grain` elements each, and waits. Compared to
  // ParallelFor this invokes one std::function call per range instead of
  // per index, which matters for fine-grained numeric loops (BLAS row and
  // column blocks). Runs inline on the caller when only one range results.
  void ParallelForRanges(std::size_t n, std::size_t min_grain,
                         const std::function<void(std::size_t, std::size_t)>&
                             body);

  // Nanoseconds worker `i` has spent running tasks (not waiting). For the
  // metrics snapshot; relaxed reads, so a concurrently running task's time
  // appears once it completes.
  std::uint64_t WorkerBusyNanos(std::size_t i) const {
    return worker_stats_[i].busy_ns.load(std::memory_order_relaxed);
  }

 private:
  // One cache line per worker so busy-time accounting never contends.
  struct alignas(64) WorkerStat {
    std::atomic<std::uint64_t> busy_ns{0};
  };

  void WorkerLoop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  std::unique_ptr<WorkerStat[]> worker_stats_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

}  // namespace dtucker

#endif  // DTUCKER_COMMON_THREAD_POOL_H_
