#include "comm/sharding.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
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

namespace {

// One spin iteration that tells the core we are in a spin-wait loop
// without giving up the timeslice.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Spins until ready() holds or about 50 µs have passed, and returns
// ready(). The caller of RunChunks waits this way for the workers to
// finish a pass before it blocks: they usually finish within that window,
// and a futex wake-up per pass costs about as much again.
template <typename Pred>
bool SpinBriefly(const Pred& ready) {
  Timer timer;
  for (unsigned i = 1; !ready(); ++i) {
    if (i % 64 == 0 && timer.Seconds() > 50e-6) return false;
    CpuRelax();
  }
  return true;
}

// The threads that run workers 1..w-1 of RunChunks calls. A call takes
// idle threads and starts new ones when none is idle, and a thread parks
// until its next task once done. Reusing threads keeps their thread-local
// buffers and malloc arenas warm across calls instead of rebuilding them
// on every one. The one instance is never destroyed, like the shared BLAS
// pool, so its threads and the state they use live until the process
// exits.
class ParkedThreads {
 public:
  // The tasks of one call: how many still run, and the signal that the
  // last one is done and its thread idle again.
  struct Batch {
    std::atomic<int> running{0};
    std::condition_variable done;
  };

  // Runs task(1), ..., task(count), each on its own idle thread, counted
  // in `batch`; `task` must live until Wait(batch) returns. The threads
  // are taken in one step, in their creation order, so a lone caller runs
  // task(w) on the same thread every time.
  void Start(int count, const std::function<void(int)>& task, Batch* batch) {
    std::vector<Slot*> parked;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch->running.fetch_add(count, std::memory_order_relaxed);
      std::size_t i = 0;
      for (int w = 1; w <= count; ++w) {
        while (i < slots_.size() && slots_[i]->task) ++i;
        if (i == slots_.size()) slots_.push_back(std::make_unique<Slot>());
        Slot* slot = slots_[i].get();
        slot->task = [&task, w] { task(w); };
        slot->batch = batch;
        if (slot->thread.joinable()) {
          parked.push_back(slot);
        } else {
          slot->thread = std::thread([this, slot] { Serve(slot); });
        }
      }
    }
    // Outside the lock, so a woken thread does not block on it at once.
    for (Slot* slot : parked) slot->wake.notify_one();
  }

  // Returns once every task of `batch` is done and its thread idle, so
  // the next call finds the same threads free, in the same order.
  void Wait(Batch* batch) {
    auto done = [batch] {
      return batch->running.load(std::memory_order_acquire) == 0;
    };
    SpinBriefly(done);
    // Taken even when the spin saw the count reach 0: the last worker
    // signals `done` under the lock, so once it is ours the batch is no
    // longer in use.
    std::unique_lock<std::mutex> lock(mutex_);
    batch->done.wait(lock, done);
  }

 private:
  struct Slot {
    std::function<void()> task;  // Empty while idle.
    Batch* batch = nullptr;
    std::condition_variable wake;
    std::thread thread;
  };

  void Serve(Slot* slot) {
    // Chunk workers are the solver's workers, so their busy time counts
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
      if (slot->batch->running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        slot->batch->done.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace

void RunChunks(Index num_chunks, int num_threads,
               const std::function<void(Index, int)>& fn) {
  const int width =
      static_cast<int>(std::max<Index>(1, std::min<Index>(num_threads,
                                                          num_chunks)));
  if (width == 1) {
    for (Index c = 0; c < num_chunks; ++c) fn(c, 0);
    return;
  }
  static ParkedThreads* const threads = new ParkedThreads;
  // Taken before any worker starts, so none sees the pool undivided.
  std::unique_ptr<PoolPartitionLease[]> leases(
      new PoolPartitionLease[static_cast<std::size_t>(width)]);
  std::atomic<Index> next{0};
  auto claim = [&](int worker) {
    for (Index c = next.fetch_add(1); c < num_chunks; c = next.fetch_add(1)) {
      fn(c, worker);
    }
  };
  // Outlives the batch: the parked threads call it by reference.
  const std::function<void(int)> worker = [&claim](int w) {
    SetTraceRankForCurrentThread(w);  // Worker w's spans get lane w.
    claim(w);
  };
  ParkedThreads::Batch batch;
  threads->Start(width - 1, worker, &batch);
  claim(0);
  threads->Wait(&batch);
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
