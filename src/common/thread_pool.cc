#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/timer.h"
#include "common/trace.h"

namespace dtucker {

namespace {

std::atomic<int> g_pool_leases{0};

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
// ready(). The caller of ForkJoin waits this way for its helpers to
// finish before it blocks: they usually finish within that window, and a
// futex wake-up costs about as much again.
template <typename Pred>
bool SpinBriefly(const Pred& ready) {
  Timer timer;
  for (unsigned i = 1; !ready(); ++i) {
    if (i % 64 == 0 && timer.Seconds() > 50e-6) return false;
    CpuRelax();
  }
  return true;
}

// One ForkJoin call: its items, the counter its threads claim them from,
// and the signal that its last helper is done and idle again.
struct Batch {
  Batch(std::ptrdiff_t n, const std::function<void(std::ptrdiff_t, int)>* f)
      : count(n), fn(f) {}

  void Claim(int worker) {
    for (std::ptrdiff_t i = next.fetch_add(1); i < count;
         i = next.fetch_add(1)) {
      (*fn)(i, worker);
    }
  }

  const std::ptrdiff_t count;
  const std::function<void(std::ptrdiff_t, int)>* const fn;
  std::atomic<std::ptrdiff_t> next{0};
  std::atomic<int> running{0};  // Helpers still working.
  std::condition_variable done;
};

// The threads that run workers 1..w-1 of ForkJoin calls. A call takes
// idle threads and starts new ones when none is idle, and a thread parks
// until its next batch once done. Reusing threads keeps their thread-local
// buffers and malloc arenas warm across calls instead of rebuilding them
// on every one. The one instance is never destroyed, so its threads and
// the state they use live until the process exits.
class ParkedThreads {
 public:
  // Sends `helpers` idle threads to claim items of `batch` as workers
  // 1..helpers. The threads are taken in one step, in their creation
  // order, so a lone caller runs worker w on the same thread every time.
  void Start(Batch* batch, int helpers) {
    std::vector<Slot*> parked;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      batch->running.fetch_add(helpers, std::memory_order_relaxed);
      std::size_t i = 0;
      for (int w = 1; w <= helpers; ++w) {
        while (i < slots_.size() && slots_[i]->batch != nullptr) ++i;
        if (i == slots_.size()) slots_.push_back(std::make_unique<Slot>());
        Slot* slot = slots_[i].get();
        slot->batch = batch;
        slot->worker = w;
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

  // Returns once every helper of `batch` is done and its thread idle, so
  // the next call finds the same threads free, in the same order.
  void Wait(Batch* batch) {
    auto done = [batch] {
      return batch->running.load(std::memory_order_acquire) == 0;
    };
    SpinBriefly(done);
    // Taken even when the spin saw the count reach 0: the last helper
    // signals `done` under the lock, so once it is ours the batch is no
    // longer in use.
    std::unique_lock<std::mutex> lock(mutex_);
    batch->done.wait(lock, done);
  }

 private:
  struct Slot {
    Batch* batch = nullptr;  // Null while idle.
    int worker = 0;
    std::condition_variable wake;
    std::thread thread;
  };

  void Serve(Slot* slot) {
    static Counter& tasks_run = MetricCounter("threadpool.tasks");
    static Counter& busy_total = MetricCounter("threadpool.busy_ns");
    static Histogram& task_hist = MetricHistogram("threadpool.task_ns");
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      slot->wake.wait(lock, [slot] { return slot->batch != nullptr; });
      Batch* batch = slot->batch;
      const int worker = slot->worker;
      lock.unlock();
      SetTraceRankForCurrentThread(worker);  // Worker w's spans: lane w.
      Timer timer;
      batch->Claim(worker);
      const auto busy_ns = static_cast<std::uint64_t>(timer.Seconds() * 1e9);
      tasks_run.Add(1);
      busy_total.Add(busy_ns);
      task_hist.Record(busy_ns);
      lock.lock();
      slot->batch = nullptr;
      if (batch->running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        batch->done.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

}  // namespace

void ForkJoin(std::ptrdiff_t count, int width,
              const std::function<void(std::ptrdiff_t, int)>& fn) {
  const int w = static_cast<int>(std::min<std::ptrdiff_t>(width, count));
  if (w <= 1) {
    for (std::ptrdiff_t i = 0; i < count; ++i) fn(i, 0);
    return;
  }
  static ParkedThreads* const threads = new ParkedThreads;
  Batch batch(count, &fn);
  threads->Start(&batch, w - 1);
  batch.Claim(0);
  threads->Wait(&batch);
}

PoolPartitionLease::PoolPartitionLease() {
  g_pool_leases.fetch_add(1, std::memory_order_relaxed);
}

PoolPartitionLease::~PoolPartitionLease() {
  g_pool_leases.fetch_sub(1, std::memory_order_relaxed);
}

int ActivePoolLeases() {
  return g_pool_leases.load(std::memory_order_relaxed);
}

}  // namespace dtucker
