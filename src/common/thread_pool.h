// The process's one set of compute threads, and the one fork-join that
// runs work on them.
//
// D-Tucker's slice passes (RunChunks, comm/sharding.h) and the dense work
// between them (the GEMM, GEMV, Gram and mode-product tiles of
// RunBlasTiles, linalg/gemm_kernel.h) both fan out through ForkJoin: the
// caller and up to width - 1 parked, reused threads claim items from a
// shared counter. How many threads a solve uses is the caller's choice
// (num_threads, SetBlasThreads); with 1 everything runs inline.
#ifndef DTUCKER_COMMON_THREAD_POOL_H_
#define DTUCKER_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <functional>

namespace dtucker {

// Runs fn(i, worker) once for every i in [0, count) on
// w = min(width, count) threads (at least 1): the caller, which is worker
// 0, and w - 1 parked threads. The threads claim items in ascending order
// from a shared counter; `worker` in [0, w) names the thread, so fn can
// keep scratch per worker, and worker w's trace spans go to lane w
// (SetTraceRankForCurrentThread). With w == 1 the items run inline, in
// order.
// Returns when every item is done; the caller spins for up to about
// 50 µs for the last workers before it blocks.
//
// The helpers are idle threads of one process-wide set, started on
// demand and parked when done, never destroyed. A lone caller gets the
// same threads, in the same order, on every call, so their thread-local
// buffers stay warm; a fork-join started inside fn (or by concurrent
// callers) starts threads of its own when none is idle, so it never
// waits for a thread to come free.
void ForkJoin(std::ptrdiff_t count, int width,
              const std::function<void(std::ptrdiff_t, int)>& fn);

// RAII partition lease for fork-join callers that run side by side (the
// chunk workers of a D-Tucker solve — see RunChunks in comm/sharding.h —
// and the serving layer's jobs): each concurrently *running* caller holds
// one lease, and RunBlasTiles gives each a 1/leases share of the
// SetBlasThreads width. Two jobs in flight thus each claim ~half the
// threads instead of both flooding the machine, and when the last lease
// drops a caller gets the whole width back — without the callers having
// to coordinate. Leases only narrow fan-out width, never change result
// bits.
class PoolPartitionLease {
 public:
  PoolPartitionLease();
  ~PoolPartitionLease();

  PoolPartitionLease(const PoolPartitionLease&) = delete;
  PoolPartitionLease& operator=(const PoolPartitionLease&) = delete;
};

// Lease count currently held (for RunBlasTiles, tests and the serve.*
// gauges).
int ActivePoolLeases();

}  // namespace dtucker

#endif  // DTUCKER_COMMON_THREAD_POOL_H_
