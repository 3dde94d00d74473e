// DecompositionServer: a multi-tenant serving front end over the Engine
// facade — many concurrent jobs against one process, answered from cached
// factors whenever possible.
//
// The pieces (DESIGN.md §14):
//
//   - Admission + scheduling: a bounded priority job queue
//     (serve/job_queue.h). Submit() rejects with kResourceExhausted when
//     the queue is full; admitted jobs dispatch highest-priority-first,
//     FIFO within a priority, to a fixed pool of worker threads.
//   - Per-job execution control: every job owns a RunContext; a request
//     deadline is armed at admission (queue wait counts against it) and
//     the worker passes the context to the Engine via the per-call
//     override, so one job's deadline or cancellation never touches
//     another's.
//   - Fair compute sharing: each running job holds a PoolPartitionLease
//     (common/thread_pool.h), so two active jobs each fan out their BLAS
//     tiles over ~half the SetBlasThreads width instead of both flooding
//     the machine.
//   - Model cache + single-flight: completed decompositions land in an LRU
//     ModelCache keyed by ModelSpec::CanonicalKey. A Submit that matches a
//     resident model completes immediately from cache; one that matches a
//     job already *in flight* attaches to it as a follower — N concurrent
//     identical Solves run the Engine once and all N receive the same
//     (hence bitwise-identical) model.
//   - Factor-space queries: QueryElement / QueryFiber / QuerySlice answer
//     read-only requests straight from the cached (G, A(n)) via
//     tucker/reconstruct.h — O(prod J) per answer, never materializing X —
//     and are bitwise identical to indexing the full reconstruction.
//
// Everything observable rides the serve.* metrics namespace (counters
// serve.jobs.* / serve.cache.* / serve.queries.*, gauges serve.queue.depth
// and serve.jobs.active, histograms serve.job_ns / serve.queue_wait_ns /
// serve.exec_ns / serve.query_ns.*).
//
// Thread safety: the whole public surface may be called from any thread
// concurrently. Wait() blocks until the job completes and reaps its
// record; results are immutable shared snapshots (see serve/model_cache.h
// for the ownership story).
#ifndef DTUCKER_SERVE_SERVER_H_
#define DTUCKER_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "dtucker/engine.h"
#include "serve/job_queue.h"
#include "serve/model_cache.h"
#include "tucker/tucker.h"

namespace dtucker {

// Canonical identity of one decomposition: what the model cache keys on
// and what queries address. Two requests with equal ModelSpecs (same
// dataset, ranks, and solve knobs) are the same model — the server-wide
// EngineOptions (method, sharding, threads) are uniform across one
// server's jobs and therefore not part of the key.
struct ModelSpec {
  // Caller-chosen stable identity of the input data. Required: the server
  // never hashes tensor contents (that would cost a full pass over X).
  std::string dataset_id;
  std::vector<Index> ranks;  // Target Tucker ranks, one per mode.
  int max_iterations = 20;
  double tolerance = 1e-4;
  std::uint64_t seed = 42;

  Status Validate() const;
  // The cache key: a canonical "dataset|ranks|iters|tol|seed" string
  // (exact match, no hash collisions to reason about).
  std::string CanonicalKey() const;
  // FNV-1a hash of CanonicalKey() for logs and dashboards.
  std::uint64_t CanonicalHash() const;
};

// One decomposition job. The input tensor comes either as a caller-shared
// in-memory tensor or as a DTNSR001 file path (out-of-core SolveFile);
// exactly one of the two must be set.
struct SolveRequest {
  ModelSpec model;
  std::shared_ptr<const Tensor> tensor;
  std::string tensor_path;
  // Higher dispatches first; equal priorities run in admission order.
  int priority = 0;
  // Wall-time budget from admission (0 = none). Queue wait counts: a job
  // that expires while still queued completes with kDeadlineExceeded
  // without ever running.
  double deadline_seconds = 0;

  Status Validate() const;
};

using JobId = std::uint64_t;

// Forward declaration; the full record is defined after JobResult below.
struct ServeJob;

// Outcome of one job, shared by every waiter.
struct JobResult {
  // The completed (or best-so-far partial) decomposition; nullptr when the
  // job produced nothing usable (validation error, pre-run interruption).
  // Shared ownership: valid for as long as the caller holds it, even after
  // cache eviction.
  std::shared_ptr<const CachedModel> model;
  // kOk, or why the job ended early (kCancelled / kDeadlineExceeded /
  // solver errors). Partial best-so-far results carry the interruption
  // code here alongside a non-null model.
  Status status;
  bool from_cache = false;    // Served from the model cache, no Engine run.
  bool deduplicated = false;  // Attached to an identical in-flight job.
};

// Per-job record (internal; public only so the queue tests can build
// entries). `done`/`result`/`followers` are guarded by the server's
// mutex_; `ctx` is internally thread-safe (pokeable from Cancel() and the
// destructor while a worker runs the job); everything else is written
// once at Submit and read-only afterwards.
struct ServeJob {
  JobId id = 0;
  SolveRequest request;
  std::string key;
  bool is_follower = false;
  RunContext ctx;
  std::chrono::steady_clock::time_point submit_tp;
  bool done = false;
  JobResult result;
  std::vector<std::shared_ptr<ServeJob>> followers;  // Leader only.
};

struct ServerOptions {
  // Worker threads executing jobs (= maximum concurrently running solves).
  int num_workers = 2;
  // Pending-job bound for admission control (rejections return
  // kResourceExhausted).
  int queue_capacity = 64;
  ModelCacheOptions cache;
  // Base engine configuration for every job; the per-request ModelSpec
  // overrides ranks / max_iterations / tolerance / seed.
  EngineOptions engine;
  // Test seam: runs on the worker thread after a job is popped, before its
  // deadline check and Engine run. Leave empty in production.
  std::function<void(const SolveRequest&)> job_begin_hook;

  Status Validate() const;
};

// Point-in-time server counters (also published as serve.* metrics).
struct ServerStats {
  std::uint64_t submitted = 0;          // Admitted (incl. cache/dedup hits).
  std::uint64_t rejected = 0;           // Turned away at admission.
  std::uint64_t completed = 0;          // Jobs with a final result.
  std::uint64_t executed = 0;           // Actual Engine runs.
  std::uint64_t dedup_followers = 0;    // Jobs that rode an identical run.
  std::uint64_t served_from_cache = 0;  // Jobs answered from the cache.
  std::uint64_t cancelled = 0;          // Completed with kCancelled.
  std::uint64_t deadline_exceeded = 0;  // Completed with kDeadlineExceeded.
  int queue_depth = 0;
  int active_jobs = 0;  // Currently executing on workers.
  ModelCache::Stats cache;
};

// --- Factor-space query API ---------------------------------------------
// Batched read-only lookups against a cached model. All of them require
// the model to be resident (a prior Solve through this server); a miss is
// kFailedPrecondition, never a silent recompute — admission control stays
// in charge of all compute. Answers are bitwise identical to indexing
// TuckerDecomposition::Reconstruct() (tucker/reconstruct.h contract).

struct ElementQueryRequest {
  std::vector<std::vector<Index>> indices;  // One full index per element.
};
struct ElementQueryResponse {
  std::vector<double> values;  // values[i] = x(indices[i]).
};

struct FiberQueryRequest {
  Index mode = 0;  // The free mode; anchors pin every other mode.
  std::vector<std::vector<Index>> anchors;  // Entry at `mode` is ignored.
};
struct FiberQueryResponse {
  std::vector<std::vector<double>> fibers;  // fibers[i] has extent I_mode.
};

struct SliceQueryRequest {
  // Flattened trailing index per slice (mode-3 fastest, matching
  // Tensor::FrontalSlice).
  std::vector<Index> slices;
};
struct SliceQueryResponse {
  std::vector<Matrix> slices;  // I1 x I2 frontal slices.
};

class DecompositionServer {
 public:
  explicit DecompositionServer(ServerOptions options);

  // Shutdown: closes admission, cancels every queued and running job,
  // joins the workers. Queued jobs complete with kCancelled; results of
  // already-completed jobs stay retrievable until destruction finishes.
  ~DecompositionServer();

  DecompositionServer(const DecompositionServer&) = delete;
  DecompositionServer& operator=(const DecompositionServer&) = delete;

  const ServerOptions& options() const { return options_; }

  // Admits a job. Fast paths resolved at admission (no queue slot
  // consumed): a resident cache entry completes the job immediately; an
  // identical in-flight job absorbs this one as a follower. Otherwise the
  // job enters the priority queue — or is rejected with kResourceExhausted
  // when the queue is full.
  Result<JobId> Submit(SolveRequest request);

  // Blocks until the job completes, returns its result, and reaps the job
  // record (a second Wait on the same id is InvalidArgument).
  Result<JobResult> Wait(JobId id);

  // Requests cooperative cancellation of the job's own RunContext. Queued
  // jobs complete with kCancelled when popped; running jobs stop at the
  // solver's next checkpoint with their best-so-far state. Followers
  // cannot be cancelled independently of their leader (documented
  // limitation of single-flight).
  Status Cancel(JobId id);

  // Submit + Wait in one call.
  Result<JobResult> Solve(SolveRequest request);

  // Shared ownership of the resident model for `spec`, bumping its
  // recency; kFailedPrecondition when not resident.
  Result<std::shared_ptr<const CachedModel>> GetModel(const ModelSpec& spec);

  // Batched factor-space queries (see the request/response structs above).
  Result<ElementQueryResponse> QueryElement(const ModelSpec& spec,
                                            const ElementQueryRequest& req);
  Result<FiberQueryResponse> QueryFiber(const ModelSpec& spec,
                                        const FiberQueryRequest& req);
  Result<SliceQueryResponse> QuerySlice(const ModelSpec& spec,
                                        const SliceQueryRequest& req);

  ServerStats Stats() const;

 private:
  void WorkerLoop();
  void ExecuteJob(const std::shared_ptr<ServeJob>& job);
  // Finalizes `job` (and its followers) with `result`, updates stats, and
  // wakes waiters. Takes mutex_.
  void CompleteJob(const std::shared_ptr<ServeJob>& job, JobResult result);
  void CountCompletionLocked(const JobResult& result);

  ServerOptions options_;
  JobQueue queue_;
  ModelCache cache_;

  mutable std::mutex mutex_;
  std::condition_variable job_done_;
  std::map<JobId, std::shared_ptr<ServeJob>> jobs_;
  // Single-flight index: canonical key -> the in-flight leader job.
  std::map<std::string, std::shared_ptr<ServeJob>> inflight_;
  JobId next_job_id_ = 1;
  ServerStats stats_;
  int active_jobs_ = 0;
  bool shutting_down_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace dtucker

#endif  // DTUCKER_SERVE_SERVER_H_
