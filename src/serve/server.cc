#include "serve/server.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "common/trace.h"
#include "tucker/reconstruct.h"

namespace dtucker {

namespace {

std::uint64_t Fnv1aHash(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

Status ModelSpec::Validate() const {
  if (dataset_id.empty()) {
    return Status::InvalidArgument(
        "ModelSpec::dataset_id is required (the cache never hashes tensor "
        "contents)");
  }
  if (ranks.empty()) {
    return Status::InvalidArgument("ModelSpec::ranks must not be empty");
  }
  for (std::size_t n = 0; n < ranks.size(); ++n) {
    if (ranks[n] < 1) {
      return Status::InvalidArgument("ModelSpec::ranks[" + std::to_string(n) +
                                     "] must be >= 1");
    }
  }
  if (max_iterations < 1) {
    return Status::InvalidArgument("ModelSpec::max_iterations must be >= 1");
  }
  if (!(tolerance > 0)) {
    return Status::InvalidArgument("ModelSpec::tolerance must be > 0");
  }
  return Status::OK();
}

std::string ModelSpec::CanonicalKey() const {
  std::string key = dataset_id;
  key += "|r=";
  for (std::size_t n = 0; n < ranks.size(); ++n) {
    if (n > 0) key += ',';
    key += std::to_string(ranks[n]);
  }
  key += "|it=" + std::to_string(max_iterations);
  char tol[40];
  std::snprintf(tol, sizeof(tol), "%.17g", tolerance);
  key += "|tol=";
  key += tol;
  key += "|seed=" + std::to_string(seed);
  return key;
}

std::uint64_t ModelSpec::CanonicalHash() const {
  return Fnv1aHash(CanonicalKey());
}

Status SolveRequest::Validate() const {
  DT_RETURN_NOT_OK(model.Validate());
  const bool has_tensor = tensor != nullptr;
  const bool has_path = !tensor_path.empty();
  if (has_tensor == has_path) {
    return Status::InvalidArgument(
        "SolveRequest needs exactly one of tensor / tensor_path");
  }
  if (deadline_seconds < 0) {
    return Status::InvalidArgument(
        "SolveRequest::deadline_seconds must be non-negative");
  }
  return Status::OK();
}

Status ServerOptions::Validate() const {
  if (num_workers < 1) {
    return Status::InvalidArgument("ServerOptions::num_workers must be >= 1");
  }
  if (queue_capacity < 1) {
    return Status::InvalidArgument(
        "ServerOptions::queue_capacity must be >= 1");
  }
  DT_RETURN_NOT_OK(cache.Validate());
  return Status::OK();
}

DecompositionServer::DecompositionServer(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity),
      cache_(options_.cache) {
  DT_CHECK(options_.Validate().ok()) << "invalid ServerOptions";
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

DecompositionServer::~DecompositionServer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    for (auto& [id, job] : jobs_) {
      if (!job->done) job->ctx.RequestCancel();
    }
  }
  // Close() stops admission and wakes the workers; pending entries still
  // drain, and every one of them observes its cancelled context before
  // running, so queued waiters get kCancelled rather than hanging.
  queue_.Close();
  for (std::thread& w : workers_) w.join();
}

Result<JobId> DecompositionServer::Submit(SolveRequest request) {
  static Counter& submitted = MetricCounter("serve.jobs.submitted");
  static Counter& rejected = MetricCounter("serve.jobs.rejected");
  static Counter& from_cache = MetricCounter("serve.jobs.from_cache");
  static Counter& dedup = MetricCounter("serve.jobs.dedup");
  static Gauge& depth_gauge = MetricGauge("serve.queue.depth");
  DT_RETURN_NOT_OK(request.Validate());
  const std::string key = request.model.CanonicalKey();

  auto job = std::make_shared<ServeJob>();
  job->request = std::move(request);
  job->key = key;
  job->submit_tp = std::chrono::steady_clock::now();

  std::lock_guard<std::mutex> lock(mutex_);
  if (shutting_down_) {
    return Status::FailedPrecondition("server is shutting down");
  }
  job->id = next_job_id_++;

  // Fast path 1: resident in the cache — answer without a queue slot.
  if (std::shared_ptr<const CachedModel> cached = cache_.Get(key)) {
    job->done = true;
    job->result.model = std::move(cached);
    job->result.from_cache = true;
    jobs_[job->id] = job;
    ++stats_.submitted;
    ++stats_.served_from_cache;
    CountCompletionLocked(job->result);
    submitted.Add(1);
    from_cache.Add(1);
    MetricHistogram("serve.job_ns").Record(ElapsedNs(job->submit_tp));
    return job->id;
  }

  // Fast path 2: an identical job is already in flight — attach as a
  // follower instead of running the same solve twice (single-flight).
  auto inflight_it = inflight_.find(key);
  if (inflight_it != inflight_.end()) {
    job->is_follower = true;
    inflight_it->second->followers.push_back(job);
    jobs_[job->id] = job;
    ++stats_.submitted;
    ++stats_.dedup_followers;
    submitted.Add(1);
    dedup.Add(1);
    return job->id;
  }

  // Slow path: a fresh leader through admission control. The deadline is
  // armed now so queue wait counts against the budget.
  if (job->request.deadline_seconds > 0) {
    job->ctx.SetDeadlineAfter(job->request.deadline_seconds);
  }
  const Status admitted = queue_.TryPush(job, job->request.priority);
  if (!admitted.ok()) {
    ++stats_.rejected;
    rejected.Add(1);
    return admitted;
  }
  inflight_[key] = job;
  jobs_[job->id] = job;
  ++stats_.submitted;
  submitted.Add(1);
  depth_gauge.Set(static_cast<double>(queue_.Depth()));
  return job->id;
}

Result<JobResult> DecompositionServer::Wait(JobId id) {
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::InvalidArgument("unknown (or already reaped) job id " +
                                   std::to_string(id));
  }
  std::shared_ptr<ServeJob> job = it->second;
  job_done_.wait(lock, [&job] { return job->done; });
  JobResult result = job->result;
  jobs_.erase(id);
  return result;
}

Status DecompositionServer::Cancel(JobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::InvalidArgument("unknown (or already reaped) job id " +
                                   std::to_string(id));
  }
  if (it->second->is_follower) {
    return Status::FailedPrecondition(
        "job " + std::to_string(id) +
        " is deduplicated onto an identical in-flight job; cancel the "
        "leader to stop the shared run");
  }
  it->second->ctx.RequestCancel();
  return Status::OK();
}

Result<JobResult> DecompositionServer::Solve(SolveRequest request) {
  DT_ASSIGN_OR_RETURN(const JobId id, Submit(std::move(request)));
  return Wait(id);
}

void DecompositionServer::WorkerLoop() {
  static Gauge& depth_gauge = MetricGauge("serve.queue.depth");
  while (std::shared_ptr<ServeJob> job = queue_.Pop()) {
    depth_gauge.Set(static_cast<double>(queue_.Depth()));
    MetricHistogram("serve.queue_wait_ns").Record(ElapsedNs(job->submit_tp));
    ExecuteJob(job);
  }
}

void DecompositionServer::ExecuteJob(const std::shared_ptr<ServeJob>& job) {
  DT_TRACE_SPAN("serve.job");
  static Counter& executed = MetricCounter("serve.jobs.executed");
  static Gauge& active_gauge = MetricGauge("serve.jobs.active");
  if (options_.job_begin_hook) options_.job_begin_hook(job->request);

  // A job whose context already tripped (cancelled while queued, deadline
  // spent on queue wait, server shutdown) completes without an Engine run;
  // the queue stats and everything else stay intact.
  const StatusCode pre = job->ctx.Check();
  if (pre != StatusCode::kOk) {
    JobResult result;
    result.status = Status(pre, "job interrupted before execution");
    CompleteJob(job, std::move(result));
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++active_jobs_;
    ++stats_.executed;
    active_gauge.Set(static_cast<double>(active_jobs_));
  }
  executed.Add(1);

  Result<EngineRun> run = Status::OK();
  {
    // Fair sharing: while this job runs it holds one pool-partition lease,
    // so concurrent jobs split the SetBlasThreads fan-out width instead of
    // each claiming it whole.
    PoolPartitionLease lease;
    const ModelSpec& spec = job->request.model;
    EngineOptions eopt = options_.engine;
    eopt.method_options.tucker.ranks = spec.ranks;
    eopt.method_options.tucker.max_iterations = spec.max_iterations;
    eopt.method_options.tucker.tolerance = spec.tolerance;
    eopt.method_options.tucker.seed = spec.seed;
    Engine engine(eopt);
    Timer exec_timer;
    run = job->request.tensor != nullptr
              ? engine.Solve(*job->request.tensor, &job->ctx)
              : engine.SolveFile(job->request.tensor_path, &job->ctx);
    MetricHistogram("serve.exec_ns")
        .Record(static_cast<std::uint64_t>(exec_timer.Seconds() * 1e9));
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_jobs_;
    active_gauge.Set(static_cast<double>(active_jobs_));
  }

  JobResult result;
  if (!run.ok()) {
    result.status = run.status();
  } else {
    EngineRun engine_run = std::move(run).ValueOrDie();
    auto model = std::make_shared<CachedModel>();
    model->decomposition = std::move(engine_run.decomposition);
    model->stats = std::move(engine_run.stats);
    model->relative_error = engine_run.relative_error;
    model->bytes = model->decomposition.ByteSize();
    result.status = engine_run.status;
    result.model = std::move(model);
    // Only complete runs are cached: a best-so-far partial from a
    // cancelled/deadline-exceeded job must not short-circuit a later full
    // solve of the same model.
    if (result.status.ok()) {
      cache_.Put(job->key, result.model);
    }
  }
  CompleteJob(job, std::move(result));
}

void DecompositionServer::CompleteJob(const std::shared_ptr<ServeJob>& job,
                                      JobResult result) {
  static Histogram& job_ns = MetricHistogram("serve.job_ns");
  std::lock_guard<std::mutex> lock(mutex_);
  job->result = std::move(result);
  job->done = true;
  job_ns.Record(ElapsedNs(job->submit_tp));
  CountCompletionLocked(job->result);
  auto inflight_it = inflight_.find(job->key);
  if (inflight_it != inflight_.end() && inflight_it->second == job) {
    inflight_.erase(inflight_it);
  }
  // Single-flight fan-out: every follower receives the same shared model
  // (bitwise-identical by construction).
  for (const std::shared_ptr<ServeJob>& follower : job->followers) {
    follower->result = job->result;
    follower->result.deduplicated = true;
    follower->done = true;
    job_ns.Record(ElapsedNs(follower->submit_tp));
    CountCompletionLocked(follower->result);
  }
  job->followers.clear();
  job_done_.notify_all();
}

void DecompositionServer::CountCompletionLocked(const JobResult& result) {
  static Counter& completed = MetricCounter("serve.jobs.completed");
  static Counter& cancelled = MetricCounter("serve.jobs.cancelled");
  static Counter& deadline = MetricCounter("serve.jobs.deadline_exceeded");
  ++stats_.completed;
  completed.Add(1);
  if (result.status.code() == StatusCode::kCancelled) {
    ++stats_.cancelled;
    cancelled.Add(1);
  } else if (result.status.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.deadline_exceeded;
    deadline.Add(1);
  }
}

Result<std::shared_ptr<const CachedModel>> DecompositionServer::GetModel(
    const ModelSpec& spec) {
  DT_RETURN_NOT_OK(spec.Validate());
  std::shared_ptr<const CachedModel> model = cache_.Get(spec.CanonicalKey());
  if (model == nullptr) {
    return Status::FailedPrecondition(
        "model not resident: " + spec.CanonicalKey() +
        " — Submit a Solve for it first (queries never trigger compute)");
  }
  return model;
}

Result<ElementQueryResponse> DecompositionServer::QueryElement(
    const ModelSpec& spec, const ElementQueryRequest& req) {
  DT_TRACE_SPAN("serve.query.element");
  Timer timer;
  DT_ASSIGN_OR_RETURN(std::shared_ptr<const CachedModel> model,
                      GetModel(spec));
  ElementQueryResponse resp;
  DT_ASSIGN_OR_RETURN(resp.values,
                      ReconstructElements(model->decomposition, req.indices));
  MetricCounter("serve.queries.element").Add(req.indices.size());
  MetricHistogram("serve.query_ns.element")
      .Record(static_cast<std::uint64_t>(timer.Seconds() * 1e9));
  return resp;
}

Result<FiberQueryResponse> DecompositionServer::QueryFiber(
    const ModelSpec& spec, const FiberQueryRequest& req) {
  DT_TRACE_SPAN("serve.query.fiber");
  Timer timer;
  DT_ASSIGN_OR_RETURN(std::shared_ptr<const CachedModel> model,
                      GetModel(spec));
  FiberQueryResponse resp;
  resp.fibers.reserve(req.anchors.size());
  for (const std::vector<Index>& anchor : req.anchors) {
    DT_ASSIGN_OR_RETURN(
        std::vector<double> fiber,
        ReconstructFiber(model->decomposition, req.mode, anchor));
    resp.fibers.push_back(std::move(fiber));
  }
  MetricCounter("serve.queries.fiber").Add(req.anchors.size());
  MetricHistogram("serve.query_ns.fiber")
      .Record(static_cast<std::uint64_t>(timer.Seconds() * 1e9));
  return resp;
}

Result<SliceQueryResponse> DecompositionServer::QuerySlice(
    const ModelSpec& spec, const SliceQueryRequest& req) {
  DT_TRACE_SPAN("serve.query.slice");
  Timer timer;
  DT_ASSIGN_OR_RETURN(std::shared_ptr<const CachedModel> model,
                      GetModel(spec));
  SliceQueryResponse resp;
  resp.slices.reserve(req.slices.size());
  for (Index l : req.slices) {
    DT_ASSIGN_OR_RETURN(Matrix slice,
                        ReconstructFrontalSlice(model->decomposition, l));
    resp.slices.push_back(std::move(slice));
  }
  MetricCounter("serve.queries.slice").Add(req.slices.size());
  MetricHistogram("serve.query_ns.slice")
      .Record(static_cast<std::uint64_t>(timer.Seconds() * 1e9));
  return resp;
}

ServerStats DecompositionServer::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats s = stats_;
  s.queue_depth = queue_.Depth();
  s.active_jobs = active_jobs_;
  s.cache = cache_.GetStats();
  return s;
}

}  // namespace dtucker
