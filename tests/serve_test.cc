#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "data/generators.h"
#include "linalg/blas.h"
#include "linalg/gemm_kernel.h"
#include "serve/job_queue.h"
#include "serve/model_cache.h"
#include "tucker/reconstruct.h"

namespace dtucker {
namespace {

// Bit-exact double comparison (the serving contract is bitwise equality
// with the full reconstruction, not epsilon closeness).
bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

ModelSpec Spec(const std::string& id) {
  ModelSpec s;
  s.dataset_id = id;
  s.ranks = {3, 3, 3};
  s.max_iterations = 3;
  return s;
}

std::shared_ptr<const Tensor> SmallTensor(std::uint64_t seed = 1) {
  return std::make_shared<Tensor>(
      MakeLowRankTensor({12, 10, 8}, {3, 3, 3}, 0.1, seed));
}

SolveRequest Req(std::shared_ptr<const Tensor> t, const std::string& id) {
  SolveRequest r;
  r.model = Spec(id);
  r.tensor = std::move(t);
  return r;
}

void WaitForCount(const std::atomic<int>& counter, int at_least) {
  while (counter.load() < at_least) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// --- ModelSpec ----------------------------------------------------------

TEST(ModelSpecTest, ValidateRejectsBadSpecs) {
  EXPECT_FALSE(ModelSpec{}.Validate().ok());  // No dataset id.
  ModelSpec s = Spec("x");
  EXPECT_TRUE(s.Validate().ok());
  s.ranks = {3, 0, 3};
  EXPECT_FALSE(s.Validate().ok());
  s = Spec("x");
  s.max_iterations = 0;
  EXPECT_FALSE(s.Validate().ok());
  s = Spec("x");
  s.tolerance = 0;
  EXPECT_FALSE(s.Validate().ok());
}

TEST(ModelSpecTest, CanonicalKeySeparatesModels) {
  const std::string base = Spec("x").CanonicalKey();
  EXPECT_EQ(base, Spec("x").CanonicalKey());  // Deterministic.
  ModelSpec s = Spec("x");
  s.ranks = {3, 3, 4};
  EXPECT_NE(base, s.CanonicalKey());
  s = Spec("x");
  s.seed = 7;
  EXPECT_NE(base, s.CanonicalKey());
  s = Spec("x");
  s.tolerance = 1e-5;
  EXPECT_NE(base, s.CanonicalKey());
  EXPECT_NE(base, Spec("y").CanonicalKey());
  EXPECT_NE(Spec("x").CanonicalHash(), Spec("y").CanonicalHash());
}

TEST(SolveRequestTest, ValidateRequiresExactlyOneInput) {
  SolveRequest r;
  r.model = Spec("x");
  EXPECT_FALSE(r.Validate().ok());  // Neither tensor nor path.
  r.tensor = SmallTensor();
  EXPECT_TRUE(r.Validate().ok());
  r.tensor_path = "/tmp/x.dtnsr";
  EXPECT_FALSE(r.Validate().ok());  // Both.
  r.tensor = nullptr;
  EXPECT_TRUE(r.Validate().ok());
  r.deadline_seconds = -1;
  EXPECT_FALSE(r.Validate().ok());
}

// --- JobQueue -----------------------------------------------------------

TEST(JobQueueTest, PriorityThenFifoOrder) {
  JobQueue q(8);
  auto make = [] { return std::make_shared<ServeJob>(); };
  auto low1 = make(), low2 = make(), high = make();
  ASSERT_TRUE(q.TryPush(low1, 0).ok());
  ASSERT_TRUE(q.TryPush(low2, 0).ok());
  ASSERT_TRUE(q.TryPush(high, 5).ok());
  EXPECT_EQ(q.Depth(), 3);
  EXPECT_EQ(q.Pop(), high);  // Highest priority first.
  EXPECT_EQ(q.Pop(), low1);  // FIFO within a priority.
  EXPECT_EQ(q.Pop(), low2);
}

TEST(JobQueueTest, RejectsWhenFullAndDrainsAfterClose) {
  JobQueue q(2);
  ASSERT_TRUE(q.TryPush(std::make_shared<ServeJob>(), 0).ok());
  ASSERT_TRUE(q.TryPush(std::make_shared<ServeJob>(), 0).ok());
  const Status full = q.TryPush(std::make_shared<ServeJob>(), 0);
  EXPECT_EQ(full.code(), StatusCode::kResourceExhausted);
  q.Close();
  EXPECT_EQ(q.TryPush(std::make_shared<ServeJob>(), 0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_NE(q.Pop(), nullptr);  // Pending entries drain after Close.
  EXPECT_NE(q.Pop(), nullptr);
  EXPECT_EQ(q.Pop(), nullptr);  // Closed and drained.
}

// --- ModelCache ---------------------------------------------------------

std::shared_ptr<const CachedModel> FakeModel(std::size_t bytes) {
  auto m = std::make_shared<CachedModel>();
  m->bytes = bytes;
  return m;
}

TEST(ModelCacheTest, EvictsLeastRecentlyUsed) {
  ModelCacheOptions opt;
  opt.max_entries = 2;
  ModelCache cache(opt);
  cache.Put("a", FakeModel(8));
  cache.Put("b", FakeModel(8));
  ASSERT_NE(cache.Get("a"), nullptr);  // Bumps "a"; "b" is now LRU.
  cache.Put("c", FakeModel(8));
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  const ModelCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2);
}

TEST(ModelCacheTest, ByteBoundEvictsButKeepsNewestEntry) {
  ModelCacheOptions opt;
  opt.max_entries = 16;
  opt.max_bytes = 100;
  ModelCache cache(opt);
  cache.Put("a", FakeModel(60));
  cache.Put("b", FakeModel(60));  // 120 > 100: evicts "a".
  EXPECT_FALSE(cache.Contains("a"));
  EXPECT_TRUE(cache.Contains("b"));
  cache.Put("big", FakeModel(500));  // Oversized alone: still resident.
  EXPECT_TRUE(cache.Contains("big"));
  EXPECT_EQ(cache.GetStats().entries, 1);
}

TEST(ModelCacheTest, EvictionKeepsOutstandingReadersValid) {
  ModelCacheOptions opt;
  opt.max_entries = 1;
  ModelCache cache(opt);
  cache.Put("a", FakeModel(123));
  std::shared_ptr<const CachedModel> held = cache.Get("a");
  ASSERT_NE(held, nullptr);
  cache.Put("b", FakeModel(8));  // Evicts "a".
  EXPECT_FALSE(cache.Contains("a"));
  // The held snapshot stays a valid immutable view (ASan pins this).
  EXPECT_EQ(held->bytes, 123u);
}

// --- PoolPartitionLease -------------------------------------------------

TEST(PoolPartitionLeaseTest, LeasesRaiseEffectivePartitions) {
  ASSERT_EQ(ActivePoolLeases(), 0);
  SetBlasThreads(4);
  // How many threads one 64-tile RunBlasTiles call runs on.
  auto tile_threads = [] {
    std::mutex mu;
    std::set<std::thread::id> ids;
    RunBlasTiles(64, [&](Index, Index) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids.size();
  };
  {
    PoolPartitionLease a;
    PoolPartitionLease b;
    EXPECT_EQ(ActivePoolLeases(), 2);
    EXPECT_LE(tile_threads(), 2u);  // 4 threads / 2 leases.
  }
  EXPECT_EQ(ActivePoolLeases(), 0);
  EXPECT_LE(tile_threads(), 4u);
  SetBlasThreads(1);
}

// --- DecompositionServer ------------------------------------------------

TEST(ServerTest, SolveProducesModelAndCachesIt) {
  ServerOptions opt;
  opt.num_workers = 1;
  DecompositionServer server(opt);
  auto tensor = SmallTensor();

  Result<JobResult> first = server.Solve(Req(tensor, "solve"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.value().status.ok());
  ASSERT_NE(first.value().model, nullptr);
  EXPECT_FALSE(first.value().from_cache);
  EXPECT_GT(first.value().model->bytes, 0u);

  Result<JobResult> second = server.Solve(Req(tensor, "solve"));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().from_cache);
  // Cache hit = the same shared snapshot, not a re-run.
  EXPECT_EQ(second.value().model, first.value().model);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.served_from_cache, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServerTest, WaitReapsAndUnknownIdsAreRejected) {
  ServerOptions opt;
  opt.num_workers = 1;
  DecompositionServer server(opt);
  Result<JobId> id = server.Submit(Req(SmallTensor(), "reap"));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server.Wait(id.value()).ok());
  EXPECT_EQ(server.Wait(id.value()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Cancel(9999).code(), StatusCode::kInvalidArgument);
}

TEST(ServerTest, FullQueueRejectsWithResourceExhausted) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> begun{0};

  ServerOptions opt;
  opt.num_workers = 1;
  opt.queue_capacity = 2;
  opt.job_begin_hook = [&](const SolveRequest& r) {
    begun.fetch_add(1);
    if (r.model.dataset_id == "blocker") gate.wait();
  };
  DecompositionServer server(opt);
  auto tensor = SmallTensor();

  Result<JobId> blocker = server.Submit(Req(tensor, "blocker"));
  ASSERT_TRUE(blocker.ok());
  WaitForCount(begun, 1);  // Worker is parked inside the hook.

  Result<JobId> q1 = server.Submit(Req(tensor, "q1"));
  Result<JobId> q2 = server.Submit(Req(tensor, "q2"));
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  Result<JobId> q3 = server.Submit(Req(tensor, "q3"));
  ASSERT_FALSE(q3.ok());
  EXPECT_EQ(q3.status().code(), StatusCode::kResourceExhausted);

  ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.queue_depth, 2);

  release.set_value();
  EXPECT_TRUE(server.Wait(blocker.value()).ok());
  EXPECT_TRUE(server.Wait(q1.value()).ok());
  EXPECT_TRUE(server.Wait(q2.value()).ok());
  // Admission works again once the backlog drained.
  EXPECT_TRUE(server.Solve(Req(tensor, "q4")).ok());
}

TEST(ServerTest, DeadlineExpiredInQueueCompletesWithoutRunning) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> begun{0};

  ServerOptions opt;
  opt.num_workers = 1;
  opt.job_begin_hook = [&](const SolveRequest& r) {
    begun.fetch_add(1);
    if (r.model.dataset_id == "blocker") gate.wait();
  };
  DecompositionServer server(opt);
  auto tensor = SmallTensor();

  Result<JobId> blocker = server.Submit(Req(tensor, "blocker"));
  ASSERT_TRUE(blocker.ok());
  WaitForCount(begun, 1);

  SolveRequest doomed = Req(tensor, "doomed");
  doomed.deadline_seconds = 0.02;  // Will expire during the queue wait.
  Result<JobId> id = server.Submit(std::move(doomed));
  ASSERT_TRUE(id.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  release.set_value();

  Result<JobResult> result = server.Wait(id.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.value().model, nullptr);  // Never ran.
  ASSERT_TRUE(server.Wait(blocker.value()).ok());

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.executed, 1u);  // Only the blocker ran.
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ServerTest, CancelQueuedJobCompletesWithCancelled) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> begun{0};

  ServerOptions opt;
  opt.num_workers = 1;
  opt.job_begin_hook = [&](const SolveRequest& r) {
    begun.fetch_add(1);
    if (r.model.dataset_id == "blocker") gate.wait();
  };
  DecompositionServer server(opt);
  auto tensor = SmallTensor();

  Result<JobId> blocker = server.Submit(Req(tensor, "blocker"));
  ASSERT_TRUE(blocker.ok());
  WaitForCount(begun, 1);

  Result<JobId> victim = server.Submit(Req(tensor, "victim"));
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(server.Cancel(victim.value()).ok());
  release.set_value();

  Result<JobResult> result = server.Wait(victim.value());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().status.code(), StatusCode::kCancelled);
  ASSERT_TRUE(server.Wait(blocker.value()).ok());
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.executed, 1u);
}

TEST(ServerTest, IdenticalConcurrentSolvesRunOnce) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> begun{0};

  ServerOptions opt;
  opt.num_workers = 2;
  opt.job_begin_hook = [&](const SolveRequest&) {
    begun.fetch_add(1);
    gate.wait();
  };
  DecompositionServer server(opt);
  auto tensor = SmallTensor();

  // Leader enters the worker and parks; seven identical Submits attach as
  // followers (no queue slots, no extra runs): 8 submits, 1 Engine run.
  Result<JobId> leader = server.Submit(Req(tensor, "shared"));
  ASSERT_TRUE(leader.ok());
  WaitForCount(begun, 1);
  std::vector<JobId> followers;
  for (int i = 0; i < 7; ++i) {
    Result<JobId> id = server.Submit(Req(tensor, "shared"));
    ASSERT_TRUE(id.ok());
    followers.push_back(id.value());
  }
  EXPECT_EQ(server.Stats().queue_depth, 0);
  release.set_value();

  Result<JobResult> lead_result = server.Wait(leader.value());
  ASSERT_TRUE(lead_result.ok());
  ASSERT_TRUE(lead_result.value().status.ok());
  EXPECT_FALSE(lead_result.value().deduplicated);
  for (JobId id : followers) {
    Result<JobResult> r = server.Wait(id);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.value().deduplicated);
    // Same shared snapshot => bitwise-identical factors, trivially.
    EXPECT_EQ(r.value().model, lead_result.value().model);
  }
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.executed, 1u);  // Single flight.
  EXPECT_EQ(stats.dedup_followers, 7u);
  EXPECT_EQ(stats.completed, 8u);
}

TEST(ServerTest, CacheEvictionKeepsHeldModelsValid) {
  ServerOptions opt;
  opt.num_workers = 1;
  opt.cache.max_entries = 1;
  DecompositionServer server(opt);
  auto tensor = SmallTensor();

  ASSERT_TRUE(server.Solve(Req(tensor, "first")).ok());
  Result<std::shared_ptr<const CachedModel>> held =
      server.GetModel(Spec("first"));
  ASSERT_TRUE(held.ok());

  ASSERT_TRUE(server.Solve(Req(tensor, "second")).ok());  // Evicts "first".
  EXPECT_EQ(server.GetModel(Spec("first")).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(server.GetModel(Spec("second")).ok());
  // The held model survives its own eviction.
  EXPECT_EQ(held.value()->decomposition.core.dim(0), 3);
  EXPECT_GT(held.value()->bytes, 0u);
}

TEST(ServerTest, QueriesRequireResidentModel) {
  ServerOptions opt;
  opt.num_workers = 1;
  DecompositionServer server(opt);
  ElementQueryRequest req;
  req.indices = {{0, 0, 0}};
  EXPECT_EQ(server.QueryElement(Spec("absent"), req).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServerTest, QueriesMatchFullReconstructionBitwise) {
  // The small shape plus the 48^3 and 128^3 rank-10 models the serve-mixed
  // benchmark queries, where the answers were once suspected to drift
  // from the dense reconstruction by an ulp.
  struct Case {
    std::vector<Index> shape;
    Index rank;
  };
  const Case cases[] = {{{12, 10, 8}, 3}, {{48, 48, 48}, 10},
                        {{128, 128, 128}, 10}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.shape[0]) + "x" +
                 std::to_string(c.shape[1]) + "x" + std::to_string(c.shape[2]));
    const Index d0 = c.shape[0], d1 = c.shape[1], d2 = c.shape[2];
    ServerOptions opt;
    opt.num_workers = 1;
    DecompositionServer server(opt);
    SolveRequest req;
    req.model = Spec("query");
    req.model.ranks = {c.rank, c.rank, c.rank};
    req.tensor = std::make_shared<Tensor>(
        MakeLowRankTensor(c.shape, req.model.ranks, 0.1, 1));
    const ModelSpec spec = req.model;
    ASSERT_TRUE(server.Solve(req).ok());

    Result<std::shared_ptr<const CachedModel>> model = server.GetModel(spec);
    ASSERT_TRUE(model.ok());
    const Tensor full = model.value()->decomposition.Reconstruct();

    // Elements on a grid of about 3 x 3 x 3 points, corners included.
    ElementQueryRequest ereq;
    for (Index i = 0; i < d0; i += (d0 + 2) / 3) {
      for (Index j = 0; j < d1; j += (d1 + 2) / 3) {
        for (Index k = 0; k < d2; k += (d2 + 2) / 3) {
          ereq.indices.push_back({i, j, k});
        }
      }
    }
    ereq.indices.push_back({d0 - 1, d1 - 1, d2 - 1});
    Result<ElementQueryResponse> eresp = server.QueryElement(spec, ereq);
    ASSERT_TRUE(eresp.ok());
    ASSERT_EQ(eresp.value().values.size(), ereq.indices.size());
    for (std::size_t q = 0; q < ereq.indices.size(); ++q) {
      const auto& idx = ereq.indices[q];
      EXPECT_TRUE(
          BitEq(eresp.value().values[q], full(idx[0], idx[1], idx[2])))
          << "element " << q;
    }

    // Mode-1 fibers.
    FiberQueryRequest freq;
    freq.mode = 1;
    freq.anchors = {{0, 0, 0}, {d0 - 1, 0, d2 - 1}, {d0 / 2, 0, d2 / 4}};
    Result<FiberQueryResponse> fresp = server.QueryFiber(spec, freq);
    ASSERT_TRUE(fresp.ok());
    ASSERT_EQ(fresp.value().fibers.size(), freq.anchors.size());
    for (std::size_t a = 0; a < freq.anchors.size(); ++a) {
      ASSERT_EQ(fresp.value().fibers[a].size(), static_cast<std::size_t>(d1));
      for (Index j = 0; j < d1; ++j) {
        EXPECT_TRUE(BitEq(fresp.value().fibers[a][j],
                          full(freq.anchors[a][0], j, freq.anchors[a][2])))
            << "fiber " << a << " at " << j;
      }
    }

    // Frontal slices.
    SliceQueryRequest sreq;
    sreq.slices = {0, d2 / 2, d2 - 1};
    Result<SliceQueryResponse> sresp = server.QuerySlice(spec, sreq);
    ASSERT_TRUE(sresp.ok());
    ASSERT_EQ(sresp.value().slices.size(), sreq.slices.size());
    for (std::size_t s = 0; s < sreq.slices.size(); ++s) {
      const Matrix& got = sresp.value().slices[s];
      const Matrix want = full.FrontalSlice(sreq.slices[s]);
      ASSERT_EQ(got.rows(), want.rows());
      ASSERT_EQ(got.cols(), want.cols());
      for (Index i = 0; i < got.rows(); ++i) {
        for (Index j = 0; j < got.cols(); ++j) {
          EXPECT_TRUE(BitEq(got(i, j), want(i, j)))
              << "slice " << s << " at (" << i << "," << j << ")";
        }
      }
    }
  }
}

TEST(ServerTest, ConcurrentMixedLoadCompletesEverything) {
  ServerOptions opt;
  opt.num_workers = 3;
  opt.queue_capacity = 64;
  DecompositionServer server(opt);
  auto tensor = SmallTensor();

  // Several client threads hammering a handful of distinct models: every
  // job must complete OK and repeated models must not rerun the Engine
  // more than once each (single-flight + cache).
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&server, &tensor, &failures, c] {
      for (int i = 0; i < 6; ++i) {
        const std::string id = "mix" + std::to_string((c + i) % 3);
        Result<JobResult> r = server.Solve(Req(tensor, id));
        if (!r.ok() || !r.value().status.ok() ||
            r.value().model == nullptr) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, 24u);
  EXPECT_EQ(stats.completed, 24u);
  EXPECT_LE(stats.executed, 3u);  // At most one run per distinct model.
}

TEST(ServerTest, ShutdownWithParkedWorkerDoesNotHang) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> begun{0};
  auto tensor = SmallTensor();
  {
    ServerOptions opt;
    opt.num_workers = 1;
    opt.job_begin_hook = [&](const SolveRequest&) {
      begun.fetch_add(1);
      gate.wait();
    };
    DecompositionServer server(opt);
    ASSERT_TRUE(server.Submit(Req(tensor, "parked")).ok());
    ASSERT_TRUE(server.Submit(Req(tensor, "queued")).ok());
    WaitForCount(begun, 1);
    std::thread releaser([&release] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      release.set_value();
    });
    // Destructor: cancels both jobs, drains the queue, joins the worker.
    releaser.detach();
  }
  SUCCEED();
}

// --- Engine per-call context override -----------------------------------

TEST(EnginePerCallContextTest, OverrideDoesNotLeakBetweenJobs) {
  EngineOptions opt;
  opt.method_options.tucker.ranks = {3, 3, 3};
  opt.method_options.tucker.max_iterations = 3;
  opt.measure_error = false;
  Engine engine(opt);
  const Tensor x = MakeLowRankTensor({12, 10, 8}, {3, 3, 3}, 0.1, 1);

  // Job 1 brings a pre-cancelled context: interrupted before any usable
  // state exists, so the Result itself is the cancellation error.
  RunContext cancelled;
  cancelled.RequestCancel();
  Result<EngineRun> r1 = engine.Solve(x, &cancelled);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kCancelled);

  // Job 2 on the same engine with no override: the previous job's
  // cancellation must not have leaked into engine state.
  Result<EngineRun> r2 = engine.Solve(x, nullptr);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value().status.ok());

  // Job 3 with an expired per-call deadline, while the engine-owned
  // context has none: only the override applies.
  RunContext expired;
  expired.SetDeadlineAfter(0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Result<EngineRun> r3 = engine.Solve(x, &expired);
  if (r3.ok()) {
    EXPECT_EQ(r3.value().status.code(), StatusCode::kDeadlineExceeded);
  } else {
    EXPECT_EQ(r3.status().code(), StatusCode::kDeadlineExceeded);
  }

  // And the engine context still works afterwards.
  Result<EngineRun> r4 = engine.Solve(x);
  ASSERT_TRUE(r4.ok());
  EXPECT_TRUE(r4.value().status.ok());
}

}  // namespace
}  // namespace dtucker
