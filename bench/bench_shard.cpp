// bench_shard: multi-process sharded D-Tucker scaling harness.
//
// Three phases, all over real fork()ed rank processes (rank 0 stays in the
// parent) with one BLAS thread per rank:
//
//   1. Scaling: for each rank count R in --rank_counts, decompose a
//      DTNSR001 scratch file whose raw slab stack exceeds the per-rank
//      memory budget. Each rank streams and compresses only its own slice
//      shard, so its resident tensor data is one slice plus the compressed
//      shard. Runs on the file transport (the conservative multi-process
//      baseline) and checks the core is bitwise identical to the 1-rank
//      run.
//   2. Transport wait probe: at --wait_ranks multi-process ranks, a tight
//      loop of small collectives on the file and shm transports, reporting
//      rank 0's mean blocked time per collective from the comm.wait_ns.* /
//      comm.ops.* metrics. This isolates rendezvous latency (compute skew
//      is negligible), which is where the shm transport's mmap'd-atomic
//      mailboxes beat the file transport's stat/rename polling.
//   3. Iteration-phase transports: on a --trailing_dim^3 cube at Tucker
//      rank --trailing_rank, iteration-phase seconds at --trailing_ranks
//      ranks on the shm transport against the file transport (the
//      per-sweep collectives are where the slow transport shows), plus a
//      1-rank run for the bitwise check.
//
// Timing model: the approximation phase is reported as the *busiest rank's
// CPU seconds* (reduced with AllReduceMax), not parent wall-clock. With
// one core per rank — the configuration the scaling claim is about — the
// busiest rank's CPU time IS the phase's wall time; on a machine with
// fewer cores than ranks the OS timeshares the ranks and wall-clock
// measures the scheduler, not the algorithm. Wall times are also recorded
// for reference. Init/iteration wall seconds come from rank 0's
// TuckerStats (those phases are collective-synchronized, so every rank
// agrees on them).
//
// Output: a table on stdout plus --json (default BENCH_shard.json) with
// per-rank-count phase times, approximation speedup vs 1 rank, parallel
// efficiency, per-rank resident bytes, bitwise-identity checks against the
// 1-rank run, the per-transport mean collective wait (and the shm-vs-file
// ratio), and the iteration-phase shm-vs-file speedup.
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "comm/communicator.h"
#include "comm/sharding.h"
#include "common/flags.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "data/tensor_file.h"
#include "dtucker/out_of_core.h"
#include "dtucker/sharded_dtucker.h"
#include "linalg/blas.h"

namespace dtucker {
namespace {

double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Writes a synthetic low-rank-plus-noise tensor slice by slice (never
// resident; same construction as exp11).
Status WriteSyntheticTensor(const std::string& path, Index i1, Index i2,
                            Index slices, Index rank, uint64_t seed) {
  Rng rng(seed);
  Matrix u = Matrix::GaussianRandom(i1, rank, rng);
  Matrix v = Matrix::GaussianRandom(i2, rank, rng);
  Result<TensorFileWriter> writer =
      TensorFileWriter::Create(path, {i1, i2, slices});
  DT_RETURN_NOT_OK(writer.status());
  TensorFileWriter w = std::move(writer).ValueOrDie();
  Matrix slice(i1, i2);
  for (Index l = 0; l < slices; ++l) {
    Matrix us = u;
    for (Index r = 0; r < rank; ++r) {
      const double weight = 1.0 + std::sin(0.05 * static_cast<double>(l) + r);
      Scal(weight, us.col_data(r), i1);
    }
    GemmRaw(Trans::kNo, Trans::kYes, i1, i2, rank, 1.0, us.data(), i1,
            v.data(), i2, 0.0, slice.data(), i1);
    for (Index i = 0; i < slice.size(); ++i) {
      slice.data()[i] += 0.05 * rng.Gaussian();
    }
    DT_RETURN_NOT_OK(w.AppendSlice(slice));
  }
  return w.Finish();
}

// Sum of the per-op comm wait gauges and op counters in this process's
// metrics registry. Deltas around a bracket give that bracket's blocked
// nanoseconds and outermost-collective count (OpScope attribution: nested
// collectives fold into the outermost op).
struct WaitStats {
  double wait_ns = 0;
  double ops = 0;
};

WaitStats SnapshotWaitStats() {
  static const char* kOps[] = {"barrier",       "broadcast", "allreduce_sum",
                               "allreduce_max", "gather",    "allgatherv"};
  WaitStats s;
  for (const char* op : kOps) {
    s.wait_ns += MetricGauge(std::string("comm.wait_ns.") + op).Value();
    s.ops +=
        static_cast<double>(MetricCounter(std::string("comm.ops.") + op).Value());
  }
  return s;
}

// Creates this rank's communicator on the requested multi-process
// transport. `scratch` is the shared directory (file) or the shm_open
// name (shm). Rank processes fork *before* creating, so shm peers poll
// for rank 0's segment (bounded by the setup timeout).
Result<std::unique_ptr<Communicator>> CreateBenchCommunicator(
    CommTransport transport, const std::string& scratch, int rank, int size) {
  switch (transport) {
    case CommTransport::kFile:
      return CreateFileCommunicator(scratch, rank, size);
    case CommTransport::kShm:
      return CreateShmCommunicator(scratch, rank, size);
    case CommTransport::kInProcess:
      break;
  }
  return Status::InvalidArgument(
      "bench_shard runs rank processes; inproc is thread-only");
}

// What one rank measures; max-reduced across the group so rank 0 reports
// the phase critical path.
struct RankReport {
  double approx_cpu = 0;       // CPU seconds in the approximation phase.
  double approx_wall = 0;      // Wall seconds in the approximation phase.
  double init_seconds = 0;     // Initialization phase (collective wall).
  double iterate_seconds = 0;  // Iteration phase (collective wall).
  double resident_bytes = 0;   // Compressed shard + one streaming slice.
  Tensor core;                 // For the bitwise determinism check.
};

Result<RankReport> RunRank(const std::string& path, CommTransport transport,
                           const std::string& scratch, int rank, int size,
                           const std::vector<Index>& full_shape, Index rank_j,
                           int iters) {
  SetBlasThreads(1);  // The claim under test: R ranks x 1 thread each.
  Result<std::unique_ptr<Communicator>> comm_r =
      CreateBenchCommunicator(transport, scratch, rank, size);
  DT_RETURN_NOT_OK(comm_r.status());
  Communicator* comm = comm_r.value().get();

  Index l_total = 1;
  for (std::size_t n = 2; n < full_shape.size(); ++n) l_total *= full_shape[n];
  DT_ASSIGN_OR_RETURN(ShardPlan plan, MakeShardPlan(l_total, size, rank));

  SliceApproximationOptions aopt;
  aopt.slice_rank = rank_j;
  Timer wall;
  const double cpu0 = CpuSeconds();
  DT_ASSIGN_OR_RETURN(std::vector<SliceSvd> slices,
                      ApproximateSliceRangeFromFile(
                          path, plan.slice_begin, plan.NumLocalSlices(), aopt));
  RankReport report;
  report.approx_cpu = CpuSeconds() - cpu0;
  report.approx_wall = wall.Seconds();

  SliceApproximation local;
  local.shape = {full_shape[0], full_shape[1], plan.NumLocalSlices()};
  local.slice_rank = rank_j;
  local.slices = std::move(slices);
  report.resident_bytes =
      static_cast<double>(local.ByteSize()) +
      static_cast<double>(full_shape[0] * full_shape[1]) * sizeof(double);

  DTuckerOptions opt;
  opt.tucker.ranks.assign(full_shape.size(), rank_j);
  opt.tucker.max_iterations = iters;
  opt.tucker.tolerance = 0;  // Fixed sweep count: every run does the same work.
  TuckerStats stats;
  DT_ASSIGN_OR_RETURN(TuckerDecomposition dec,
                      ShardedDTuckerFromLocalApproximation(
                          local, full_shape, plan, opt, comm, &stats));
  report.init_seconds = stats.init_seconds;
  report.iterate_seconds = stats.iterate_seconds;
  report.core = std::move(dec.core);

  // Phase critical path: the busiest rank's numbers, on every rank.
  double buf[5] = {report.approx_cpu, report.approx_wall, report.init_seconds,
                   report.iterate_seconds, report.resident_bytes};
  DT_RETURN_NOT_OK(comm->AllReduceMax(buf, 5));
  report.approx_cpu = buf[0];
  report.approx_wall = buf[1];
  report.init_seconds = buf[2];
  report.iterate_seconds = buf[3];
  report.resident_bytes = buf[4];
  DT_RETURN_NOT_OK(comm->Barrier());
  return report;
}

// Forks ranks 1..size-1 running `body`, runs rank 0 in the parent, and
// joins the children. Returns rank 0's status; a child failure turns an
// OK parent into an error.
Status RunRankProcesses(int size, const std::function<Status(int)>& body) {
  std::vector<pid_t> children;
  for (int r = 1; r < size; ++r) {
    pid_t pid = ::fork();
    if (pid < 0) return Status::Internal("fork failed");
    if (pid == 0) {
      Status st = body(r);
      if (!st.ok()) {
        std::fprintf(stderr, "rank %d: %s\n", r, st.ToString().c_str());
      }
      ::_exit(st.ok() ? 0 : 1);
    }
    children.push_back(pid);
  }
  Status root = body(0);
  bool peers_ok = true;
  for (pid_t pid : children) {
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    peers_ok &= WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  }
  if (root.ok() && !peers_ok) return Status::Internal("peer rank failed");
  return root;
}

// Phase 2 worker: after a warmup, a tight loop of small collectives; rank
// 0 reports its mean blocked nanoseconds per collective from the metric
// deltas. Every collective counts two outermost ops per iteration (one
// AllReduceSum, one Barrier).
Result<double> RunWaitProbe(CommTransport transport, const std::string& scratch,
                            int rank, int size, int iters) {
  Result<std::unique_ptr<Communicator>> comm_r =
      CreateBenchCommunicator(transport, scratch, rank, size);
  DT_RETURN_NOT_OK(comm_r.status());
  Communicator* comm = comm_r.value().get();
  double payload[64];
  for (int i = 0; i < 64; ++i) {
    payload[i] = static_cast<double>(rank + i);
  }
  for (int w = 0; w < 4; ++w) DT_RETURN_NOT_OK(comm->Barrier());
  const WaitStats before = SnapshotWaitStats();
  for (int it = 0; it < iters; ++it) {
    DT_RETURN_NOT_OK(comm->AllReduceSum(payload, 64));
    DT_RETURN_NOT_OK(comm->Barrier());
  }
  const WaitStats after = SnapshotWaitStats();
  DT_RETURN_NOT_OK(comm->Barrier());
  const double ops = after.ops - before.ops;
  if (ops <= 0) return Status::Internal("wait probe recorded no collectives");
  return (after.wait_ns - before.wait_ns) / ops;
}

struct RunRecord {
  int ranks = 0;
  RankReport report;
  double rank0_wait_ns_per_collective = 0;
  bool bitwise_match = true;
};

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  for (Index i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt("i1", 384, "slice rows (scaling phase)");
  flags.AddInt("i2", 256, "slice cols (scaling phase)");
  flags.AddInt("slices", 96, "number of frontal slices (scaling phase)");
  flags.AddInt("rank", 10, "Tucker rank per mode (scaling phase)");
  flags.AddInt("iters", 3, "ALS sweeps (fixed; tolerance 0)");
  flags.AddString("rank_counts", "1,2,4", "comma-separated rank counts");
  flags.AddInt("wait_ranks", 4, "rank count for the transport wait probe");
  flags.AddInt("wait_iters", 300,
               "collective pairs per transport in the wait probe");
  flags.AddInt("trailing_dim", 256,
               "cube side for the iteration-phase comparison (0 = skip)");
  flags.AddInt("trailing_rank", 10,
               "Tucker rank for the iteration-phase comparison");
  flags.AddInt("trailing_ranks", 4,
               "rank count for the iteration-phase comparison");
  flags.AddInt("trailing_iters", 3,
               "HOOI sweeps in the iteration-phase comparison");
  flags.AddString("path", "/tmp/dtucker_bench_shard.dtnsr", "scratch tensor");
  flags.AddString("scratch", "/tmp/dtucker_bench_shard_comm",
                  "communicator scratch directory prefix");
  flags.AddString("json", "BENCH_shard.json", "JSON output path");
  AddTelemetryFlags(&flags);
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.HelpString().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.HelpString().c_str());
    return 0;
  }
  InitTelemetryFromFlags(flags);

  const Index i1 = flags.GetInt("i1");
  const Index i2 = flags.GetInt("i2");
  const Index slices = flags.GetInt("slices");
  const Index rank_j = flags.GetInt("rank");
  const int iters = static_cast<int>(flags.GetInt("iters"));
  const std::string path = flags.GetString("path");
  const std::vector<Index> full_shape = {i1, i2, slices};
  const double slab_stack_bytes =
      static_cast<double>(i1 * i2 * slices) * sizeof(double);
  const std::string shm_base = "/dtucker-bench-" + std::to_string(::getpid());

  std::vector<int> rank_counts;
  {
    const std::string& spec = flags.GetString("rank_counts");
    int value = 0;
    for (char c : spec + ",") {
      if (c >= '0' && c <= '9') {
        value = value * 10 + (c - '0');
      } else if (value > 0) {
        rank_counts.push_back(value);
        value = 0;
      }
    }
  }

  std::printf("=== bench_shard: %td x %td x %td (%.0f MiB slab stack), "
              "J = %td, %d sweeps ===\n\n",
              i1, i2, slices, slab_stack_bytes / (1 << 20), rank_j, iters);
  Timer write_timer;
  Status ws = WriteSyntheticTensor(path, i1, i2, slices, rank_j, 9);
  if (!ws.ok()) {
    std::fprintf(stderr, "writing failed: %s\n", ws.ToString().c_str());
    return 1;
  }
  std::printf("wrote scratch tensor in %.1fs\n\n", write_timer.Seconds());

  // --- Phase 1: scaling on the file transport. --------------------------
  std::vector<RunRecord> records;
  Tensor reference_core;  // Copy, not a pointer: `records` reallocates.
  for (std::size_t ci = 0; ci < rank_counts.size(); ++ci) {
    const int size = rank_counts[ci];
    const std::string dir =
        flags.GetString("scratch") + "_" + std::to_string(size);
    RunRecord record;
    record.ranks = size;
    const WaitStats wait0 = SnapshotWaitStats();
    Status run_st = RunRankProcesses(size, [&](int r) -> Status {
      Result<RankReport> rep =
          RunRank(path, CommTransport::kFile, dir, r, size, full_shape, rank_j,
                  iters);
      DT_RETURN_NOT_OK(rep.status());
      if (r == 0) record.report = std::move(rep).ValueOrDie();
      return Status::OK();
    });
    const WaitStats wait1 = SnapshotWaitStats();
    std::string cleanup = "rm -rf '" + dir + "'";
    if (std::system(cleanup.c_str()) != 0) {
      std::fprintf(stderr, "warning: failed to remove %s\n", dir.c_str());
    }
    if (!run_st.ok()) {
      std::fprintf(stderr, "rank count %d failed: %s\n", size,
                   run_st.ToString().c_str());
      return 1;
    }
    if (wait1.ops > wait0.ops) {
      record.rank0_wait_ns_per_collective =
          (wait1.wait_ns - wait0.wait_ns) / (wait1.ops - wait0.ops);
    }
    if (records.empty()) {
      reference_core = record.report.core;
    } else {
      record.bitwise_match = BitwiseEqual(record.report.core, reference_core);
    }
    records.push_back(std::move(record));
    std::printf("ranks=%d done (approx %.2fs cpu/rank, %.2fs wall)\n", size,
                records.back().report.approx_cpu,
                records.back().report.approx_wall);
  }

  // --- Phase 2: transport wait probe (file vs shm). ---------------------
  const int wait_ranks = static_cast<int>(flags.GetInt("wait_ranks"));
  const int wait_iters = static_cast<int>(flags.GetInt("wait_iters"));
  double file_wait_ns = 0;
  double shm_wait_ns = 0;
  {
    const std::string dir = flags.GetString("scratch") + "_waitprobe";
    Status probe_st = RunRankProcesses(wait_ranks, [&](int r) -> Status {
      Result<double> mean =
          RunWaitProbe(CommTransport::kFile, dir, r, wait_ranks, wait_iters);
      DT_RETURN_NOT_OK(mean.status());
      if (r == 0) file_wait_ns = std::move(mean).ValueOrDie();
      return Status::OK();
    });
    std::string cleanup = "rm -rf '" + dir + "'";
    if (std::system(cleanup.c_str()) != 0) {
      std::fprintf(stderr, "warning: failed to remove %s\n", dir.c_str());
    }
    if (probe_st.ok()) {
      const std::string name = shm_base + "-waitprobe";
      probe_st = RunRankProcesses(wait_ranks, [&](int r) -> Status {
        Result<double> mean =
            RunWaitProbe(CommTransport::kShm, name, r, wait_ranks, wait_iters);
        DT_RETURN_NOT_OK(mean.status());
        if (r == 0) shm_wait_ns = std::move(mean).ValueOrDie();
        return Status::OK();
      });
    }
    if (!probe_st.ok()) {
      std::fprintf(stderr, "wait probe failed: %s\n",
                   probe_st.ToString().c_str());
      return 1;
    }
  }
  const double wait_speedup =
      shm_wait_ns > 0 ? file_wait_ns / shm_wait_ns : 0.0;
  std::printf(
      "\nwait probe (%d ranks, %d collective pairs): file %.1f us, shm "
      "%.1f us per collective -> shm %.1fx lower wait\n",
      wait_ranks, wait_iters, file_wait_ns * 1e-3, shm_wait_ns * 1e-3,
      wait_speedup);

  // --- Phase 3: iteration phase on shm vs file. -------------------------
  const Index tdim = flags.GetInt("trailing_dim");
  const Index trank = flags.GetInt("trailing_rank");
  const int tranks = static_cast<int>(flags.GetInt("trailing_ranks"));
  const int titers = static_cast<int>(flags.GetInt("trailing_iters"));
  double iterate_shm_s = 0;
  double iterate_file_s = 0;
  bool trailing_bitwise = true;
  if (tdim > 0) {
    const std::string tpath = path + ".trail";
    const std::vector<Index> tshape = {tdim, tdim, tdim};
    Status tws = WriteSyntheticTensor(tpath, tdim, tdim, tdim, trank, 9);
    if (!tws.ok()) {
      std::fprintf(stderr, "writing failed: %s\n", tws.ToString().c_str());
      return 1;
    }
    Tensor trailing_cores[3];
    struct TrailingConfig {
      int size;
      CommTransport transport;
      double* seconds;
    };
    double reference_seconds = 0;
    const TrailingConfig configs[3] = {
        {tranks, CommTransport::kShm, &iterate_shm_s},
        {tranks, CommTransport::kFile, &iterate_file_s},
        {1, CommTransport::kShm, &reference_seconds},
    };
    for (int c = 0; c < 3; ++c) {
      const bool is_file = configs[c].transport == CommTransport::kFile;
      const std::string scratch =
          is_file ? flags.GetString("scratch") + "_trail" + std::to_string(c)
                  : shm_base + "-trail" + std::to_string(c);
      Status run_st = RunRankProcesses(configs[c].size, [&](int r) -> Status {
        Result<RankReport> rep =
            RunRank(tpath, configs[c].transport, scratch, r, configs[c].size,
                    tshape, trank, titers);
        DT_RETURN_NOT_OK(rep.status());
        if (r == 0) {
          *configs[c].seconds = rep.value().iterate_seconds;
          trailing_cores[c] = std::move(rep).ValueOrDie().core;
        }
        return Status::OK();
      });
      if (is_file) {
        std::string cleanup = "rm -rf '" + scratch + "'";
        if (std::system(cleanup.c_str()) != 0) {
          std::fprintf(stderr, "warning: failed to remove %s\n",
                       scratch.c_str());
        }
      }
      if (!run_st.ok()) {
        std::fprintf(stderr, "iteration config %d failed: %s\n", c,
                     run_st.ToString().c_str());
        return 1;
      }
    }
    std::remove(tpath.c_str());
    trailing_bitwise = BitwiseEqual(trailing_cores[0], trailing_cores[2]) &&
                       BitwiseEqual(trailing_cores[1], trailing_cores[2]);
    std::printf(
        "iteration phase (%td^3, J=%td, %d ranks, %d sweeps): shm %.3fs, "
        "file %.3fs -> %.2fx; bitwise=1rank: %s\n",
        tdim, trank, tranks, titers, iterate_shm_s, iterate_file_s,
        iterate_shm_s > 0 ? iterate_file_s / iterate_shm_s : 0.0,
        trailing_bitwise ? "yes" : "NO");
  }

  const double base_cpu = records.front().report.approx_cpu;
  TablePrinter table({"ranks", "approx cpu/rank", "approx speedup",
                      "efficiency", "init", "iterate", "resident/rank",
                      "bitwise=1rank"});
  for (const RunRecord& r : records) {
    const double speedup = base_cpu / r.report.approx_cpu;
    char cpu_s[32], sp_s[32], eff_s[32], init_s[32], it_s[32];
    std::snprintf(cpu_s, sizeof(cpu_s), "%.3fs", r.report.approx_cpu);
    std::snprintf(sp_s, sizeof(sp_s), "%.2fx", speedup);
    std::snprintf(eff_s, sizeof(eff_s), "%.0f%%", 100.0 * speedup / r.ranks);
    std::snprintf(init_s, sizeof(init_s), "%.3fs", r.report.init_seconds);
    std::snprintf(it_s, sizeof(it_s), "%.3fs", r.report.iterate_seconds);
    table.AddRow({std::to_string(r.ranks), cpu_s, sp_s, eff_s, init_s, it_s,
                  TablePrinter::FormatBytes(
                      static_cast<std::size_t>(r.report.resident_bytes)),
                  r.bitwise_match ? "yes" : "NO"});
  }
  std::printf("\n");
  table.Print();

  FILE* json = std::fopen(flags.GetString("json").c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", flags.GetString("json").c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n  \"tensor\": {\"i1\": %td, \"i2\": %td, \"slices\": %td, "
               "\"slab_stack_bytes\": %.0f},\n  \"note\": "
               "\"approx_cpu_seconds is the busiest rank's CPU time in the "
               "approximation phase (== phase wall time at one core per "
               "rank); speedup/efficiency derive from it\",\n  \"runs\": [\n",
               i1, i2, slices, slab_stack_bytes);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    const double speedup = base_cpu / r.report.approx_cpu;
    std::fprintf(
        json,
        "    {\"ranks\": %d, \"approx_cpu_seconds\": %.6f, "
        "\"approx_wall_seconds\": %.6f, \"approx_speedup\": %.3f, "
        "\"parallel_efficiency\": %.3f, \"init_seconds\": %.6f, "
        "\"iterate_seconds\": %.6f, \"resident_bytes_per_rank\": %.0f, "
        "\"rank0_wait_ns_per_collective\": %.0f, "
        "\"core_bitwise_matches_1rank\": %s}%s\n",
        r.ranks, r.report.approx_cpu, r.report.approx_wall, speedup,
        speedup / r.ranks, r.report.init_seconds, r.report.iterate_seconds,
        r.report.resident_bytes, r.rank0_wait_ns_per_collective,
        r.bitwise_match ? "true" : "false",
        i + 1 < records.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"wait_probe\": {\"ranks\": %d, "
               "\"collective_pairs\": %d, \"file_mean_wait_ns\": %.0f, "
               "\"shm_mean_wait_ns\": %.0f, "
               "\"shm_wait_speedup_vs_file\": %.2f},\n",
               wait_ranks, wait_iters, file_wait_ns, shm_wait_ns,
               wait_speedup);
  std::fprintf(json,
               "  \"iteration\": {\"dim\": %td, \"tucker_rank\": %td, "
               "\"ranks\": %d, \"sweeps\": %d, "
               "\"shm_iterate_seconds\": %.6f, "
               "\"file_iterate_seconds\": %.6f, "
               "\"shm_speedup_vs_file\": %.3f, "
               "\"core_bitwise_matches_1rank\": %s}\n}\n",
               tdim, trank, tranks, titers, iterate_shm_s, iterate_file_s,
               iterate_shm_s > 0 ? iterate_file_s / iterate_shm_s : 0.0,
               trailing_bitwise ? "true" : "false");
  std::fclose(json);
  std::printf("\nwrote %s\n", flags.GetString("json").c_str());
  std::remove(path.c_str());
  return 0;
}

}  // namespace
}  // namespace dtucker

int main(int argc, char** argv) { return dtucker::Run(argc, argv); }
