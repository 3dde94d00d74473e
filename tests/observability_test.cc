// End-to-end observability checks, run under `ctest -L observability`:
// a small decomposition traced in-process must yield a Chrome-trace JSON
// with nested spans for all three D-Tucker phases and a metrics snapshot
// with FLOP/call counters and per-sweep fit gauges; the dtucker_cli
// subprocess must produce the same artifacts via --trace-out/--metrics-out.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/generators.h"
#include "data/tensor_io.h"
#include "dtucker/dtucker.h"
#include "dtucker/engine.h"
#include "json_test_util.h"

namespace dtucker {
namespace {

using json_test::JsonParser;
using json_test::JsonValue;

// The X (complete) events of a parsed Chrome trace, keyed by name.
struct TraceIndex {
  std::set<std::string> names;
  // [start_us, end_us] per name occurrence.
  std::vector<std::pair<std::string, std::pair<double, double>>> intervals;
};

TraceIndex IndexTrace(const JsonValue& root) {
  TraceIndex index;
  const JsonValue& events = root.at("traceEvents");
  for (const JsonValue& ev : events.array) {
    if (!ev.Has("ph") || ev.at("ph").string_value != "X") continue;
    const std::string& name = ev.at("name").string_value;
    const double ts = ev.at("ts").number_value;
    const double dur = ev.at("dur").number_value;
    index.names.insert(name);
    index.intervals.emplace_back(name, std::make_pair(ts, ts + dur));
  }
  return index;
}

Result<TuckerDecomposition> RunSmallDecomposition(TuckerStats* stats) {
  Tensor x = MakeLowRankTensor({14, 12, 10}, {3, 3, 3}, 0.1, 7);
  DTuckerOptions opt;
  opt.tucker.ranks = {3, 3, 3};
  opt.tucker.max_iterations = 4;
  opt.tucker.tolerance = 0.0;  // Run every sweep so telemetry is deterministic.
  return DTucker(x, opt, stats);
}

TEST(ObservabilityTest, TraceShowsNestedSpansForAllThreePhases) {
  SetTraceEnabled(false);
  ClearTrace();
  SetTraceEnabled(true);
  TuckerStats stats;
  Result<TuckerDecomposition> dec = RunSmallDecomposition(&stats);
  SetTraceEnabled(false);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();

  std::ostringstream os;
  ExportChromeTrace(os);
  JsonValue root;
  ASSERT_TRUE(JsonParser::Parse(os.str(), &root));
  ASSERT_TRUE(root.Has("traceEvents"));
  const TraceIndex index = IndexTrace(root);

  // All three D-Tucker phases, the per-sweep spans, and the substrate
  // kernels underneath them.
  for (const char* phase :
       {"dtucker.approximation", "dtucker.initialization",
        "dtucker.iteration", "dtucker.sweep", "dtucker.slice_svd",
        "qr.cholqr2", "rsvd"}) {
    EXPECT_TRUE(index.names.count(phase)) << "missing span: " << phase;
  }

  // One sweep span per recorded sweep, each nested inside the iteration
  // phase's interval.
  std::pair<double, double> iteration{0, 0};
  for (const auto& [name, interval] : index.intervals) {
    if (name == "dtucker.iteration") iteration = interval;
  }
  int sweeps = 0;
  for (const auto& [name, interval] : index.intervals) {
    if (name != "dtucker.sweep") continue;
    ++sweeps;
    EXPECT_GE(interval.first, iteration.first);
    EXPECT_LE(interval.second, iteration.second + 1e-3);
  }
  EXPECT_EQ(sweeps, stats.iterations);
  ClearTrace();
}

TEST(ObservabilityTest, MetricsSnapshotReportsFlopsAndPerSweepFit) {
  TuckerStats stats;
  Result<TuckerDecomposition> dec = RunSmallDecomposition(&stats);
  ASSERT_TRUE(dec.ok()) << dec.status().ToString();
  RecordSweepMetrics(stats);
  ASSERT_FALSE(stats.sweep_history.empty());

  JsonValue root;
  ASSERT_TRUE(
      JsonParser::Parse(MetricsRegistry::Global().SnapshotJson(), &root));
  const JsonValue& counters = root.at("counters");
  EXPECT_GE(counters.at("gemm.calls").number_value, 1.0);
  EXPECT_GE(counters.at("gemm.flops").number_value, 1.0);
  EXPECT_GE(counters.at("qr.calls").number_value, 1.0);
  EXPECT_GE(counters.at("rsvd.calls").number_value, 1.0);

  const JsonValue& gauges = root.at("gauges");
  EXPECT_TRUE(gauges.Has("dtucker.sweep01.fit"));
  EXPECT_TRUE(gauges.Has("dtucker.sweep01.delta_fit"));
  EXPECT_TRUE(gauges.Has("dtucker.sweep01.subspace_iterations"));
  EXPECT_NEAR(gauges.at("dtucker.sweep01.fit").number_value,
              stats.sweep_history[0].fit, 1e-12);
  EXPECT_GT(gauges.at("process.peak_rss_bytes").number_value, 0.0);

  EXPECT_TRUE(root.at("phases").Has("dtucker.iteration"));
  EXPECT_GT(root.at("process").at("peak_rss_bytes").number_value, 0.0);
}

// Schema checks for a multi-thread Chrome trace: one pid lane per solver
// thread, and the run's outermost span and drop count.
void CheckMultiThreadTraceDocument(const JsonValue& root, int world_size) {
  ASSERT_TRUE(root.Has("traceEvents"));
  EXPECT_TRUE(root.at("otherData").Has("dropped_events"));
  EXPECT_TRUE(IndexTrace(root).names.count("method.run"))
      << "the solve's enclosing span must be in the trace";
  std::set<int> lane_pids;
  for (const JsonValue& ev : root.at("traceEvents").array) {
    if (ev.at("ph").string_value == "M" &&
        ev.at("name").string_value == "process_name") {
      lane_pids.insert(static_cast<int>(ev.at("pid").number_value));
    }
  }
  for (int r = 0; r < world_size; ++r) {
    EXPECT_TRUE(lane_pids.count(r)) << "missing pid lane for thread " << r;
  }
}

// Schema checks for a multi-thread metrics snapshot: one process-wide
// section (no per-thread copies), the run's sweep gauges and method phase,
// and histograms with monotone quantiles.
void CheckMultiThreadMetricsDocument(const JsonValue& root) {
  for (const char* section :
       {"counters", "gauges", "histograms", "phases", "process"}) {
    EXPECT_TRUE(root.Has(section)) << "missing section " << section;
  }
  for (const char* per_rank : {"world_size", "ranks", "rollup"}) {
    EXPECT_FALSE(root.Has(per_rank))
        << "metrics must be reported once, not per rank: " << per_rank;
  }
  EXPECT_GE(root.at("counters").at("gemm.flops").number_value, 1.0);
  EXPECT_TRUE(root.at("gauges").Has("dtucker.sweep01.fit"));
  EXPECT_TRUE(root.at("phases").Has("method.D-Tucker"));
  for (const auto& [name, h] : root.at("histograms").object) {
    const double p50 = h.at("p50").number_value;
    const double p90 = h.at("p90").number_value;
    const double p99 = h.at("p99").number_value;
    const double max = h.at("max").number_value;
    EXPECT_LE(p50, p90) << name;
    EXPECT_LE(p90, p99) << name;
    EXPECT_LE(p99, max) << name;
  }
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

// No "<path>.rank<r>" side files next to a multi-thread run's outputs.
void ExpectNoPerRankFiles(const std::string& path, int world_size) {
  for (int r = 0; r < world_size; ++r) {
    EXPECT_FALSE(FileExists(path + ".rank" + std::to_string(r)))
        << "per-rank file for rank " << r << " next to " << path;
  }
}

TEST(ObservabilityTelemetryTest, FourRankEngineRunFlushesCompleteDocuments) {
  // The plain --trace-out/--metrics-out flush after a 4-thread Engine
  // solve: the chunk workers' lanes and the solve's own spans land in one
  // trace, and the process-wide registry holds the whole run.
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "obs_engine4_trace.json";
  const std::string metrics_path = dir + "obs_engine4_metrics.json";
  FlagParser flags;
  AddTelemetryFlags(&flags);
  std::string trace_arg = "--trace-out=" + trace_path;
  std::string metrics_arg = "--metrics-out=" + metrics_path;
  char prog[] = "observability_test";
  char* argv[] = {prog, trace_arg.data(), metrics_arg.data()};
  ASSERT_TRUE(flags.Parse(3, argv).ok());

  SetTraceEnabled(false);
  ClearTrace();
  SetTraceRunId(4242);
  InitTelemetryFromFlags(flags);
  Tensor x = MakeLowRankTensor({14, 12, 12}, {3, 3, 3}, 0.1, 7);
  EngineOptions eopt;
  eopt.method_options.tucker.ranks = {3, 3, 3};
  eopt.method_options.tucker.max_iterations = 3;
  eopt.method_options.tucker.tolerance = 0.0;
  eopt.method_options.num_threads = 4;
  Engine engine(std::move(eopt));
  Result<EngineRun> run = engine.Solve(x);
  const Status flushed = FlushTelemetryFromFlags(flags);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_FALSE(TraceEnabled());

  JsonValue trace;
  const std::string trace_text = ReadFileOrDie(trace_path);
  ASSERT_TRUE(JsonParser::Parse(trace_text, &trace))
      << trace_text.substr(0, 2000);
  EXPECT_EQ(trace.at("otherData").at("run_id").string_value, "4242");
  CheckMultiThreadTraceDocument(trace, 4);

  JsonValue metrics;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(metrics_path), &metrics));
  CheckMultiThreadMetricsDocument(metrics);
  ExpectNoPerRankFiles(trace_path, 4);
  ExpectNoPerRankFiles(metrics_path, 4);

  SetTraceRunId(0);
  ClearTrace();
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

#ifdef DTUCKER_CLI_PATH

TEST(ObservabilityCliTest, TraceOutAndMetricsOutWriteValidJson) {
  const std::string dir = ::testing::TempDir();
  const std::string tensor_path = dir + "obs_cli_tensor.dtnsr";
  const std::string trace_path = dir + "obs_cli_trace.json";
  const std::string metrics_path = dir + "obs_cli_metrics.json";

  Tensor x = MakeLowRankTensor({14, 12, 10}, {3, 3, 3}, 0.1, 7);
  ASSERT_TRUE(SaveTensor(x, tensor_path).ok());

  const std::string cmd = std::string(DTUCKER_CLI_PATH) +
                          " --op=decompose --tensor=" + tensor_path +
                          " --method=D-Tucker --rank=3 --iters=4" +
                          " --trace-out=" + trace_path +
                          " --metrics-out=" + metrics_path +
                          " > /dev/null";
  const int rc = std::system(cmd.c_str());
  ASSERT_EQ(rc, 0) << "command failed: " << cmd;

  // The trace file is a Perfetto-loadable Chrome trace with spans for all
  // three phases recorded by the subprocess.
  JsonValue trace;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(trace_path), &trace));
  ASSERT_TRUE(trace.Has("traceEvents"));
  const TraceIndex index = IndexTrace(trace);
  for (const char* phase :
       {"method.run", "dtucker.approximation", "dtucker.initialization",
        "dtucker.iteration", "dtucker.sweep"}) {
    EXPECT_TRUE(index.names.count(phase)) << "missing span: " << phase;
  }

  // The metrics file has all four sections with the headline entries.
  JsonValue metrics;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(metrics_path), &metrics));
  for (const char* section : {"counters", "gauges", "phases", "process"}) {
    EXPECT_TRUE(metrics.Has(section)) << "missing section: " << section;
  }
  EXPECT_GE(metrics.at("counters").at("gemm.flops").number_value, 1.0);
  EXPECT_TRUE(metrics.at("gauges").Has("dtucker.sweep01.fit"));
  EXPECT_TRUE(metrics.at("phases").Has("method.D-Tucker"));
  EXPECT_GT(metrics.at("process").at("peak_rss_bytes").number_value, 0.0);

  std::remove(tensor_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// Runs the CLI's decompose on a 14x12x12 tensor with --threads=`threads`,
// writing its trace and metrics next to `tag`-named files; returns the
// paths (trace, metrics).
std::pair<std::string, std::string> RunCliDecompose(const std::string& tag,
                                                    int threads) {
  const std::string dir = ::testing::TempDir();
  const std::string tensor_path = dir + "obs_cli_" + tag + ".dtnsr";
  const std::string trace_path = dir + "obs_cli_" + tag + "_trace.json";
  const std::string metrics_path = dir + "obs_cli_" + tag + "_metrics.json";
  Tensor x = MakeLowRankTensor({14, 12, 12}, {3, 3, 3}, 0.1, 7);
  EXPECT_TRUE(SaveTensor(x, tensor_path).ok());
  const std::string cmd = std::string(DTUCKER_CLI_PATH) +
                          " --op=decompose --tensor=" + tensor_path +
                          " --method=D-Tucker --rank=3 --iters=3" +
                          " --threads=" + std::to_string(threads) +
                          " --trace-out=" + trace_path +
                          " --metrics-out=" + metrics_path + " > /dev/null";
  const int rc = std::system(cmd.c_str());
  EXPECT_EQ(rc, 0) << "command failed: " << cmd;
  std::remove(tensor_path.c_str());
  return {trace_path, metrics_path};
}

TEST(ObservabilityCliTest, FourRankRunWritesOneCompleteTraceAndMetricsFile) {
  const auto [trace_path, metrics_path] = RunCliDecompose("threads4", 4);
  ExpectNoPerRankFiles(trace_path, 4);
  ExpectNoPerRankFiles(metrics_path, 4);

  JsonValue trace;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(trace_path), &trace));
  CheckMultiThreadTraceDocument(trace, 4);
  JsonValue metrics;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(metrics_path), &metrics));
  CheckMultiThreadMetricsDocument(metrics);

  // The counters are the process's own, counted once. The 4 threads split
  // the slice work and nothing is repeated, so the run's GEMM flops equal
  // those of a 1-thread run of the same solve (four stacked copies would
  // read 4x).
  const auto [trace1_path, metrics1_path] = RunCliDecompose("threads1", 1);
  JsonValue metrics1;
  ASSERT_TRUE(JsonParser::Parse(ReadFileOrDie(metrics1_path), &metrics1));
  const double flops4 = metrics.at("counters").at("gemm.flops").number_value;
  const double flops1 = metrics1.at("counters").at("gemm.flops").number_value;
  EXPECT_EQ(flops4, flops1);

  for (const std::string& path :
       {trace_path, metrics_path, trace1_path, metrics1_path}) {
    std::remove(path.c_str());
  }
}

TEST(ObservabilityCliTest, BadFlagValuesExitNonzero) {
  // A malformed value and the retired --transport, --rank-procs and
  // --ranks flags (now unknown) are all rejected with a nonzero exit,
  // before any work starts.
  for (const char* args :
       {"--threads=abc", "--op=decompose --ranks=2 --transport=file",
        "--op=decompose --ranks=2 --rank-procs", "--ranks=4"}) {
    const std::string cmd = std::string(DTUCKER_CLI_PATH) + " " + args +
                            " > /dev/null 2>&1";
    const int rc = std::system(cmd.c_str());
    ASSERT_NE(rc, -1) << cmd;
    EXPECT_TRUE(WIFEXITED(rc) && WEXITSTATUS(rc) != 0) << cmd;
  }
}

#endif  // DTUCKER_CLI_PATH

}  // namespace
}  // namespace dtucker
